"""Child process that runs one workload through ``stylosig.cli.main``.

Usage: ``python3 worker.py probe|measure SPEC.json RESULT.json``, with the
program's ``src`` directory on ``PYTHONPATH``.  ``run.py`` writes the spec
and reads the result; the worker touches only the inputs and output
directories the spec names.

Mode ``probe`` times ``import stylosig.cli`` in this fresh interpreter and
then the workload's set-up calls.  Mode ``measure`` runs units of the
workload in one thread until the time budget is spent, and reports each
unit's wall time, each call's latency, the calls' printed output and this
process's peak RSS.  With tracing on, untraced and traced units alternate,
so one run gives both the traced per-layer metrics and the overhead.

Only ``sys`` and ``time`` are imported before the timed import.
"""

import sys
import time


def _call(cli, argv):
    """Run one CLI call; returns (seconds, exit code, stdout, stderr)."""
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the program failed; count it and keep measuring
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def _expand(calls, unit):
    return [[arg.replace("{unit}", str(unit)) for arg in argv] for argv in calls]


def probe(spec_path):
    start = time.perf_counter()
    import stylosig.cli as cli

    imported = time.perf_counter()
    spec = _load(spec_path)
    problems = []
    for argv in spec["setup_calls"]:
        _, rc, _, err = _call(cli, argv)
        if rc != 0:
            problems.append(f"set-up call {argv[0]} exited {rc}: {err.strip()[-2000:]}")
    return {
        "import_s": imported - start,
        "setup_calls_s": time.perf_counter() - imported,
        "module": cli.__file__,
        "problems": problems,
    }


def measure(spec_path):
    import gc
    import json
    import resource

    import stylosig.cli as cli

    spec = _load(spec_path)

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
    calls = spec["unit_calls"]
    for unit in range(spec["warmup_units"]):
        for argv in _expand(calls, f"warmup{unit}"):
            _call(cli, argv)

    units = []
    outputs = {}  # printed output -> index, so each distinct text is sent once
    errors = []
    spans = []
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        traced = tracer is not None and len(units) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
            tracer.reset()
        results = []
        unit_start = time.perf_counter()
        for argv in _expand(calls, len(units)):
            results.append(_call(cli, argv))
        wall = time.perf_counter() - unit_start
        for argv, (_, rc, out, err) in zip(calls, results):
            if rc != 0 and len(errors) < 5:
                errors.append(f"{argv[0]} exited {rc}: {err.strip()[-2000:]}")
        record = {
            "wall_s": wall,
            "traced": traced,
            "latencies_s": [r[0] for r in results],
            "exit_codes": [r[1] for r in results],
            "outputs": [outputs.setdefault(r[2], len(outputs)) for r in results],
        }
        if traced:
            tracer.uninstall()
            record["layers"] = tracing.unit_metrics(tracer)
            record["broken"] = dict(tracer.broken)
            spans.extend([len(units), *s] for s in tracer.spans)
        units.append(record)

        kinds = (False, True) if tracer is not None else (False,)
        walls = [[u["wall_s"] for u in units if u["traced"] == kind] for kind in kinds]
        if all(walls) and time.perf_counter() + max(sum(w) / len(w) for w in walls) > deadline:
            break

    if spans:
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    return {
        "module": cli.__file__,
        "units": units,
        "outputs": list(outputs),
        "errors": errors,
        "absent": tracer.absent if tracer is not None else [],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _load(path):
    import json

    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv):
    mode, spec_path, result_path = argv[1:]
    result = {"probe": probe, "measure": measure}[mode](spec_path)
    import json

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
