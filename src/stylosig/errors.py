"""Exception types shared across the toolkit."""


class StylosigError(Exception):
    """Base class for toolkit errors."""


class DataError(StylosigError):
    """Malformed or inconsistent input data (corpora, signature files, matrices)."""


class ConfigError(StylosigError):
    """Invalid experiment configuration.

    Collects every problem found during validation so the user sees all of
    them at once instead of fixing one per run.
    """

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(self.problems))


class DegenerateInputWarning(UserWarning):
    """Raised (as a warning) when an operation falls back on a degenerate convention."""
