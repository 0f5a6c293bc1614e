import pytest

from stylosig.conllu import DepTree, parse_conllu
from stylosig.corpus import read_conllu
from stylosig.errors import DataError

SAMPLE = """# sent_id = 1
# text = Dogs chase cats
1\tDogs\tdog\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tchase\tchase\tVERB\t_\t_\t0\troot\t_\t_
3\tcats\tcat\tNOUN\t_\t_\t2\tobj\t_\t_

1\tBirds\tbird\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tsing\tsing\tVERB\t_\t_\t0\troot\t_\t_
"""


def test_parse_two_sentences():
    tree = parse_conllu(SAMPLE)
    assert tree.form == ("Dogs", "chase", "cats", "Birds", "sing")
    assert tree.head == (1, -1, 1, 4, -1)
    assert tree.deprel == ("nsubj", "root", "obj", "nsubj", "root")
    assert tree.upos == ("NOUN", "VERB", "NOUN", "NOUN", "VERB")
    assert tree.lemma == ("dog", "chase", "cat", "bird", "sing")


def test_skips_multiword_and_empty_nodes():
    text = (
        "1-2\tcannot\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tcan\tcan\tAUX\t_\t_\t2\taux\t_\t_\n"
        "2\tnot\tnot\tPART\t_\t_\t0\troot\t_\t_\n"
        "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    tree = parse_conllu(text)
    assert tree.form == ("can", "not") and tree.head == (1, -1)


def test_heads_count_from_the_first_node_of_the_file():
    # CRLF line ends, comments, a multiword range and an empty node, none of which is a node
    text = (
        "# sent_id = 1\n"
        "1\tA\ta\tX\t_\t_\t0\troot\t_\t_\n"
        "\n"
        "# sent_id = 2\n"
        "# text = cannot go\n"
        "1-2\tcannot\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tcan\tcan\tAUX\t_\t_\t3\taux\t_\t_\n"
        "2\tnot\tnot\tPART\t_\t_\t3\tadvmod\t_\t_\n"
        "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "3\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n"
        "\n"
        "1\tB\tb\tX\t_\t_\t2\tdep\t_\t_\n"
        "2\tC\tc\tX\t_\t_\t0\troot\t_\t_\n"
        "3\tD\td\tX\t_\t_\t1\tdep\t_\t_\n"
    ).replace("\n", "\r\n")
    tree = parse_conllu(text)
    assert tree.form == ("A", "can", "not", "go", "B", "C", "D")
    assert tree.head == (-1, 3, 3, -1, 5, -1, 4)
    assert tree.deprel == ("root", "aux", "advmod", "root", "dep", "root", "dep")


def test_empty_text_is_a_tree_of_no_nodes():
    assert parse_conllu("") == parse_conllu("# only a comment\n\n") == DepTree((), (), (), (), ())


def test_wrong_column_count():
    with pytest.raises(DataError, match="columns"):
        parse_conllu("1\tword\tonly\tfour\tcols\n")


def test_two_roots_rejected():
    text = (
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n"
        "2\tb\tb\tX\t_\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(DataError, match="roots"):
        parse_conllu(text)


def test_missing_head_rejected():
    text = "1\ta\ta\tX\t_\t_\t9\tdep\t_\t_\n"
    with pytest.raises(DataError, match="HEAD"):
        parse_conllu(text)


def test_cycle_rejected():
    text = (
        "1\ta\ta\tX\t_\t_\t2\tdep\t_\t_\n"
        "2\tb\tb\tX\t_\t_\t1\tdep\t_\t_\n"
        "3\tc\tc\tX\t_\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(DataError, match="cycle"):
        parse_conllu(text)


def test_non_numeric_head_rejected():
    text = "1\ta\ta\tX\t_\t_\t_\tdep\t_\t_\n"
    with pytest.raises(DataError, match="HEAD"):
        parse_conllu(text)


def test_read_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_conllu(tmp_path / "absent.conllu")


def test_read_file_roundtrip(tmp_path):
    path = tmp_path / "sample.conllu"
    path.write_text(SAMPLE, encoding="utf-8")
    assert read_conllu(path) == parse_conllu(SAMPLE)


@pytest.mark.parametrize("column, at", [("FORM", 1), ("LEMMA", 2), ("UPOS", 3), ("DEPREL", 7)])
@pytest.mark.parametrize("value", ["a\x1fb", "\x00", "x\x0b"])
def test_label_with_control_character_is_data_error(column, at, value):
    # a label holding the separator could join two different grams into one feature
    cols = "1\tDogs\tdog\tNOUN\t_\t_\t0\troot\t_\t_".split("\t")
    cols[at] = value
    with pytest.raises(DataError) as caught:
        parse_conllu("# sent_id = 1\n" + "\t".join(cols) + "\n", source="doc.conllu")
    assert str(caught.value) == f"doc.conllu:2: {column} {value!r} holds a control character (U+0000-U+001F)"


def test_labels_just_above_the_separator_parse():
    tree = parse_conllu("1\ta b!\t\x7f\tX\t_\t_\t0\troot\t_\t_\n")
    assert (tree.form, tree.lemma) == (("a b!",), ("\x7f",))


def chain(n: int, towards_root: str) -> str:
    """One sentence of ``n`` tokens, each the head of the next ("first") or of the one before ("last")."""
    if towards_root == "first":
        heads = range(n)  # token 1 is the root
    else:
        heads = [*range(2, n + 1), 0]  # token n is the root
    return "".join(f"{k}\tw{k}\tw\tX\t_\t_\t{head}\tdep\t_\t_\n" for k, head in enumerate(heads, start=1))


@pytest.mark.parametrize("towards_root", ["first", "last"])
def test_long_chain_parses(towards_root):
    tree = parse_conllu(chain(4000, towards_root))
    assert len(tree.form) == 4000
    assert tree.head.index(-1) == (0 if towards_root == "first" else 3999) and tree.head.count(-1) == 1


def test_cycle_inside_a_long_sentence_rejected():
    # the root is token 4000; tokens 1-2000 lead into a cycle, where 2001-3998 each point one further and 3999 back to 2001
    lines = chain(4000, "last").splitlines(keepends=True)
    lines[3998] = "3999\tw\tw\tX\t_\t_\t2001\tdep\t_\t_\n"
    text = "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n\n# sent_id = 2\n" + "".join(lines)
    with pytest.raises(DataError) as caught:
        parse_conllu(text, source="long.conllu")
    assert str(caught.value) == "long.conllu: cycle in sentence at line 4"
