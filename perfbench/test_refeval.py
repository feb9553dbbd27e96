"""Tests of the reference evaluator on small hand-worked documents.

    python3 -m pytest perfbench/test_refeval.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from refeval import Tree, canonical_model, evaluate, parse_query, read_xml, write_xml  # noqa: E402

# L
# ├── a            (0,)
# │   ├── b "x"    (0, 0)
# │   └── c        (0, 1)
# ├── a            (1,)
# │   └── d        (1, 0)
# │       └── b "y" (1, 0, 0)
# └── c            (2,)
#     └── a "x"    (2, 0)
#         ├── b    (2, 0, 0)
#         └── a    (2, 0, 1)
DOC = """<L>
  <a><b>x</b><c/></a>
  <a><d><b>y</b></d></a>
  <c><a>x<b/><a/></a></c>
</L>"""


def answers(query: str, doc: str = DOC) -> set:
    t = read_xml(doc)
    return t.positions(evaluate(parse_query(query), t))


@pytest.mark.parametrize(
    "query, expected",
    [
        ('doc("L")/a', {(0,), (1,)}),
        ('doc("L")/a[b]', {(0,)}),
        ('doc("L")/a[.//b]', {(0,), (1,)}),
        ('doc("L")/a[.//b="x"]', {(0,)}),
        ('doc("L")/a[.//b="y"]', {(1,)}),
        ('doc("L")/a[b="y"]', set()),
        ('doc("L")/a[d/b="y"]', {(1,)}),
        ('doc("L")/a[b][c]', {(0,)}),
        ('doc("L")/a/b', {(0, 0)}),
        ('doc("L")//b', {(0, 0), (1, 0, 0), (2, 0, 0)}),
        ('doc("L")/a//b', {(0, 0), (1, 0, 0)}),
        ('doc("L")//a//b', {(0, 0), (1, 0, 0), (2, 0, 0)}),
        ('doc("L")//a/a', {(2, 0, 1)}),
        ('doc("L")//a//a', {(2, 0, 1)}),
        ('doc("L")/c[a="x"]', {(2,)}),
        ('doc("L")/c[a[b]/a]', {(2,)}),
        ('doc("L")/c[a="y"]', set()),
        ('doc("L")//a[b][a]', {(2, 0)}),
        ('doc("L")/b', set()),
        ('doc("M")/a', set()),
    ],
)
def test_evaluate_hand_worked(query, expected):
    assert answers(query) == expected


def test_output_images_over_all_embeddings():
    # the predicate may be met below a different a than the one the
    # output hangs under
    doc = "<L><a><a><b/></a><c/></a></L>"
    assert answers('doc("L")//a[c]//b', doc) == {(0, 0, 0)}
    assert answers('doc("L")//a[c]/b', doc) == set()


def test_query_text_round_trip():
    for text in [
        'doc("L")/a',
        'doc("L")//a[.//b="x"]/c',
        'doc("L")/a[b/c="y"][.//d]//e[f[g]="x"]',
        'doc("L")/a[b//c]/d[.//e/f]',
    ]:
        q = parse_query(text)
        assert q.text() == text
        assert parse_query(q.text()).text() == text


def test_query_rejects_malformed_text():
    for text in ['doc("L")', 'doc("L")/a[', 'doc("L")/a]', "/a", 'doc("L")/a & doc("L")/b']:
        with pytest.raises(ValueError):
            parse_query(text)


def test_xml_round_trip_keeps_texts_and_escapes():
    t = Tree()
    root = t.add("L", -1)
    a = t.add("a", root, "x < y & z")
    t.add("b", a)
    t.add("c", root, "q")
    back = read_xml(write_xml(t))
    assert back.labels == t.labels
    assert back.texts == t.texts
    assert back.children == t.children


def test_xml_reader_rejects_what_it_cannot_read():
    for text in ["<L><a></L>", '<L a="1"/>', "<L/><M/>", "<L>", "<L><a/>tail</L>"]:
        with pytest.raises(ValueError):
            read_xml(text)


def test_canonical_model_expands_descendant_edges():
    q = parse_query('doc("L")/a//b[c="x"][.//d]')
    model, out = canonical_model(q, "z")
    assert write_xml(model) == "<L>\n<a>\n<z>\n<b>\n<c>x</c>\n<z>\n<d/>\n</z>\n</b>\n</z>\n</a>\n</L>"
    assert model.position(out) == (0, 0, 0)
    assert model.position(out) in model.positions(evaluate(q, model))
    with pytest.raises(ValueError):
        canonical_model(q, "c")


def test_generated_documents_are_seeded():
    a = Tree.generate(7, 4, 3, "ab", ("", "x"), "L")
    b = Tree.generate(7, 4, 3, "ab", ("", "x"), "L")
    c = Tree.generate(8, 4, 3, "ab", ("", "x"), "L")
    assert write_xml(a) == write_xml(b) != write_xml(c)
    assert all(a.parent[n] < n for n in range(1, a.size()))
