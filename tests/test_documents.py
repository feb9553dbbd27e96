import random

import pytest

from xpviews import (
    EMPTY,
    TreeGenConfig,
    ViewSet,
    canonical_model,
    canonical_model_with_output,
    dag_from_expr,
    eval_dag_pattern,
    eval_plan,
    eval_tree_pattern,
    generate_tree,
    materialize_all,
    materialize_view,
    parse_xml,
    print_xml,
    tree_from_text,
    unfold_expr,
)
from xpviews.documents import UnsupportedXml
from xpviews.pattern import main_branch
from xpviews.syntax import parse

from conftest import brute_eval, random_tree_pattern

V10 = {
    "v1": 'doc("L")//paper//section',
    "v2": 'doc("L")//section[theorem]',
    "v3": 'doc("L")/lib//figure/image',
}
Q10 = 'doc("L")/lib//paper//section[theorem]//figure/image'

LIB_XML = """<L><lib>
  <paper><section><theorem/><figure><image/></figure></section></paper>
  <paper><section><figure><image/></figure></section></paper>
  <section><theorem/><figure><image/></figure></section>
</lib></L>"""


@pytest.fixture
def lib_tree():
    return parse_xml(LIB_XML)


def test_sections_with_theorem(lib_tree):
    v2 = tree_from_text(V10["v2"])
    hits = eval_tree_pattern(v2, lib_tree)
    assert {lib_tree.labels[n] for n in hits} == {"section"}
    for n in hits:
        assert any(lib_tree.labels[c] == "theorem" for c in lib_tree.children[n])
    assert len(hits) == 2


def test_root_label_pattern(lib_tree):
    p = tree_from_text('doc("L")/lib')
    hits = eval_tree_pattern(p, lib_tree)
    assert hits == set(lib_tree.children[lib_tree.root])


def test_eval_matches_brute_force_oracle():
    t = generate_tree(TreeGenConfig(depth=5, fanout=3, labels=("a", "b", "c"), seed=5))
    assert t.size() >= 30
    rng = random.Random(9)
    for _ in range(25):
        p = random_tree_pattern(rng, mb_len=rng.randint(1, 3), root_label="L")
        assert eval_tree_pattern(p, t) == brute_eval(p, t)


def test_eval_dag_is_intersection_of_branches():
    rng = random.Random(31)
    t = generate_tree(TreeGenConfig(depth=5, fanout=3, labels=("a", "b", "c"), seed=6))
    for _ in range(25):
        out_label = rng.choice("abc")
        q1 = random_tree_pattern(rng, mb_len=rng.randint(1, 3), out_label=out_label)
        q2 = random_tree_pattern(rng, mb_len=rng.randint(1, 3), out_label=out_label)
        from xpviews.pattern import dag_intersect

        d = dag_intersect([q1, q2])
        want = eval_tree_pattern(q1, t) & eval_tree_pattern(q2, t)
        got = eval_dag_pattern(d, t) if d is not EMPTY else set()
        assert got == want


def test_eval_dag_empty_pattern():
    t = generate_tree(TreeGenConfig(seed=1))
    assert eval_dag_pattern(EMPTY, t) == set()


def test_dag_of_views_returns_right_sections(lib_tree):
    views = ViewSet.from_texts(V10)
    d = unfold_expr(parse('doc("v1")/v1 & doc("v2")/v2'), views)
    got = eval_dag_pattern(d, lib_tree)
    v1 = eval_tree_pattern(views["v1"], lib_tree)
    v2 = eval_tree_pattern(views["v2"], lib_tree)
    assert got == v1 & v2


def test_materialize_copies_subtrees(lib_tree):
    views = ViewSet.from_texts(V10)
    vd = materialize_view(views["v2"], "v2", lib_tree)
    assert vd.tree.labels[vd.tree.root] == "v2"
    assert len(vd.answer_roots) == 2
    for copy in vd.answer_roots:
        orig = vd.originals[copy]
        assert lib_tree.labels[orig] == "section"
        # the whole subtree is copied with original ids recorded
        assert len(vd.tree.subtree_nodes(copy)) == len(lib_tree.subtree_nodes(orig))


def test_plan_eval_equals_direct(lib_tree):
    views = ViewSet.from_texts(V10)
    docs = materialize_all(views, lib_tree)
    q = tree_from_text(Q10)
    plan = parse('(doc("v1")/v1 & doc("v2")/v2)//figure/image & doc("v3")/v3')
    assert eval_plan(plan, docs) == eval_tree_pattern(q, lib_tree)


def test_plan_eval_single_view(lib_tree):
    views = ViewSet.from_texts(V10)
    docs = materialize_all(views, lib_tree)
    got = eval_plan(parse('doc("v2")/v2'), docs)
    assert got == eval_tree_pattern(views["v2"], lib_tree)


def test_plan_eval_disjoint_view_is_empty(lib_tree):
    views = ViewSet.from_texts(dict(V10, v4='doc("L")//nothing'))
    docs = materialize_all(views, lib_tree)
    got = eval_plan(parse('doc("v2")/v2 & doc("v4")/v4'), docs)
    assert got == set()


def test_plan_eval_agrees_with_unfold_on_random_instances():
    rng = random.Random(17)
    for trial in range(20):
        t = generate_tree(
            TreeGenConfig(depth=5, fanout=3, labels=("a", "b", "c"), seed=trial)
        )
        out_label = rng.choice("abc")
        views = ViewSet(
            {
                "w1": random_tree_pattern(rng, mb_len=2, out_label=out_label),
                "w2": random_tree_pattern(rng, mb_len=2, out_label=out_label),
            }
        )
        docs = materialize_all(views, t)
        plan = parse('doc("w1")/w1 & doc("w2")/w2')
        d = unfold_expr(plan, views)
        want = eval_dag_pattern(d, t) if d is not EMPTY else set()
        assert eval_plan(plan, docs) == want

    # Head predicates (text constants, // predicates), compensations after
    # an intersection, and a view with nested answers, whose document holds
    # several copies of one original node; the oracle is exhaustive search
    # over the unfolded plan.
    rng = random.Random(23)
    answered = [0, 0, 0, 0]
    nested_copies = 0
    for trial in range(30):
        t = generate_tree(
            TreeGenConfig(depth=6, fanout=3, labels=("a", "b", "c"), seed=100 + trial)
        )
        out_label = rng.choice("abc")
        views = ViewSet(
            {
                "w1": random_tree_pattern(
                    rng, mb_len=2, out_label=out_label, dd_prob=0.8, pred_prob=0.3
                ),
                "w2": random_tree_pattern(rng, mb_len=1, out_label=out_label, dd_prob=0.8),
                "w3": tree_from_text(f'doc("L")//{out_label}'),
            }
        )
        docs = materialize_all(views, t)
        copied = list(docs["w3"].originals.values())
        nested_copies += len(copied) > len(set(copied))

        def head(name):
            pred = _random_pred_text(rng) if rng.random() < 0.6 else ""
            return f'doc("{name}")/{name}{pred}'

        plans = [
            f'{head("w1")} & {head("w2")}',
            head("w3") + _random_steps_text(rng, 2),
            f'({head("w1")} & {head("w3")})' + _random_steps_text(rng, 1),
            f'({head("w2")} & {head("w3")} & {head("w1")})' + _random_steps_text(rng, 2),
        ]
        for i, text in enumerate(plans):
            plan = parse(text)
            got = eval_plan(plan, docs)
            assert got == brute_eval(unfold_expr(plan, views), t), text
            answered[i] += bool(got)
    # each plan shape has non-empty answers on several instances
    assert min(answered) >= 3 and nested_copies >= 20


def _random_pred_text(rng, depth=2):
    body = ("" if rng.random() < 0.6 else ".//") + rng.choice("abc")
    if depth > 1 and rng.random() < 0.3:
        body += _random_pred_text(rng, depth - 1)
    if rng.random() < 0.3:
        body += rng.choice(("/", "//")) + rng.choice("abc")
    if rng.random() < 0.3:
        body += f'="{rng.choice("xy")}"'
    return f"[{body}]"


def _random_steps_text(rng, n):
    return "".join(
        rng.choice(("/", "//"))
        + rng.choice("abc")
        + (_random_pred_text(rng) if rng.random() < 0.3 else "")
        for _ in range(n)
    )


def test_canonical_model_shapes():
    p = tree_from_text('doc("D")/a//b')
    t, out_img = canonical_model_with_output(p, "z")
    labels = []
    n = out_img
    while n is not None:
        labels.append(t.labels[n])
        n = t.parent[n]
    assert labels[::-1] == ["D", "a", "z", "b"]

    chain = tree_from_text('doc("D")/a/b')
    t2 = canonical_model(chain)
    assert sorted(t2.labels.values()) == ["D", "a", "b"]

    q = tree_from_text(Q10)
    t3, out3 = canonical_model_with_output(q, "z")
    spine = []
    n = out3
    while n is not None:
        spine.append(t3.labels[n])
        n = t3.parent[n]
    assert spine[::-1] == ["L", "lib", "z", "paper", "z", "section", "z", "figure", "image"]
    assert q.size() + 3 == t3.size()


def test_canonical_model_admits_embedding():
    q = tree_from_text(Q10)
    t, out_img = canonical_model_with_output(q)
    assert out_img in eval_tree_pattern(q, t)


def test_xml_round_trip_and_rejections():
    t = parse_xml("<a><b>x</b><c/></a>")
    text = print_xml(t)
    again = parse_xml(text)
    assert print_xml(again) == text
    with pytest.raises(UnsupportedXml):
        parse_xml('<a f="1"/>')
    with pytest.raises(UnsupportedXml):
        parse_xml("<a><b</a>")


def test_print_xml_deep_chain_is_linear():
    # indentation stops growing at a fixed depth, so a 10^4-deep chain
    # prints in a few dozen bytes per node, not two spaces per level
    from xpviews.documents import MAX_INDENT_DEPTH, XmlTree

    depth = 10_000
    t = XmlTree()
    n = t.add_node("L", None)
    for i in range(depth):
        n = t.add_node("a", n, "x" if i % 1000 == 0 else "")
    text = print_xml(t)
    assert len(text) <= (2 * MAX_INDENT_DEPTH + 16) * 2 * t.size()
    back = parse_xml(text)
    assert (back.labels, back.parent, back.texts) == (t.labels, t.parent, t.texts)
    assert print_xml(back) == text
    # shallower documents keep two spaces per level
    assert print_xml(parse_xml("<a><b><c>t</c><d/></b></a>")) == (
        "<a>\n  <b>\n    <c>t</c>\n    <d/>\n  </b>\n</a>"
    )


def test_view_document_xml_round_trip(lib_tree):
    from xpviews.documents import view_document_from_xml, view_document_to_xml

    views = ViewSet.from_texts(V10)
    vd = materialize_view(views["v2"], "v2", lib_tree)
    text = view_document_to_xml(vd)
    assert "__origid" in text
    back = view_document_from_xml(text, lib_tree)
    assert back.name == vd.name
    assert [back.originals[a] for a in back.answer_roots] == [
        vd.originals[a] for a in vd.answer_roots
    ]
    # deep originals are recovered as well
    assert sorted(back.originals.values()) == sorted(vd.originals.values())
    docs = {"v2": back}
    got = eval_plan(parse('doc("v2")/v2'), docs)
    assert got == eval_tree_pattern(views["v2"], lib_tree)


def test_deep_chain_round_trip():
    # 10^4 levels: an <a> chain with a <b> at depth 8,000, so the view
    # //b holds a 2,000-deep copy, which is serialized as a view document;
    # the whole chain's text form is checked by
    # test_print_xml_deep_chain_is_linear.
    from xpviews.documents import view_document_from_xml, view_document_to_xml

    depth, below = 10_000, 2_000
    text = (
        "<L>" + "<a>" * (depth - below) + "<b>" + "<a>" * (below - 1) + "<c/>"
        + "</a>" * (below - 1) + "</b>" + "</a>" * (depth - below) + "</L>"
    )
    t = parse_xml(text)
    assert t.size() == depth + 2
    views = ViewSet.from_texts({"v": 'doc("L")//b'})
    vd = materialize_view(views["v"], "v", t)
    assert vd.tree.size() == below + 2
    xml = view_document_to_xml(vd)
    assert xml.count("<a>") == below - 1
    back = view_document_from_xml(xml, t)
    assert back.originals == vd.originals and back.answer_roots == vd.answer_roots
    assert print_xml(back.tree) == print_xml(vd.tree)
    want = eval_tree_pattern(tree_from_text('doc("L")//b//a[c]'), t)
    assert len(want) == 1
    assert eval_plan(parse('doc("v")/v//a[c]'), {"v": back}) == want
    assert eval_plan(parse('(doc("v")/v)//a[c]'), {"v": back}) == want


def test_descendant_steps_are_linear_in_depth():
    # A 2*10^4-deep chain of <a>: each // step climbs every node once, where
    # walking each candidate's own ancestor chain is quadratic in the depth.
    import time

    from xpviews.documents import XmlTree

    t = XmlTree()
    chain = [t.add_node("L", None)]
    for _ in range(20_000):
        chain.append(t.add_node("a", chain[-1]))
    start = time.perf_counter()
    got = eval_tree_pattern(tree_from_text('doc("L")//a//a'), t)
    assert time.perf_counter() - start < 2.0
    assert got == set(chain[2:])


def test_eval_sees_nodes_added_after_an_evaluation():
    t = parse_xml("<L><a/></L>")
    below_a = tree_from_text('doc("L")/a//a')
    any_a = tree_from_text('doc("L")//a')
    (a,) = eval_tree_pattern(any_a, t)
    assert eval_tree_pattern(below_a, t) == set()
    a2 = t.add_node("a", t.add_node("b", a))
    assert eval_tree_pattern(below_a, t) == {a2}
    assert eval_tree_pattern(any_a, t) == {a, a2}


def test_generate_tree_deterministic():
    cfg = TreeGenConfig(depth=4, fanout=3, seed=12)
    t1, t2 = generate_tree(cfg), generate_tree(cfg)
    assert print_xml(t1) == print_xml(t2)


def test_text_predicate_existential_semantics():
    t = parse_xml("<L><a><b>x</b><b>y</b></a><a><b>y</b></a></L>")
    p = tree_from_text('doc("L")/a[b="x"]')
    hits = eval_tree_pattern(p, t)
    assert len(hits) == 1
