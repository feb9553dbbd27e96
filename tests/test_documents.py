import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from xpviews import (
    EFFICIENT,
    EMPTY,
    GenConfig,
    Pattern,
    TreeGenConfig,
    ViewSet,
    dag_from_expr,
    eval_dag_pattern,
    eval_plan,
    eval_tree_pattern,
    generate_tree,
    generate_workload,
    materialize_all,
    materialize_view,
    parse_xml,
    print_xml,
    rewrite_detailed,
    tree_from_text,
    unfold_expr,
)
from xpviews.documents import UnsupportedXml, XmlTree, _compile, _embed, _steps_pattern
from xpviews.pattern import PNode, dag_intersect, main_branch
from xpviews.syntax import CHILD, DESC, Compensated, Intersect, Path, Pred, Step, parse, print_expr

from conftest import (
    brute_eval,
    canonical_model,
    canonical_model_with_output,
    graft_models,
    materialize_all_by_embedding,
    random_dag_corpus,
    random_tree_pattern,
    selective_workload,
)

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


@pytest.mark.parametrize("seed", [20240811, 7, 99])
def test_eval_dag_matches_brute_force_on_grafted_models(seed):
    # random documents seldom hold an answer of a random DAG; the canonical
    # models of its interleavings and branches do
    answered = 0
    for _, d, parts in random_dag_corpus(seed, 60):
        t = graft_models(d, parts)
        want = brute_eval(d, t)
        assert eval_dag_pattern(d, t) == want
        answered += bool(want)
    assert answered >= 20


def _with_tests(rng, p, prob=0.25):
    """``p`` with a random text test on some of its nodes below the root,
    the main branch and the output included."""
    for n in list(p.nodes):
        if n != p.root and rng.random() < prob:
            p.nodes[n] = PNode(p.label(n), rng.choice(("x", "y")))
    p._dirty()
    return p


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_eval_with_text_tests_matches_brute_force_property(seed):
    # Several patterns on one document, so label classes built for one
    # (label, text test) serve the next, with and without tests on a label.
    rng = random.Random(seed)
    t = generate_tree(
        TreeGenConfig(depth=rng.randint(4, 5), fanout=4, labels=("a", "b", "c"), seed=rng.randrange(10**6))
    )
    for _ in range(4):
        out_label = rng.choice("abc")
        q1 = _with_tests(rng, random_tree_pattern(rng, mb_len=rng.randint(1, 3), out_label=out_label))
        q2 = _with_tests(rng, random_tree_pattern(rng, mb_len=rng.randint(1, 3), out_label=out_label))
        want1, want2 = brute_eval(q1, t), brute_eval(q2, t)
        assert eval_tree_pattern(q1, t) == want1
        assert eval_tree_pattern(q2, t) == want2
        d = dag_intersect([q1, q2])
        assert eval_dag_pattern(d, t) == brute_eval(d, t)


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
    assert len(vd.answer_roots) == 2
    store = vd.tree
    for orig in vd.answer_roots:
        assert lib_tree.labels[orig] == "section"
        # the whole subtree is held under its original ids
        assert sorted([orig] + store.descendants(orig)) == sorted([orig] + lib_tree.descendants(orig))
        for n in [orig] + store.descendants(orig):
            assert (store.labels[n], store.texts[n]) == (lib_tree.labels[n], lib_tree.texts[n])
    # and nothing else
    assert store.size() == sum(1 + len(lib_tree.descendants(a)) for a in vd.answer_roots)


def test_nested_answers_are_held_once():
    # Every node of a 2,000-deep chain of <a> is an answer of //a; copying
    # each answer's subtree would hold about 2*10^6 nodes.  Only the top <a>
    # has a <b> child.
    import time

    depth = 2_000
    t = parse_xml("<L><a><b/>" + "<a>" * (depth - 1) + "</a>" * depth + "</L>")
    views = ViewSet.from_texts({"v": 'doc("L")//a', "w": 'doc("L")/a'})
    docs = materialize_all(views, t)
    vd = docs["v"]
    assert vd.tree.size() <= t.size() and len(vd.answer_roots) == depth
    for plan, query in [
        ('doc("v")/v/a', 'doc("L")//a/a'),
        ('doc("v")/v[a]', 'doc("L")//a[a]'),
        ('(doc("v")/v)//a', 'doc("L")//a//a'),
        ('doc("v")/v[.//a]', 'doc("L")//a[.//a]'),
        # the single start of w is enumerated; each of its 1,999 answers is
        # checked against v[b]//a, whose only start is the top of the chain
        ('doc("w")/w//a & doc("v")/v[b]//a', 'doc("L")/a[b]//a'),
    ]:
        want = eval_tree_pattern(tree_from_text(query), t)
        assert len(want) == depth - 1
        t0 = time.perf_counter()
        assert eval_plan(parse(plan), docs) == want
        # linear work takes milliseconds; a climb or a pool copied per
        # answer (quadratic in the depth) takes seconds
        assert time.perf_counter() - t0 < 0.5, plan


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
    # an intersection, and a view with nested answers, whose store holds
    # nodes of several answer subtrees once; the oracle is exhaustive search
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
        # some answer of w3 lies inside another, so its nodes belong to
        # several answer subtrees
        roots = docs["w3"].answer_roots
        nested_copies += len(docs["w3"].tree.outermost(roots)) < len(roots)

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


def test_deep_chain_round_trip():
    # 10^4 levels: an <a> chain with a <b> at depth 8,000, so the view
    # //b holds a 2,000-deep copy; the whole chain's text form is checked
    # by test_print_xml_deep_chain_is_linear.
    depth, below = 10_000, 2_000
    text = (
        "<L>" + "<a>" * (depth - below) + "<b>" + "<a>" * (below - 1) + "<c/>"
        + "</a>" * (below - 1) + "</b>" + "</a>" * (depth - below) + "</L>"
    )
    t = parse_xml(text)
    assert t.size() == depth + 2
    views = ViewSet.from_texts({"v": 'doc("L")//b'})
    vd = materialize_view(views["v"], "v", t)
    assert vd.tree.size() == below + 1
    want = eval_tree_pattern(tree_from_text('doc("L")//b//a[c]'), t)
    assert len(want) == 1
    assert eval_plan(parse('doc("v")/v//a[c]'), {"v": vd}) == want
    assert eval_plan(parse('(doc("v")/v)//a[c]'), {"v": vd}) == want


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


def test_descendant_predicate_tests_are_linear_in_depth():
    # A 2*10^4-deep chain of <a> over a <c> leaf: the // predicate of every
    # answer candidate looks at all the <a> below it, so the spans nest;
    # each <a> that fails the predicate is passed over once, not once per
    # span.
    import time

    from xpviews.documents import XmlTree

    t = XmlTree()
    n = t.add_node("L", None)
    for _ in range(20_000):
        n = t.add_node("a", n)
    t.add_node("c", n)
    docs = materialize_all(ViewSet.from_texts({"v": 'doc("L")/a'}), t)
    start = time.perf_counter()
    got = eval_plan(parse('doc("v")/v//a[.//a/c]'), docs)
    assert time.perf_counter() - start < 2.0
    assert got == eval_tree_pattern(tree_from_text('doc("L")/a//a[.//a/c]'), t)
    assert len(got) == 20_000 - 2


def test_eval_sees_nodes_added_after_an_evaluation():
    t = parse_xml("<L><a/></L>")
    below_a = tree_from_text('doc("L")/a//a')
    any_a = tree_from_text('doc("L")//a')
    (a,) = eval_tree_pattern(any_a, t)
    assert eval_tree_pattern(below_a, t) == set()
    a2 = t.add_node("a", t.add_node("b", a))
    assert eval_tree_pattern(below_a, t) == {a2}
    assert eval_tree_pattern(any_a, t) == {a, a2}
    # the label classes of text-tested nodes are rebuilt too
    x_below = tree_from_text('doc("L")//a[c="x"]')
    assert eval_tree_pattern(x_below, t) == set()
    t.add_node("c", a2, "x")
    t.add_node("c", a, "y")
    assert eval_tree_pattern(x_below, t) == {a2}
    t.add_node("c", a, "x")
    assert eval_tree_pattern(x_below, t) == {a, a2}
    assert eval_tree_pattern(tree_from_text('doc("L")//a[c="y"]'), t) == {a}


def test_text_tests_keep_what_the_tree_holds():
    # The label classes kept for direct evaluation grow with the document,
    # not with the queries: 300 text literals and 300 labels that no node
    # holds add nothing to one set per label and per (label, text) that the
    # document holds.
    t = generate_tree(TreeGenConfig(depth=5, fanout=4, labels=("a", "b", "c"), seed=3))
    pairs = {(t.labels[n], t.texts[n]) for n in t.labels}
    for i in range(300):
        for text in (f'doc("L")//a[b="lit{i}"]', f'doc("L")/b//c[a="lit{i}"]/b', f'doc("L")//b[q{i}]'):
            assert eval_tree_pattern(tree_from_text(text), t) == set()
    for text in ('doc("L")//a[b="x"]', 'doc("L")//c[a="y"]//b[c]', 'doc("L")//a[b="lit0"]'):
        q = tree_from_text(text)
        assert eval_tree_pattern(q, t) == brute_eval(q, t)
    labels = {label for label, _ in pairs}
    assert t._classes
    assert all(label in labels if test is None else (label, test) in pairs for label, test in t._classes)


def test_generate_tree_deterministic():
    cfg = TreeGenConfig(depth=4, fanout=3, seed=12)
    t1, t2 = generate_tree(cfg), generate_tree(cfg)
    assert print_xml(t1) == print_xml(t2)


def test_text_predicate_existential_semantics():
    t = parse_xml("<L><a><b>x</b><b>y</b></a><a><b>y</b></a></L>")
    p = tree_from_text('doc("L")/a[b="x"]')
    hits = eval_tree_pattern(p, t)
    assert len(hits) == 1


# ---------------------------------------------------------------------------
# the cache fill against direct evaluation


def _same_fill(docs, want):
    assert {n: vd.answer_roots for n, vd in docs.items()} == {n: vd.answer_roots for n, vd in want.items()}
    (store,) = {id(vd.tree): vd.tree for vd in docs.values()}.values()
    ref = next(iter(want.values())).tree
    for attr in ("labels", "texts", "children", "parent"):
        assert getattr(store, attr) == getattr(ref, attr), attr


def _with_leaf_tests(rng, p):
    """``p`` with a random text test on some of its predicate leaves."""
    mb = set(main_branch(p))
    for n in list(p.nodes):
        if n not in mb and not p.out_edges(n) and rng.random() < 0.5:
            p.nodes[n] = PNode(p.label(n), rng.choice(("x", "y")))
    p._dirty()
    return p


@pytest.mark.parametrize("category", ["es", "slashslash", "full"])
def test_fill_matches_embedding_on_workloads(category):
    for seed in range(1, 11):
        t, _, views = generate_workload(GenConfig(seed=seed, category=category))
        _same_fill(materialize_all(views, t), materialize_all_by_embedding(views, t))
        assert t._parents == {}  # the fill keeps no parents_of sets on the base


def test_fill_matches_embedding_on_the_selective_workload():
    t, _, views, _ = selective_workload()
    _same_fill(materialize_all(views, t), materialize_all_by_embedding(views, t))


def test_materialize_view_matches_embedding_on_random_views():
    # text tests on predicate leaves, // predicates and repeated labels
    rng = random.Random(26)
    checked = answered = 0
    for doc_seed in range(15):
        t = generate_tree(TreeGenConfig(depth=5, fanout=3, labels=("a", "b", "c"), seed=doc_seed))
        views = {}
        for i in range(100):
            v = random_tree_pattern(rng, mb_len=rng.randint(1, 4), pred_prob=0.6, dd_prob=0.5)
            views[f"v{i}"] = _with_leaf_tests(rng, v)
        for name, v in views.items():
            want = materialize_all_by_embedding(ViewSet({name: v}), t)
            _same_fill({name: materialize_view(v, name, t)}, want)
            checked += 1
            answered += bool(want[name].answer_roots)
        _same_fill(materialize_all(ViewSet(views), t), materialize_all_by_embedding(ViewSet(views), t))
    assert checked == 1500 and 300 < answered < 1400


def test_fill_of_empty_mismatched_and_dag_views(lib_tree):
    views = ViewSet.from_texts(V10)
    dag = unfold_expr(parse('doc("v1")/v1 & doc("v2")/v2'), views)
    assert not dag.is_tree()
    # predicates on the root have no text form
    rooted = tree_from_text('doc("L")//section[theorem]')
    for label, axis in (("lib", CHILD), ("image", DESC)):
        rooted.add_edge(rooted.root, rooted.add_node(label), axis)
    cases = {
        "empty": EMPTY,
        "dag": dag,
        "other_root": tree_from_text('doc("M")/lib//section'),
        "rooted": rooted,
    }
    docs = {n: materialize_view(v, n, lib_tree) for n, v in cases.items()}
    assert docs["empty"].answer_roots == docs["other_root"].answer_roots == ()
    assert docs["empty"].tree.size() == docs["other_root"].tree.size() == 0
    assert len(docs["dag"].answer_roots) == 1 and len(docs["rooted"].answer_roots) == 2
    _same_fill(materialize_all(cases, lib_tree), materialize_all_by_embedding(cases, lib_tree))


def test_fill_of_a_deep_chain_is_linear():
    # A 2*10^4-deep chain of <a> over a <c> leaf: views with // steps, /
    # steps and both kinds of predicates, each filled in linear time.
    import time

    from xpviews.documents import XmlTree

    t = XmlTree()
    chain = [t.add_node("L", None)]
    for _ in range(20_000):
        chain.append(t.add_node("a", chain[-1]))
    leaf = t.add_node("c", chain[-1])
    want = {
        'doc("L")//a//a': set(chain[2:]),
        'doc("L")/a/a//a[c]': {chain[-1]},
        'doc("L")//a[a/a]': set(chain[1:-2]),
        'doc("L")//a[.//c]/a': set(chain[2:]),
        'doc("L")//a[.//a/c]': set(chain[1:-1]),
        'doc("L")/a//c': {leaf},
    }
    for text, answers in want.items():
        start = time.perf_counter()
        vd = materialize_view(tree_from_text(text), "v", t)
        assert time.perf_counter() - start < 2.0, text
        assert set(vd.answer_roots) == answers, text
        assert vd.tree.size() == 1 + len(t.descendants(min(answers)))


# ---------------------------------------------------------------------------
# plan evaluation against its definition on the base document

LABELS = ("a", "b")


def _random_preds(rng, depth=2, labels=LABELS, p=0.2):
    """Predicates to ``depth`` levels; each level adds one more with
    probability ``p``."""
    preds = []
    while depth and rng.random() < p:
        steps = [
            Step(rng.choice(labels), rng.choice((CHILD, DESC)), _random_preds(rng, depth - 1, labels, p))
            for _ in range(rng.randint(1, 2))
        ]
        preds.append(Pred(tuple(steps), rng.choice("xy") if rng.random() < 0.3 else None))
    return tuple(preds)


def _random_steps(rng, n, out, labels=LABELS, p=0.2):
    """``n`` random steps, the last labelled ``out``."""
    path = [rng.choice(labels) for _ in range(n - 1)] + [out]
    return tuple(Step(x, rng.choice((CHILD, DESC)), _random_preds(rng, 2, labels, p)) for x in path)


def _random_plan(rng, views, depth, out, labels=LABELS, p=0.2):
    """A random plan whose answers are labelled ``out``; ``labels`` and
    ``p`` go to its predicates and steps."""
    r = rng.random()
    if depth == 0 or r < 0.5:
        name = rng.choice(list(views))
        v = views[name]
        fits = v.label(v.out) == out
        head = Step(name, CHILD, _random_preds(rng, 2, labels, p))
        steps = _random_steps(rng, rng.randint(0 if fits else 1, 2), out, labels, p)
        return Path(name, (head,) + steps)
    if r < 0.8:
        return Intersect(
            tuple(_random_plan(rng, views, depth - 1, out, labels, p) for _ in range(rng.choice((2, 2, 3))))
        )
    base = _random_plan(rng, views, depth - 1, rng.choice(labels), labels, p)
    return Compensated(base, _random_steps(rng, rng.randint(1, 2), out, labels, p))


def _plan_on_base(plan, views, t):
    """The plan's meaning, evaluated on the base document: a view's answers,
    then navigation downward from them."""
    if isinstance(plan, Path):
        head = plan.steps[0]
        starts = eval_tree_pattern(views[plan.doc], t)
        return _embed(_steps_pattern(head.preds, plan.steps[1:]), t, starts)
    if isinstance(plan, Intersect):
        return set.intersection(*(_plan_on_base(b, views, t) for b in plan.branches))
    return _embed(_steps_pattern((), plan.steps), t, _plan_on_base(plan.base, views, t))


def _deep_narrow_xml(rng, depth):
    # a chain with an occasional leaf beside it, some leaves carrying text
    chain = [rng.choice(LABELS) for _ in range(depth)]
    parts = []
    for label in chain:
        if rng.random() < 0.3:
            leaf = rng.choice(LABELS)
            parts.append(f"<{leaf}>{rng.choice('xy')}</{leaf}>" if rng.random() < 0.5 else f"<{leaf}/>")
        parts.append(f"<{label}>")
    return "<L>" + "".join(parts) + "".join(f"</{x}>" for x in reversed(chain)) + "</L>"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), deep=st.booleans())
def test_plan_eval_equals_definition_property(seed, deep):
    rng = random.Random(seed)
    if deep:
        t = parse_xml(_deep_narrow_xml(rng, rng.randint(20, 300)))
    else:
        # generate_tree numbers a node's children together, so its ids are
        # not preorder ranks
        t = generate_tree(
            TreeGenConfig(depth=rng.randint(4, 7), fanout=3, labels=LABELS, seed=rng.randrange(10**6))
        )
    views = ViewSet(
        {
            "w1": random_tree_pattern(rng, mb_len=rng.randint(1, 3), labels=LABELS, dd_prob=0.7),
            "w2": random_tree_pattern(rng, mb_len=rng.randint(1, 2), labels=LABELS, dd_prob=0.7),
            # answers that nest
            "w3": tree_from_text(f'doc("L")//{rng.choice(LABELS)}'),
            "w4": tree_from_text(f'doc("L")//{rng.choice(LABELS)}'),
        }
    )
    # w1 and w2 share a store; w3 and w4 are materialized on their own
    docs = materialize_all(ViewSet({n: views[n] for n in ("w1", "w2")}), t)
    for name in ("w3", "w4"):
        docs[name] = materialize_view(views[name], name, t)
    for _ in range(6):
        plan = _random_plan(rng, views, 3, rng.choice(LABELS))
        assert eval_plan(plan, docs) == _plan_on_base(plan, views, t), print_expr(plan)


def test_plan_eval_equals_definition_with_dense_predicates():
    # The property above draws a predicate with probability 0.2 per level, so
    # a / predicate that carries predicates is rare there.  Here steps carry
    # predicates two levels deep with probability 0.5 per level, with text
    # tests, over three labels, and the branches of a plan sit in different
    # stores.  Random plans are mostly empty, and an intersection whose first
    # branch is empty filters nothing, so each plan also filters every node
    # of the base document, in a store or not.
    labels = ("a", "b", "c")
    rng = random.Random(24)
    answered = 0
    for _ in range(80):
        t = generate_tree(
            TreeGenConfig(depth=rng.randint(4, 6), fanout=3, labels=labels, seed=rng.randrange(10**6))
        )
        views = ViewSet(
            {
                "w1": random_tree_pattern(rng, mb_len=rng.randint(1, 3), labels=labels, pred_prob=0.5),
                "w2": random_tree_pattern(rng, mb_len=rng.randint(1, 2), labels=labels, pred_prob=0.5),
                "w3": tree_from_text(f'doc("L")//{rng.choice(labels)}'),
                "w4": tree_from_text(f'doc("L")//{rng.choice(labels)}'),
            }
        )
        # w1 and w3 share a store; w2 and w4 have one each
        docs = materialize_all(ViewSet({n: views[n] for n in ("w1", "w3")}), t)
        for name in ("w2", "w4"):
            docs[name] = materialize_view(views[name], name, t)
        for _ in range(8):
            plan = _random_plan(rng, views, 3, rng.choice(labels), labels, 0.5)
            want = _plan_on_base(plan, views, t)
            assert eval_plan(plan, docs) == want, print_expr(plan)
            assert _compile(plan, docs).filter(set(t.labels)) == want, print_expr(plan)
            answered += bool(want)
    assert answered >= 60


def test_plan_eval_on_a_deep_chain():
    # A 3,000-deep chain with a leaf beside every seventh node: // steps, //
    # predicates that carry predicates of their own, and views whose answers
    # nest, with no recursion along the depth.
    rng = random.Random(3)
    chain = ["a"] + [rng.choice("ab") for _ in range(2_999)]
    parts = [(f"<c>{rng.choice('xy')}</c>" if i % 7 == 0 else "") + f"<{x}>" for i, x in enumerate(chain)]
    t = parse_xml("<L>" + "".join(parts) + "".join(f"</{x}>" for x in reversed(chain)) + "</L>")
    views = ViewSet.from_texts({"u": 'doc("L")/a', "v": 'doc("L")//a', "w": 'doc("L")//b[.//c]'})
    docs = materialize_all(ViewSet({n: views[n] for n in ("u", "v")}), t)
    docs["w"] = materialize_view(views["w"], "w", t)
    for text in [
        'doc("v")/v[.//b[c]]//b[.//a[.//c="x"]]',
        'doc("v")/v//a & doc("w")/w//a[.//b[c]]',
        '(doc("v")/v[.//b//a[c]] & doc("u")/u)//b[.//c="y"]',
        'doc("u")/u//b[.//a[b][.//c]] & doc("v")/v//b[.//c] & doc("w")/w',
        '((doc("w")/w & doc("v")/v//b)//a[c] & doc("v")/v)//b',
    ]:
        plan = parse(text)
        want = _plan_on_base(plan, views, t)
        assert want, text
        assert eval_plan(plan, docs) == want, text
        assert _compile(plan, docs).filter(set(t.labels)) == want, text


def test_plan_from_a_large_view_with_nested_predicates():
    # The query is answered from one view whose answers nest, and the plan's
    # head carries a / predicate that carries predicates.
    t = generate_tree(TreeGenConfig(depth=6, fanout=4, labels=("b", "d", "f"), seed=0))
    views = ViewSet.from_texts({"v0": 'doc("L")//b'})
    q = tree_from_text('doc("L")//b/b[d]/f')
    out = rewrite_detailed(q, views, EFFICIENT)
    assert print_expr(out.plan.expr) == 'doc("v0")/v0[b[d][f]]/b[d]/f'
    want = eval_tree_pattern(q, t)
    assert len(want) == 22
    assert eval_plan(out.plan.expr, materialize_all(views, t)) == want


def test_plans_over_a_store_that_grows():
    # A store filled by one materialize_view grows through a second; plans
    # over the first view document, evaluated before and after, and over
    # both, still equal their definition.  The first round of plans builds
    # the store's parents_of sets and the first view's answer-root set.
    labels = ("a", "b", "c")
    rng = random.Random(41)
    answered = 0
    for _ in range(30):
        t = generate_tree(
            TreeGenConfig(depth=rng.randint(4, 6), fanout=3, labels=labels, seed=rng.randrange(10**6))
        )
        views = ViewSet(
            {
                "w1": random_tree_pattern(rng, mb_len=rng.randint(1, 3), labels=labels, pred_prob=0.3),
                "w2": tree_from_text(f'doc("L")//{rng.choice(labels)}'),
            }
        )
        store = XmlTree()
        docs = {"w1": materialize_view(views["w1"], "w1", t, store)}
        before = [_random_plan(rng, {"w1": views["w1"]}, 2, rng.choice(labels), labels) for _ in range(4)]
        for plan in before:
            assert eval_plan(plan, docs) == _plan_on_base(plan, views, t), print_expr(plan)
        docs["w2"] = materialize_view(views["w2"], "w2", t, store)
        assert docs["w2"].tree is docs["w1"].tree
        after = [_random_plan(rng, views, 3, rng.choice(labels), labels) for _ in range(6)]
        for plan in before + after:
            want = _plan_on_base(plan, views, t)
            assert eval_plan(plan, docs) == want, print_expr(plan)
            assert _compile(plan, docs).filter(set(t.labels)) == want, print_expr(plan)
            answered += bool(want)
    assert answered >= 50


def test_results_belong_to_the_caller(lib_tree):
    # A result shares nothing with the caches behind it: emptying it, or
    # adding to it, leaves the next evaluation unchanged.
    t = lib_tree
    views = ViewSet.from_texts(dict(V10, v4='doc("L")//image', v5='doc("L")/lib'))
    docs = materialize_all(views, t)
    one = Pattern()
    one.root = one.out = one.add_node("L")
    calls = [
        (eval_tree_pattern, one, t),  # the root's pool
        (eval_tree_pattern, tree_from_text('doc("L")//image'), t),  # an output leaf
        (eval_tree_pattern, tree_from_text('doc("L")//section[theorem]'), t),
        (eval_dag_pattern, unfold_expr(parse('doc("v1")/v1 & doc("v2")/v2'), views), t),
        (eval_dag_pattern, dag_intersect([tree_from_text('doc("L")//image'), views["v3"]]), t),
        (eval_plan, parse('doc("v4")/v4'), docs),
        (eval_plan, parse('doc("v5")/v5 & doc("v5")/v5'), docs),
        (eval_plan, parse('doc("v4")/v4 & doc("v3")/v3'), docs),
        (eval_plan, parse('doc("v1")/v1 & doc("v2")/v2'), docs),
        (eval_plan, parse('(doc("v1")/v1 & doc("v2")/v2)//image & doc("v4")/v4'), docs),
    ]
    for f, x, on in calls:
        want = f(x, on)
        assert want
        for change in (set.clear, lambda s: s.update(t.labels)):
            got = f(x, on)
            assert got == want and got is not want
            change(got)
            assert f(x, on) == want, x


def test_trees_are_freed_with_their_documents():
    # No cache outlives the trees it was built for: once the base document
    # and the view documents are dropped, both trees are freed, and so is
    # every set built for them (label classes, parents_of, answer roots).
    import gc
    import tracemalloc
    import weakref

    def evaluate():
        t = generate_tree(TreeGenConfig(depth=7, fanout=4, labels=("a", "b", "c"), seed=1))
        views = ViewSet.from_texts({"v": 'doc("L")//a', "w": 'doc("L")//b[c]//a', "u": 'doc("L")//c'})
        docs = materialize_all(views, t)
        assert eval_plan(parse('doc("v")/v[b] & doc("w")/w & doc("u")/u//a'), docs)
        assert eval_tree_pattern(tree_from_text('doc("L")//b[c="x"]//a[b]'), t)
        return [weakref.ref(t), weakref.ref(docs["v"].tree)]

    evaluate()  # any lazy module state is built once here
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        refs = evaluate()
        gc.collect()
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r() for r in refs] == [None, None]
    assert left - before < 8_000 and peak - before > 400_000


def test_plans_over_sparse_stores():
    # Selective views, each materialized into a store of its own that holds
    # a small part of the document's ids, so its preorder index is kept in
    # dicts rather than lists sized by the id range; plans over them, with
    # // steps and predicates, equal their definition.
    labels = ("a", "b", "c", "d")
    rng = random.Random(53)
    answered = sparse = 0
    for _ in range(25):
        t = generate_tree(TreeGenConfig(depth=8, fanout=4, labels=labels, seed=rng.randrange(10**6)))
        views = ViewSet(
            {
                f"w{i}": random_tree_pattern(rng, mb_len=rng.randint(3, 4), labels=labels, pred_prob=0.3, dd_prob=0.9)
                for i in range(3)
            }
        )
        docs = {name: materialize_view(v, name, t) for name, v in views.items()}
        for vd in docs.values():
            vd.tree.nodes_labelled("a")  # indexes the store
            sparse += isinstance(vd.tree._rank, dict)
        for _ in range(10):
            plan = _random_plan(rng, views, 2, rng.choice(labels), labels, p=0.3)
            want = _plan_on_base(plan, views, t)
            assert eval_plan(plan, docs) == want, print_expr(plan)
            answered += bool(want)
    assert sparse >= 30 and answered >= 40, (sparse, answered)
