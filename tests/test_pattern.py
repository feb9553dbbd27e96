import json

import pytest

from xpviews import (
    EMPTY,
    LabelMismatch,
    ViewSet,
    collapse,
    dag_from_expr,
    lossless_prefixes,
    main_branch,
    pattern_from_json,
    pattern_to_json,
    subpattern_at,
    to_text,
    tokens,
    tree_from_text,
    unfold_expr,
)
from xpviews.pattern import (
    canon_key,
    compensate_expr,
    compensate_pattern,
    dag_intersect,
    relative_ast,
    singleton_pattern,
    tp_of_path,
)
from xpviews.syntax import CHILD, DESC, Path, Step, parse, print_expr

from conftest import two_branch_merges


V10 = {
    "v1": 'doc("L")//paper//section',
    "v2": 'doc("L")//section[theorem]',
    "v3": 'doc("L")/lib//figure/image',
}
Q10 = 'doc("L")/lib//paper//section[theorem]//figure/image'


def test_tree_from_ast_section_theorem():
    p = tree_from_text('doc("L")//section[theorem]')
    assert p.size() == 3
    mb = main_branch(p)
    assert [p.label(n) for n in mb] == ["L", "section"]
    assert [k for a, b, k in p.edges if (a, b) == (mb[0], mb[1])] == [DESC]
    (pred, kind), = p.pred_edges(p.out)
    assert p.label(pred) == "theorem" and kind == CHILD


def test_tree_from_ast_two_node_chain():
    p = tree_from_text('doc("L")/a')
    assert p.size() == 2 and p.out != p.root


def test_tree_from_ast_running_query():
    p = tree_from_text(Q10)
    assert len(main_branch(p)) == 6
    section = main_branch(p)[3]
    assert p.label(section) == "section"
    assert [p.label(b) for b, _ in p.pred_edges(section)] == ["theorem"]


def test_dag_coalesces_roots_and_outputs():
    d = dag_from_expr(parse('doc("L")//a & doc("L")/a'))
    assert d.size() == 2
    kinds = sorted(k for _, _, k in d.edges)
    assert kinds == [CHILD, DESC]
    # brute-force interleaving oracle: exactly doc("L")/a survives
    p1 = tree_from_text('doc("L")//a')
    p2 = tree_from_text('doc("L")/a')
    keys = two_branch_merges(p1, p2)
    assert keys == {canon_key(tree_from_text('doc("L")/a'))}


def test_dag_label_conflict_is_empty():
    assert dag_from_expr(parse('doc("L")//a & doc("L")//b')) is EMPTY


def test_dag_of_unfolded_views_shares_root_and_output():
    views = ViewSet.from_texts(V10)
    d = unfold_expr(parse('doc("v1")/v1 & doc("v2")/v2'), views)
    mbn = d.mb_nodes()
    sections = [n for n in mbn if d.label(n) == "section"]
    assert len(sections) == 1  # coalesced output
    papers = [n for n in mbn if d.label(n) == "paper"]
    assert len(papers) == 1
    theorem = [b for b, _ in d.pred_edges(sections[0])]
    assert [d.label(x) for x in theorem] == ["theorem"]


def test_unfold_single_view_is_view_pattern():
    views = ViewSet.from_texts(V10)
    d = unfold_expr(parse('doc("v1")/v1'), views)
    assert canon_key(d) == canon_key(views["v1"])


def test_unfold_coalesces_compensated_outputs():
    views = ViewSet.from_texts(
        {"v1": 'doc("L")//figure', "v2": 'doc("L")/lib//figure'}
    )
    d = unfold_expr(parse('doc("v1")/v1/image & doc("v2")/v2/image'), views)
    images = [n for n in d.nodes if d.label(n) == "image"]
    assert len(images) == 1 and d.out == images[0]


def test_tokens_of_running_prefix():
    p = tree_from_text('doc("L")/lib//paper//section')
    toks = tokens(p)
    assert [t.labels(p) for t in toks] == [("L", "lib"), ("paper",), ("section",)]
    assert [t.position for t in toks] == ["root", "intermediary", "result"]


def test_tokens_single_token():
    p = tree_from_text('doc("L")/a/b/c')
    toks = tokens(p)
    assert len(toks) == 1 and len(toks[0].nodes) == 4


def test_tokens_reconstruct_main_branch():
    p = tree_from_text(Q10)
    toks = tokens(p)
    flat = [n for t in toks for n in t.nodes]
    assert flat == main_branch(p)


def test_lossless_prefixes_of_running_query():
    q = tree_from_text(Q10)
    prefixes = lossless_prefixes(q)
    assert len(prefixes) == 6
    assert canon_key(prefixes[-1]) == canon_key(q)
    # the prefix at section keeps theorem and carries //figure/image below
    at_section = prefixes[3]
    assert at_section.label(at_section.out) == "section"
    preds = {at_section.label(b) for b, _ in at_section.pred_edges(at_section.out)}
    assert preds == {"theorem", "figure"}
    # the root prefix demotes the whole query into a predicate
    at_root = prefixes[0]
    assert at_root.out == at_root.root
    assert at_root.mb_nodes() == {at_root.root}


def test_compensate_pattern_matches_worked_example():
    r = tree_from_text('doc("D")/a/b')
    p = tree_from_text('doc("D")//b[c][d]/e')
    b_node = main_branch(p)[1]
    got = compensate_pattern(r, p, b_node)
    want = tree_from_text('doc("D")/a/b[c][d]/e')
    assert canon_key(got) == canon_key(want)


def test_compensate_at_output_without_continuation_is_identity():
    r = tree_from_text('doc("D")/a/b')
    p = tree_from_text('doc("D")//x/b')
    got = compensate_pattern(r, p, p.out)
    assert canon_key(got) == canon_key(r)


def test_compensate_plan_expr_appends_navigation():
    q = tree_from_text(Q10)
    section = main_branch(q)[3]
    plan = parse('doc("v1")/v1 & doc("v2")/v2')
    got = compensate_expr(plan, q, section)
    assert print_expr(got) == '(doc("v1")/v1 & doc("v2")/v2)//figure/image'


def test_collapse_identity_and_label_mismatch():
    d = dag_from_expr(parse('doc("L")//a//b & doc("L")//c//b'))
    a = next(n for n in d.nodes if d.label(n) == "a")
    c = next(n for n in d.nodes if d.label(n) == "c")
    assert collapse(d, a, a) is d
    with pytest.raises(LabelMismatch):
        collapse(d, a, c)


def test_collapse_merges_edges_and_counts():
    d = dag_from_expr(parse('doc("L")/paper//x & doc("L")/paper/x'))
    papers = sorted(n for n in d.nodes if d.label(n) == "paper")
    assert len(papers) == 2
    merged = collapse(d, *papers)
    assert merged.size() == d.size() - 1
    # reachability of untouched nodes from the root is preserved
    assert merged.descendants(merged.root) | {merged.root} == set(merged.nodes)


def test_subpattern_at_root_is_whole_tree():
    p = tree_from_text(Q10)
    sub = subpattern_at(p, p.root)
    assert canon_key(sub) == canon_key(p)


def test_json_round_trip():
    d = dag_from_expr(parse('doc("L")//a[x="1"]/b & doc("L")//b'))
    text = pattern_to_json(d)
    back = pattern_from_json(text)
    assert back.size() == d.size()
    assert pattern_to_json(back) == text
    assert pattern_from_json(pattern_to_json(EMPTY)) is EMPTY
    # a / and a // edge between one pair are two records
    par = dag_from_expr(parse('doc("L")//a & doc("L")/a'))
    text = pattern_to_json(par)
    doc = json.loads(text)
    assert [e["kind"] for e in doc["edges"]] == [CHILD, DESC]
    assert pattern_to_json(pattern_from_json(text)) == text
    for kind in ("both", "sideways"):
        doc["edges"][1]["kind"] = kind
        with pytest.raises(ValueError, match="edge kind"):
            pattern_from_json(json.dumps(doc))
    # ids that name no node are typed errors, not KeyError or assert
    doc = json.loads(text)
    doc["edges"][0]["to"] = 7
    with pytest.raises(ValueError, match="missing node"):
        pattern_from_json(json.dumps(doc))
    for key in ("root", "output"):
        doc = json.loads(text)
        doc[key] = 7
        with pytest.raises(ValueError, match="must be nodes"):
            pattern_from_json(json.dumps(doc))


def test_to_text_rejects_a_root_predicate():
    # XP cannot write a predicate on doc("L"); dropping it would print a
    # query that is not equivalent
    p = tree_from_text('doc("L")/a/b')
    z = p.add_node("z")
    p.add_edge(p.root, z, CHILD)
    with pytest.raises(ValueError, match="root"):
        to_text(p)
    # the compensation payload of a node with predicates still renders them
    q = tree_from_text('doc("L")//a[c="x"]/b')
    a = main_branch(q)[1]
    preds, steps = relative_ast(q, a)
    assert print_expr(Path("L", (Step("a", CHILD, preds),) + steps)) == 'doc("L")/a[c="x"]/b'


def test_print_pattern_round_trip():
    text = 'doc("L")/lib//figure/image'
    assert to_text(tree_from_text(text)) == text


def test_cached_structure_follows_edits():
    p = tree_from_text('doc("L")/a/b')
    order = p.topo_order()
    assert isinstance(order, tuple) and p.topo_order() is order
    assert p.label_index() == {"L": (0,), "a": (1,), "b": (2,)}
    c = p.add_node("a")
    p.add_edge(p.root, c, CHILD)
    assert p.topo_order() == (0, 1, 2, 3)
    assert p.label_index()["a"] == (1, 3)
    p.remove_nodes({1, 2})
    assert p.topo_order() == (0, 3)
    assert p.label_index() == {"L": (0,), "a": (3,)}


def test_deep_predicate_keys_and_copies():
    # doc("L")/a with a 5,000-deep predicate chain: keys and copies walk it
    # without recursing along its depth.  Deep keys are compared by hash,
    # since comparing two equal nested tuples recurses in the interpreter.
    depth = 5_000
    p = tree_from_text('doc("L")/a')
    cur = p.out
    for i in range(depth):
        n = p.add_node("b", "x" if i == depth - 1 else None)
        p.add_edge(cur, n, DESC if i == 0 else CHILD)
        cur = n
    key = canon_key(p)
    tp = tp_of_path(p, main_branch(p))
    assert tp.size() == p.size() and hash(canon_key(tp)) == hash(key)
    (q, axis), = p.pred_edges(p.out)
    s = singleton_pattern("a", p, q, axis)
    assert s.size() == depth + 1
    assert hash(canon_key(s)) == hash(canon_key(subpattern_at(p, p.out)))
    d = dag_intersect([p, tp])
    assert d.size() == 2 * depth + 2 and d.is_tree()
    assert len(d.pred_edges(d.out)) == 2
