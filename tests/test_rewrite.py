import importlib
import json
import random
import time
from itertools import chain, islice
from pathlib import Path

import pytest

from xpviews import (
    EFFICIENT,
    FULL,
    GenConfig,
    TreeGenConfig,
    ViewSet,
    all_rewrites,
    build_rewrite_candidate,
    contains,
    dag_contained_in_tree,
    eval_plan,
    eval_tree_pattern,
    filter_prefixes_by_keys,
    generate_tree,
    generate_workload,
    materialize_all,
    nested_rewrite,
    rewrite,
    rewrite_detailed,
    has_mapping,
    tree_contains,
    tree_from_text,
    unfold_expr,
)
from xpviews.containment import CONTAINMENT, root_mapping_out_images
from xpviews.fragments import FragmentClass, classify
from xpviews.interleaving import bounded_interleaving, first_interleaving
from xpviews.pattern import (
    Pattern,
    PNode,
    canon_key,
    compensate_pattern,
    dag_from_expr,
    lossless_prefixes,
    main_branch,
    pattern_to_json,
    to_text,
)
from xpviews.rewrite import _pairs_on, _plan_expr, _skeleton_views, _view_images
from xpviews.syntax import CHILD, DESC, parse, print_expr
from xpviews.workload import CATEGORIES

from conftest import (
    all_pairs_rewrite,
    best_comp,
    dag_contained_in_dag,
    equivalent_by_minimization,
    es_rewrite_instances,
    minimal_containment_draws,
    nested_rewrite_by_equivalence,
    pinned_out_images,
    random_tree_pattern,
    view_pairs,
)

V10 = {
    "v1": 'doc("L")//paper//section',
    "v2": 'doc("L")//section[theorem]',
    "v3": 'doc("L")/lib//figure/image',
}
Q10 = 'doc("L")/lib//paper//section[theorem]//figure/image'
QSUB = 'doc("L")//paper//section[theorem]//figure/image'


def views10():
    return ViewSet.from_texts(V10)


def equivalent_unfolds(a, b) -> bool:
    return dag_contained_in_dag(a, b) and dag_contained_in_dag(b, a)


def test_rewrite_full_on_section_prefix_subproblem():
    q = tree_from_text(QSUB)
    vs = ViewSet.from_texts({k: V10[k] for k in ("v1", "v2")})
    out = rewrite_detailed(q, vs, FULL)
    assert out.plan is not None and out.status == "rewritten"
    want = unfold_expr(parse('(doc("v1")/v1 & doc("v2")/v2)//figure/image'), vs)
    assert equivalent_unfolds(out.plan.unfold(), want)
    # the plan is the two-view intersection compensated by //figure/image
    text = out.plan.text
    assert text.startswith("(") and text.endswith(")//figure/image")
    assert text.count("doc(") == 2


def test_rewrite_query_available_as_view():
    q = tree_from_text(Q10)
    vs = ViewSet({"q": tree_from_text(Q10)})
    plan = rewrite(q, vs, EFFICIENT)
    assert plan is not None
    assert plan.text == 'doc("q")/q'


def test_rewrite_no_shared_labels_fails():
    q = tree_from_text(Q10)
    vs = ViewSet.from_texts({"w": 'doc("L")//x//y'})
    out = rewrite_detailed(q, vs, FULL)
    assert out.plan is None and out.status == "noRewriting"


def test_rewrite_efficient_equals_full_here():
    q = tree_from_text(QSUB)
    vs = ViewSet.from_texts({k: V10[k] for k in ("v1", "v2")})
    eff = rewrite_detailed(q, vs, EFFICIENT)
    assert eff.plan is not None
    assert equivalent_unfolds(eff.plan.unfold(), q)


def test_candidate_count_is_linear_in_main_branch():
    q = tree_from_text(Q10)
    out = rewrite_detailed(q, views10(), EFFICIENT)
    assert out.candidates_examined <= len(main_branch(q))


def test_plan_evaluates_like_query():
    q = tree_from_text(QSUB)
    vs = ViewSet.from_texts({k: V10[k] for k in ("v1", "v2")})
    plan = rewrite(q, vs, FULL)
    rng = random.Random(0)
    for seed in range(6):
        t = generate_tree(
            TreeGenConfig(
                depth=6,
                fanout=3,
                labels=("lib", "paper", "section", "theorem", "figure", "image"),
                seed=seed,
            )
        )
        docs = materialize_all(vs, t)
        assert eval_plan(plan.expr, docs) == eval_tree_pattern(q, t)


def test_all_rewrites_yields_passing_subsets():
    q = tree_from_text(QSUB)
    vs = ViewSet.from_texts({k: V10[k] for k in ("v1", "v2")})
    plans = list(all_rewrites(q, vs))
    assert plans, "expected at least the two-view rewriting"
    for p in plans:
        assert equivalent_unfolds(p.unfold(), q)
    # the two-view plan at the section prefix is among them
    assert any(p.text.count("doc(") == 2 for p in plans)


def test_best_comp_prefers_highest_image():
    p = tree_from_text('doc("L")/a/x/a/x/o')
    v = tree_from_text('doc("L")//a/x')
    images = root_mapping_out_images(v, p)
    assert len(images) == 2
    bc = best_comp(v, p)
    comps = [compensate_pattern(v, p, b) for b in images]
    # best_comp equals the compensation at the highest image and is
    # contained in every other compensated version
    assert canon_key(bc) == canon_key(comps[0]) or canon_key(bc) == canon_key(
        min(comps, key=lambda c: c.size())
    )
    for other in comps:
        assert tree_contains(other, bc)


def test_best_comp_trivial_when_single_image():
    p = tree_from_text(Q10)
    v = tree_from_text(V10["v3"])
    bc = best_comp(v, p)
    assert canon_key(bc) == canon_key(
        compensate_pattern(v, p, root_mapping_out_images(v, p)[0])
    )


def test_best_comp_property_on_random_instances():
    rng = random.Random(8)
    n_checked = 0
    for _ in range(80):
        p = random_tree_pattern(rng, mb_len=rng.randint(2, 4))
        v = random_tree_pattern(rng, mb_len=rng.randint(1, 3))
        images = root_mapping_out_images(v, p)
        if not images:
            continue
        bc = best_comp(v, p)
        for b in images:
            assert tree_contains(compensate_pattern(v, p, b), bc)
        n_checked += 1
    assert n_checked >= 10


def test_filter_prefixes_by_keys():
    q = tree_from_text(Q10)
    prefixes = lossless_prefixes(q)
    targets = [tree_from_text('doc("L")//section')]
    kept = filter_prefixes_by_keys(prefixes, targets)
    assert [p.label(p.out) for p in kept] == ["section"]


def test_rewrite_with_keys_restricts_prefixes():
    q = tree_from_text(QSUB)
    vs = ViewSet.from_texts({k: V10[k] for k in ("v1", "v2")})
    targets = [tree_from_text('doc("L")//section')]
    out = rewrite_detailed(q, vs, FULL, key_targets=targets)
    assert out.plan is not None
    # the kept prefix is the query's third: the plan and its index are those
    # found without keys, not those of the first prefix
    plain = rewrite_detailed(q, vs, FULL)
    assert out.prefix_index == plain.prefix_index == 2
    assert out.plan.text == plain.plan.text
    none = rewrite_detailed(
        q, vs, FULL, key_targets=[tree_from_text('doc("L")//paper')]
    )
    assert none.plan is None


# -- root-mapping images -------------------------------------------------------

IMAGE_CASES = [
    (
        'doc("L")/a[b="x"]//a/b//a[.//c="y"]/a',
        [
            'doc("L")//a',
            'doc("L")//a[b="x"]',
            'doc("L")//a[b="y"]',
            'doc("L")//a//a',
            'doc("L")/a//b//a',
            'doc("L")//a[.//c]',
            'doc("L")//a[c="y"]',
            'doc("L")//a[.//c="y"]/a',
            'doc("L")//b/a',
            'doc("L")/a/a',
        ],
    ),
    (
        'doc("L")//a[a//a]/a//a[a]/b',
        [
            'doc("L")//a[a]',
            'doc("L")//a[.//a]/a',
            'doc("L")//a/a//a',
            'doc("L")//a[a/a]',
            'doc("L")//a//a[a]',
            'doc("L")//a[a][.//a]//a',
        ],
    ),
]


def _with_tests(rng, p):
    """``p`` with a text test on some of its predicate leaves."""
    mbn = p.mb_nodes()
    for n in sorted(p.nodes):
        if n not in mbn and not p.out_edges(n) and rng.random() < 0.5:
            p.nodes[n] = PNode(p.label(n), rng.choice(("x", "y")))
    return p


def _image_cases():
    for seed in range(1, 11):
        for category in sorted(CATEGORIES):
            _, q, views = generate_workload(GenConfig(seed=seed, category=category))
            yield views, q
    for qt, vts in IMAGE_CASES:
        yield ViewSet.from_texts({f"v{i}": t for i, t in enumerate(vts)}), tree_from_text(qt)
    # repeated labels: two of them, with text tests on predicate leaves
    rng = random.Random(17)
    for _ in range(100):
        q = random_tree_pattern(rng, mb_len=rng.randint(2, 5), labels=("a", "b"), pred_prob=0.6)
        views = ViewSet(
            {
                f"v{i}": _with_tests(
                    rng,
                    random_tree_pattern(
                        rng, mb_len=rng.randint(1, 2), labels=("a", "b"), pred_prob=0.3
                    ),
                )
                for i in range(6)
            }
        )
        yield views, _with_tests(rng, q)


def test_one_pass_images_match_pinned_search():
    sizes = [0, 0, 0]  # (view, prefix) pairs with no, one, several images
    for views, q in _image_cases():
        images = _view_images(views, q)
        for p in lossless_prefixes(q):
            for name, v in views.items():
                got = root_mapping_out_images(v, p)
                assert got == pinned_out_images(v, p), (to_text(q), name, to_text(p))
                sizes[min(len(got), 2)] += 1
            # images into the query, kept where they lie on the prefix
            assert _pairs_on(images, p) == view_pairs(views, p)
    assert sizes[1] >= 400 and sizes[2] >= 100


def _screen_cases():
    yield from _image_cases()
    # views as long as the query, over two root labels, so that the
    # screen's root, / and // tests all reject
    rng = random.Random(23)
    for _ in range(150):
        q = random_tree_pattern(rng, mb_len=rng.randint(2, 5), labels=("a", "b"), pred_prob=0.5)
        views = ViewSet(
            {
                f"v{i}": _with_tests(
                    rng,
                    random_tree_pattern(
                        rng,
                        mb_len=rng.randint(1, 5),
                        labels=("a", "b"),
                        dd_prob=rng.random(),
                        root_label=rng.choice(("L", "L", "M")),
                    ),
                )
                for i in range(8)
            }
        )
        yield views, _with_tests(rng, q)


def test_screen_keeps_every_view_with_an_image():
    screened = mapped = 0
    for views, q in _screen_cases():
        for p in [q] + lossless_prefixes(q):
            images = _view_images(views, p)
            every = [(name, root_mapping_out_images(v, p)) for name, v in views.items()]
            assert [e for e in images if e[1]] == [e for e in every if e[1]], to_text(p)
            assert [name for name, _ in images] == sorted(name for name, _ in images)
            screened += len(views) - len(images)
            mapped += sum(bool(bs) for _, bs in every)
    assert screened >= 10000 and mapped >= 1000


def test_signatures_are_built_on_first_rewrite_and_dropped_by_define():
    vs = ViewSet.from_texts({"v1": 'doc("L")//a/b', "v2": 'doc("L")/b'})
    q = tree_from_text('doc("L")/a/b/c')
    assert vs._signatures is None
    assert _view_images(vs, q) == [("v1", [q.out - 1])]
    first = vs._signatures
    _view_images(vs, q)
    assert vs._signatures is first
    vs.define("v3", tree_from_text('doc("L")//b/c'))
    assert vs._signatures is None
    assert [name for name, _ in _view_images(vs, q)] == ["v1", "v3"]


def test_images_need_a_tree_source():
    d = dag_from_expr(parse('doc("L")//a & doc("L")/b//a'))
    with pytest.raises(ValueError):
        root_mapping_out_images(d, tree_from_text('doc("L")/b/a'))


def test_skeleton_views_are_kept_until_define():
    vs = ViewSet.from_texts({"v1": 'doc("L")//a[.//b]/b'})
    first = _skeleton_views(vs)
    assert _skeleton_views(vs) is first
    vs.define("v2", tree_from_text('doc("L")//b'))
    again = _skeleton_views(vs)
    assert again is not first and list(again) == ["v1", "v2"]


def test_outcome_reports_phase_timings():
    out = rewrite_detailed(tree_from_text(Q10), views10(), FULL)
    t = out.timings
    assert set(t) == {"rewriteMs", "mappingMs", "rulesMs", "containmentMs"}
    assert min(t.values()) >= 0
    assert t["mappingMs"] + t["rulesMs"] + t["containmentMs"] <= t["rewriteMs"]


def test_outcome_reports_screen_and_least_pairs():
    # w's main branch does not embed in the query's.  At the section prefix
    # the second head (v1's) is contained in the first (v0's) and replaces
    # it, so the rules see v1 alone, while the plan keeps both.
    views = ViewSet.from_texts(
        {"v0": V10["v2"], "v1": V10["v1"], "w": 'doc("L")/zz//section'}
    )
    out = rewrite_detailed(tree_from_text(QSUB), views, FULL)
    assert out.plan.text.count("doc(") == 2 and out.prefix_index == 2
    assert (out.views_mapped, out.pairs_seen, out.pairs_kept, out.least_pair_retries) == (2, 2, 1, 0)


def test_least_pairs_rerun_the_rules_on_every_pair():
    # At the prefix ending at d, u0's and u1's compensated heads are
    # equivalent and the sweep keeps u0's.  Only u1's a[d//a] lets the rules
    # merge with u2's, so on the least pairs the fixpoint stays a DAG; the
    # rules run again on all three pairs and reach a tree.
    views = ViewSet.from_texts(
        {
            "u0": 'doc("L")//e//a/d',
            "u1": 'doc("L")//e//a[d//a]/d[a][.//c]',
            "u2": 'doc("L")//e[c="y"]//a[d//a]//d[.//c]',
        }
    )
    q = tree_from_text('doc("L")//e[c="y"]//a[d//a]/d[a][.//c]')
    out = rewrite_detailed(q, views, EFFICIENT)
    assert out.status == "rewritten" and out.prefix_index == 3
    assert out.plan.text == 'doc("u0")/u0[a][.//c] & doc("u1")/u1[a][.//c] & doc("u2")/u2[a][.//c]'
    assert (out.pairs_seen, out.pairs_kept, out.least_pair_retries) == (3, 2, 1)
    assert all_pairs_rewrite(q, views, EFFICIENT) == (out.status, out.plan.text, out.prefix_index)


@pytest.mark.parametrize("seed", [811, 7, 99])
def test_least_pairs_decide_like_every_pair(seed):
    dropped = 0
    for q, views in es_rewrite_instances(seed):
        for mode in (EFFICIENT, FULL):
            out = rewrite_detailed(q, views, mode)
            got = (out.status, out.plan.text if out.plan else None, out.prefix_index)
            assert got == all_pairs_rewrite(q, views, mode), (to_text(q), mode)
            dropped += out.pairs_seen - out.pairs_kept
    assert dropped >= 50


def _record_refutations(monkeypatch) -> list:
    """Wrap rewrite's witness search and tree test so that each prefix the
    witness refutes is appended to the returned list."""
    mod = importlib.import_module("xpviews.rewrite")
    search, test = mod.bounded_interleaving, mod.tree_contains
    witnesses, refuted = [None], []

    def witness(d):
        witnesses.append(search(d))
        return witnesses[-1]

    def tree_contains(p, t):
        got = test(p, t)
        if not got and t is witnesses[-1]:
            refuted.append(p)
        return got

    monkeypatch.setattr(mod, "bounded_interleaving", witness)
    monkeypatch.setattr(mod, "tree_contains", tree_contains)
    return refuted


def _confirm_refutations(q, views, mode, refuted) -> int:
    """Rewrite ``q``, and check by plain enumeration that every prefix the
    witness refuted has an all-pairs unfolding outside it."""
    del refuted[:]
    out = rewrite_detailed(q, views, mode)
    assert out.witness_refutations == len(refuted)
    dag_views = _skeleton_views(views) if classify(q) is FragmentClass.EXTENDED_SKELETON else views
    for p in refuted:
        d = unfold_expr(_plan_expr(view_pairs(views, p), p), dag_views)
        assert not dag_contained_in_tree(d, p), (to_text(q), to_text(p))
    return len(refuted)


@pytest.mark.parametrize("seed", [811, 7, 99])
def test_witness_refutes_only_prefixes_that_fail_on_every_pair(monkeypatch, seed):
    refuted = _record_refutations(monkeypatch)
    total = sum(
        _confirm_refutations(q, views, mode, refuted)
        for q, views in es_rewrite_instances(seed)
        for mode in (EFFICIENT, FULL)
    )
    assert total >= {811: 0, 7: 14, 99: 8}[seed]


def test_witness_refutations_on_generated_workloads(monkeypatch):
    refuted = _record_refutations(monkeypatch)
    total = 0
    for seed in range(1, 11):
        for cat in CATEGORIES:
            for size in (3, 4, 5, 6):
                _, q, views = generate_workload(GenConfig(seed=seed, main_branch_size=size, category=cat))
                total += sum(_confirm_refutations(q, views, mode, refuted) for mode in (EFFICIENT, FULL))
    assert total >= 2


def test_witness_refutes_before_the_rerun():
    # At the prefix ending at the first b, v0's head and one of v1's are
    # dropped as redundant, and the fixpoint of the rest stays a DAG.  Its
    # first interleaving is outside the prefix, so the rules do not rerun.
    views = ViewSet.from_texts({"v0": 'doc("L")//c/b[a//c]//b/d', "v1": 'doc("L")//c//b'})
    q = tree_from_text('doc("L")/c/b[a//c]/b/d')
    out = rewrite_detailed(q, views, EFFICIENT)
    assert out.status == "noRewriting"
    assert (out.pairs_seen, out.pairs_kept, out.witness_refutations, out.least_pair_retries) == (6, 4, 1, 0)
    assert all_pairs_rewrite(q, views, EFFICIENT) == ("noRewriting", None, None)


def _late_conflict_dag(spare: int, chain: int) -> Pattern:
    """A satisfiable DAG whose placement search, taking the a-labelled
    /-chain first, meets the conflict only at the output: the b node must
    come before the chain.  Every way of co-placing the ``spare`` a nodes
    with the chain is a dead end first."""
    d = Pattern()
    d.root = d.add_node("L")
    run = [d.add_node("a") for _ in range(chain)]
    d.out = d.add_node("a")
    d.add_edge(d.root, run[0], DESC)
    for x, y in zip(run, run[1:] + [d.out]):
        d.add_edge(x, y, CHILD)
    for label in ["a"] * spare + ["b"]:
        x = d.add_node(label)
        d.add_edge(d.root, x, DESC)
        d.add_edge(x, d.out, DESC)
    return d


def test_witness_search_gives_up_at_its_bound(monkeypatch):
    d = _late_conflict_dag(3, 3)
    t0 = time.perf_counter()
    assert bounded_interleaving(d) is None
    assert time.perf_counter() - t0 < 0.5
    assert first_interleaving(d) is not None  # the exhaustive search finds one
    assert bounded_interleaving(_late_conflict_dag(1, 1)) is not None
    # with no witness the rules rerun on every pair and decide as before
    monkeypatch.setattr(importlib.import_module("xpviews.rewrite"), "bounded_interleaving", lambda d: None)
    for q, views in es_rewrite_instances(7):
        out = rewrite_detailed(q, views, EFFICIENT)
        got = (out.status, out.plan.text if out.plan else None, out.prefix_index)
        assert got == all_pairs_rewrite(q, views, EFFICIENT)
        assert out.witness_refutations == 0


# -- nested plans --------------------------------------------------------------


def test_build_candidate_keeps_reachable_region():
    q = tree_from_text(Q10)
    cand = build_rewrite_candidate(q, views10())
    assert cand is not None
    labels = sorted(cand.base.label(n) for n in cand.base.nodes)
    # lib, paper and the root are upstream of every view image except v3's
    assert "section" in labels and "image" in labels
    att_labels = {cand.base.label(n) for n in cand.attachments}
    assert att_labels == {"section", "image"}


def test_candidate_without_lib_coverage_fails_equivalence():
    q = tree_from_text(Q10)
    vs = ViewSet.from_texts({"v1": V10["v1"], "v2": V10["v2"]})
    # the candidate drops the uncovered lib prefix, so its unfolding is a
    # strict weakening of q and the equivalence test rejects it
    cand = build_rewrite_candidate(q, vs)
    assert cand is not None
    assert has_mapping(cand.unfold(), q, CONTAINMENT)
    assert not dag_contained_in_tree(cand.unfold(), q)
    assert nested_rewrite(q, vs) is None


def test_nested_rewrite_running_example():
    q = tree_from_text(Q10)
    vs = views10()
    graph = nested_rewrite(q, vs)
    assert graph is not None
    r2 = parse('(doc("v1")/v1 & doc("v2")/v2)//figure/image & doc("v3")/v3')
    assert equivalent_unfolds(graph.unfold(), unfold_expr(r2, vs))
    # the serialized plan is a valid XPint expression with all three views
    text = print_expr(graph.to_expr())
    assert text.count("doc(") == 3
    reparsed = parse(text)
    assert equivalent_unfolds(unfold_expr(reparsed, vs), graph.unfold())


def test_nested_rewrite_query_as_view():
    q = tree_from_text(Q10)
    vs = ViewSet({"q": tree_from_text(Q10), "v1": tree_from_text(V10["v1"])})
    graph = nested_rewrite(q, vs)
    assert graph is not None
    assert any("q" in names for names in graph.attachments.values())


def test_nested_rewrite_fails_when_no_view_maps():
    q = tree_from_text('doc("L")//a//zz')
    assert build_rewrite_candidate(q, ViewSet.from_texts({"v": 'doc("L")//b'})) is None
    assert nested_rewrite(q, ViewSet.from_texts({"v": 'doc("L")//b'})) is None


def test_nested_rewrite_navigates_inside_answers():
    # descendants of an answer live in the copied subtree, so a single
    # covering view rewrites by plain compensation
    q = tree_from_text('doc("L")//a//zz')
    vs = ViewSet.from_texts({"v": 'doc("L")//a'})
    graph = nested_rewrite(q, vs)
    assert graph is not None
    assert print_expr(graph.to_expr()) == 'doc("v")/v//zz'


def test_text_test_beside_bare_sibling():
    # sibling subpatterns with one label, one carrying a text test and one
    # not, must have comparable canonical keys
    q = tree_from_text('doc("L")/a[b="x"]/b')
    assert equivalent_by_minimization(q, q)
    vs = ViewSet.from_texts({"v1": 'doc("L")/a/b', "v2": 'doc("L")//a[b="x"]/b'})
    graph = nested_rewrite(q, vs)
    assert graph is not None
    assert print_expr(graph.to_expr()) == 'doc("v1")/v1 & doc("v2")/v2'


def test_nested_plan_evaluates_like_query():
    q = tree_from_text(Q10)
    vs = views10()
    graph = nested_rewrite(q, vs)
    expr = graph.to_expr()
    for seed in range(5):
        t = generate_tree(
            TreeGenConfig(
                depth=7,
                fanout=3,
                labels=("lib", "paper", "section", "theorem", "figure", "image"),
                seed=seed,
            )
        )
        docs = materialize_all(vs, t)
        assert eval_plan(expr, docs) == eval_tree_pattern(q, t)


def test_interleaving_fallbacks_are_counted_and_logged(caplog):
    # the prefix ending at the second `a` intersects v0 and v1, whose
    # fixpoint stays a DAG: full mode falls back to interleavings there and
    # fails, then the whole query adds v2 and reduces to a tree
    views = ViewSet.from_texts(
        {"v0": 'doc("L")/b/a//a', "v1": 'doc("L")/b//a/a', "v2": 'doc("L")/b/a/a//b'}
    )
    q = tree_from_text('doc("L")/b/a/a//b[a]')
    out = rewrite_detailed(q, views, FULL)
    assert out.plan is not None and out.interleaving_fallbacks == 1
    assert rewrite_detailed(q, views, EFFICIENT).interleaving_fallbacks == 0
    vs2 = ViewSet.from_texts({k: V10[k] for k in ("v1", "v2")})
    tree = rewrite_detailed(tree_from_text(QSUB), vs2, FULL)
    assert tree.plan is not None and tree.interleaving_fallbacks == 0

    # nested rewriting says when its unfolding's fixpoint stays a DAG
    with caplog.at_level("DEBUG", logger="xpviews.rewrite"):
        nested_rewrite(tree_from_text(QSUB), vs2)
        assert not caplog.records
        views = ViewSet.from_texts({"v0": 'doc("L")//a', "v1": 'doc("L")/a//b'})
        assert nested_rewrite(tree_from_text('doc("L")/a/b'), views) is None
    assert any("interleavings" in r.getMessage() for r in caplog.records)


# -- nested decisions on the least attachments --------------------------------

PERFBENCH_INPUTS = Path(__file__).parents[1] / "perfbench" / "inputs"


def _generated_instances():
    for seed in range(1, 11):
        for cat in CATEGORIES:
            for size in (3, 4, 5, 6):
                yield generate_workload(GenConfig(seed=seed, main_branch_size=size, category=cat))[1:]


def _perfbench_instances():
    # every perfbench query over its own views, as its nested operation runs
    for path in sorted(PERFBENCH_INPUTS.glob("*.json")):
        data = json.loads(path.read_text())
        for e in data["queries"]:
            yield tree_from_text(e["text"]), ViewSet.from_texts({n: data["views"][n] for n in e["views"]})


NESTED_CORPORA = {
    "generated": _generated_instances,
    "criterion5": lambda: chain.from_iterable(es_rewrite_instances(s) for s in (811, 7, 99)),
    # criterion 8 reaches its 100 instances within these draws
    "criterion8": lambda: islice(minimal_containment_draws(42), 115),
    "perfbench": _perfbench_instances,
}


def _graph_key(graph):
    if graph is None:
        return None
    return sorted(graph.attachments.items()), pattern_to_json(graph.base), print_expr(graph.to_expr())


@pytest.mark.parametrize("corpus", NESTED_CORPORA)
def test_nested_rewrite_decides_like_equivalence(monkeypatch, corpus):
    instances = list(NESTED_CORPORA[corpus]())  # generating may rewrite too
    mod = importlib.import_module("xpviews.rewrite")
    decide, dropped = mod._decide, []

    def spy(least, every, *args):
        dropped.append(every is not None)
        return decide(least, every, *args)

    monkeypatch.setattr(mod, "_decide", spy)
    found = 0
    for q, views in instances:
        got = _graph_key(nested_rewrite(q, views))
        assert got == _graph_key(nested_rewrite_by_equivalence(q, views)), to_text(q)
        found += got is not None
    assert found == {"generated": 120, "criterion5": 303, "criterion8": 66, "perfbench": 105}[corpus]
    # candidates whose least attachments leave some view out
    assert sum(dropped) == {"generated": 97, "criterion5": 103, "criterion8": 29, "perfbench": 84}[corpus]


@pytest.mark.parametrize("corpus", NESTED_CORPORA)
def test_candidate_unfolding_contains_the_query(corpus):
    # the half of equivalence that nested_rewrite leaves undecided
    candidates = 0
    for q, views in NESTED_CORPORA[corpus]():
        cand = build_rewrite_candidate(q, views)
        if cand is not None:
            assert contains(cand.unfold(), q), to_text(q)
            candidates += 1
    assert candidates == {"generated": 120, "criterion5": 604, "criterion8": 100, "perfbench": 105}[corpus]


def test_nested_witness_refutes_on_the_least_attachments(monkeypatch):
    # v1 ⊑ v0, so v0 is dropped at the output.  The fixpoint of the rest
    # stays a DAG, and its first interleaving puts the view's first a
    # below another one, outside q.
    refuted = _record_refutations(monkeypatch)
    q = tree_from_text('doc("L")/a[a]//a')
    views = ViewSet.from_texts({"v0": 'doc("L")//a', "v1": 'doc("L")/a//a'})
    assert build_rewrite_candidate(q, views).attachments == {1: ["v0"], 3: ["v0", "v1"]}
    assert nested_rewrite(q, views) is None
    assert refuted == [q]
    assert nested_rewrite_by_equivalence(q, views) is None


def test_nested_rules_rerun_on_every_attachment(monkeypatch):
    # u0 and u1 are equivalent and attach at d; u1 is dropped.  Only u1's
    # a[d//a] lets the rules merge with u2, so on the least attachments the
    # fixpoint stays a DAG; no witness refutes it, and the rules run again
    # on the whole unfolding and reach a tree inside q.
    mod = importlib.import_module("xpviews.rewrite")
    real, fixpoints = mod.apply_rules, []

    def apply_rules(d):
        fixpoints.append(real(d)[0])
        return fixpoints[-1], []

    monkeypatch.setattr(mod, "apply_rules", apply_rules)
    views = ViewSet.from_texts(
        {
            "u0": 'doc("L")//e//a/d[a][.//c]',
            "u1": 'doc("L")//e//a[d//a]/d[a][.//c]',
            "u2": 'doc("L")//e[c="y"]//a[d//a]//d[.//c]',
        }
    )
    q = tree_from_text('doc("L")//e[c="y"]//a[d//a]/d[a][.//c]')
    graph = nested_rewrite(q, views)
    assert [f.is_tree() for f in fixpoints] == [False, True]
    assert graph.attachments == {q.out: ["u0", "u1", "u2"]}
    assert _graph_key(graph) == _graph_key(nested_rewrite_by_equivalence(q, views))
