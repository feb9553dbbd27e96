"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here; none are deferred to calibration.
"""

import math
import random
import statistics
import time
from contextlib import contextmanager

import pytest

from xpviews import (
    EFFICIENT,
    EMPTY,
    FULL,
    GenConfig,
    TreeGenConfig,
    ViewSet,
    apply_rules,
    build_rewrite_candidate,
    contains,
    dag_contained_in_tree,
    dag_from_expr,
    equivalent,
    eval_plan,
    eval_tree_pattern,
    generate_tree,
    generate_workload,
    interleavings,
    is_satisfiable,
    materialize_all,
    nested_rewrite,
    normal_form,
    rewrite_detailed,
    tree_contains,
    tree_from_text,
    unfold_expr,
    union_free_oracle,
)
from xpviews.containment import CONTAINMENT, has_mapping
from xpviews.documents import XmlTree
from xpviews.pattern import canon_key, lossless_prefixes, to_text
from xpviews.rewrite import _plan_expr
from xpviews.syntax import parse

from conftest import (
    dag_contained_in_dag,
    es_rewrite_instances,
    random_dag_corpus,
    random_tree_pattern,
    termination_sweep,
    two_branch_merges,
    view_pairs,
)


@contextmanager
def criterion(n: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {title}")


def _unions_equivalent(nf1, nf2):
    return all(any(tree_contains(q, p) for q in nf2) for p in nf1) and all(
        any(tree_contains(q, p) for q in nf1) for p in nf2
    )


# -- 1: the six worked rule examples -------------------------------------------

RULE_CASES = [
    (
        "R1",
        'doc("L")/paper//section/x & doc("L")/paper/section/x',
        'doc("L")/paper/section/x',
    ),
    (
        "R4i",
        'doc("L")/lib/paper/section//figure[caption]/image'
        ' & doc("L")//lib[.//caption]//section//theorem//image',
        'doc("L")/lib/paper/section//theorem//figure[caption]/image',
    ),
    (
        "R5",
        'doc("L")/lib/paper/section//image & doc("L")//paper[.//caption]//image',
        'doc("L")/lib/paper[.//caption]/section//image',
    ),
    (
        "R6",
        'doc("L")//lib/paper[.//caption]/section//image'
        ' & doc("L")//lib[.//figure]/paper/section//image',
        'doc("L")//lib[.//figure]/paper[.//caption]/section//image',
    ),
    (
        "R7",
        'doc("L")/lib//paper[theorem][caption]//section//figure/image'
        ' & doc("L")/lib//paper[theorem]//section//figure//image',
        'doc("L")/lib//paper[theorem][caption]//section//figure/image',
    ),
    (
        "R8",
        'doc("L")/lib/paper/section/figure/image & doc("L")//paper[.//caption]//image',
        'doc("L")/lib/paper[.//caption]/section/figure/image',
    ),
    (
        "R9",
        'doc("L")/lib/section/section/section[figure]/image'
        ' & doc("L")//section[figure]/section[figure]//image',
        'doc("L")/lib/section/section[figure]/section[figure]/image',
    ),
]


def test_criterion_1_rule_examples():
    with criterion(1, "worked rule examples fire and produce the expected trees"):
        t0 = time.perf_counter()
        for rule, expr, want in RULE_CASES:
            d = dag_from_expr(parse(expr))
            out, trace = apply_rules(d)
            seq = [s.instance.rule for s in trace]
            assert rule in seq, f"{rule} did not fire: {seq}"
            assert out is not EMPTY and out.is_tree(), rule
            assert canon_key(out) == canon_key(tree_from_text(want)), rule
        # the R9 example must fire R9 strictly before the enabling R7 removal
        d = dag_from_expr(parse(RULE_CASES[-1][1]))
        _, trace = apply_rules(d)
        seq = [s.instance.rule for s in trace]
        assert seq.index("R9") < seq.index("R7")
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"rule examples took {elapsed:.3f}s"


# -- 2: the running / nested example --------------------------------------------

V10 = {
    "v1": 'doc("L")//paper//section',
    "v2": 'doc("L")//section[theorem]',
    "v3": 'doc("L")/lib//figure/image',
}
Q10 = 'doc("L")/lib//paper//section[theorem]//figure/image'
QSUB = 'doc("L")//paper//section[theorem]//figure/image'


def test_criterion_2_running_nested_example():
    with criterion(2, "nested plan matches r2; prefix rewrite gives the 2-view plan"):
        t0 = time.perf_counter()
        views = ViewSet.from_texts(V10)
        q = tree_from_text(Q10)
        graph = nested_rewrite(q, views)
        assert graph is not None
        r2 = parse('(doc("v1")/v1 & doc("v2")/v2)//figure/image & doc("v3")/v3')
        u_graph, u_r2 = graph.unfold(), unfold_expr(r2, views)
        assert dag_contained_in_dag(u_graph, u_r2)
        assert dag_contained_in_dag(u_r2, u_graph)

        qsub = tree_from_text(QSUB)
        vs2 = ViewSet.from_texts({k: V10[k] for k in ("v1", "v2")})
        out = rewrite_detailed(qsub, vs2, FULL)
        assert out.plan is not None
        assert out.plan.text.endswith(")//figure/image")
        assert out.plan.text.count("doc(") == 2
        want = unfold_expr(parse('(doc("v1")/v1 & doc("v2")/v2)//figure/image'), vs2)
        got = out.plan.unfold()
        assert dag_contained_in_dag(got, want) and dag_contained_in_dag(want, got)
        assert dag_contained_in_tree(got, qsub) and has_mapping(got, qsub, CONTAINMENT)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"running example took {elapsed:.3f}s"


# -- 3: interleaving count -------------------------------------------------------

RUNNING_V1 = 'doc("L")/lib/paper//section//figure[caption[.//label]]/image'
RUNNING_V2 = 'doc("L")//paper//section[theorem]//figure/image'


def test_criterion_3_seven_interleavings():
    with criterion(3, "running example v1&v2 yields exactly 7 interleavings"):
        d = dag_from_expr(parse(f"{RUNNING_V1} & {RUNNING_V2}"))
        ils = list(interleavings(d))
        assert len(ils) == 7
        quoted = tree_from_text(
            'doc("L")/lib/paper//paper//section[theorem]'
            "//figure[caption[.//label]]/image"
        )
        keys = {canon_key(i.pattern) for i in ils}
        assert canon_key(quoted) in keys
        # cross-check against the independent shuffle-merge enumerator
        oracle = two_branch_merges(
            tree_from_text(RUNNING_V1), tree_from_text(RUNNING_V2)
        )
        assert keys == oracle


# -- 4: oracle equivalence over random DAGs --------------------------------------

TRACE_BOUND_LOG: list[tuple[int, int, int]] = []  # (|NODES|, preds, trace length)


def test_criterion_4_oracle_equivalence():
    with criterion(4, "500 random DAGs: rules sound, ES-complete, sat agrees"):
        failures = 0
        for es, d, _ in random_dag_corpus(20240811, 500):
            preds = sum(len(d.pred_edges(n)) for n in d.mb_nodes())
            out, trace = apply_rules(d)
            TRACE_BOUND_LOG.append((d.size(), preds, len(trace)))
            # (c) satisfiability agrees with enumeration
            if is_satisfiable(d) != (next(iter(interleavings(d)), None) is not None):
                failures += 1
                continue
            # (a) output equivalent to input by mutual normal-form containment
            nf_in = normal_form(d)
            nf_out = normal_form(out) if out is not EMPTY else []
            if not _unions_equivalent(nf_in, nf_out):
                failures += 1
                continue
            # (b) for ES-built DAGs a dominant interleaving forces a tree
            if es:
                dom = union_free_oracle(d)
                tree = out is not EMPTY and out.is_tree()
                if dom is not None:
                    if not tree or not equivalent(out, dom):
                        failures += 1
        assert failures == 0


# -- 5: rewriting completeness at desk scale -------------------------------------


def _brute_rewriting_exists(q, views) -> bool:
    for p in lossless_prefixes(q):
        pairs = view_pairs(views, p)
        if not pairs:
            continue
        d = unfold_expr(_plan_expr(pairs, p), views)
        if d is EMPTY:
            continue
        contained = dag_contained_in_tree(d, p)
        # the rules-first decision must agree with plain enumeration
        assert contains(p, d) == contained, (to_text(q), to_text(p))
        if contained:
            return True
    return False


def test_criterion_5_rewriting_completeness():
    with criterion(5, "300 ES instances: efficient matches the brute oracle"):
        mismatches = 0
        made = 0
        for q, views in es_rewrite_instances(811):
            made += 1
            out = rewrite_detailed(q, views, EFFICIENT)
            if (out.plan is not None) != _brute_rewriting_exists(q, views):
                mismatches += 1
                continue
            if out.plan is not None:
                for doc_seed in range(20):
                    t = generate_tree(
                        TreeGenConfig(
                            depth=6, fanout=3, labels=("a", "b", "c", "d"), seed=doc_seed
                        )
                    )
                    docs = materialize_all(views, t)
                    if eval_plan(out.plan.expr, docs) != eval_tree_pattern(q, t):
                        mismatches += 1
                        break
        assert made == 300 and mismatches == 0


# -- 6: termination bound ---------------------------------------------------------


def test_criterion_6_termination_bound():
    with criterion(6, "trace length <= |NODES|^2 + |predicates| corpus-wide"):
        # the corpus recorded by criterion 4 plus a fresh sweep
        assert TRACE_BOUND_LOG, "criterion 4 must run first"
        for nodes, preds, steps in TRACE_BOUND_LOG:
            assert steps <= nodes * nodes + preds
        for d in termination_sweep():
            preds = sum(len(d.pred_edges(n)) for n in d.mb_nodes())
            _, trace = apply_rules(d)
            assert len(trace) <= d.size() ** 2 + preds


# -- 7: scaling shape --------------------------------------------------------------


def test_criterion_7_scaling_shape():
    with criterion(7, "rewrite time ~linear in view-set size; plans beat direct eval"):
        sizes = [40, 80, 160, 320, 640]
        cases = {
            (vs, seed): generate_workload(
                GenConfig(seed=seed, main_branch_size=5, category="es", view_set_size=vs)
            )
            for vs in sizes
            for seed in (1, 2, 3)
        }
        # Repetitions go round-robin over all cases, so a drift in machine
        # speed during the run spreads over every view-set size.
        samples = {key: [] for key in cases}
        for _ in range(3):
            for key, (t, q, views) in cases.items():
                t0 = time.perf_counter()
                out = rewrite_detailed(q, views, EFFICIENT)
                samples[key].append(time.perf_counter() - t0)
                assert out.plan is not None
        medians = []
        for vs in sizes:
            times = []
            for seed in (1, 2, 3):
                case = statistics.median(samples[vs, seed])
                assert case < 5.0, f"case {vs}/{seed} took {case:.2f}s"
                times.append(case)
            medians.append(statistics.median(times))
        xs = [math.log(s) for s in sizes]
        ys = [math.log(m) for m in medians]
        mx, my = statistics.mean(xs), statistics.mean(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )
        assert slope <= 1.3, f"least-squares exponent {slope:.2f}"

        # selective-view workload: the materialized data (the nodes of the
        # fragment stores, each store counted once, plus every view's answer
        # ids) is >= 4x smaller than the document, and the rewritten plan
        # (including rewrite time) evaluates faster than the direct query
        t, q, views, plan = _selective_workload()
        docs = materialize_all(views, t)
        stores = {id(vd.tree): vd.tree for vd in docs.values()}
        view_bytes = sum(s.size() for s in stores.values()) + sum(
            len(vd.answer_roots) for vd in docs.values()
        )
        assert view_bytes * 4 <= t.size(), (view_bytes, t.size())

        def timed(fn, reps=5):
            best = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                best.append(time.perf_counter() - t0)
            return statistics.median(best)

        direct = timed(lambda: eval_tree_pattern(q, t))
        rewrite_time = timed(lambda: rewrite_detailed(q, views, EFFICIENT))
        plan_time = timed(lambda: eval_plan(plan.expr, docs))
        assert eval_plan(plan.expr, docs) == eval_tree_pattern(q, t)
        assert rewrite_time + plan_time < direct, (rewrite_time, plan_time, direct)


def _selective_workload():
    # one document, query labels shared with plenty of non-matching noise so
    # direct evaluation pays for the whole label class
    t_xml = XmlTree()
    root = t_xml.add_node("L", None)
    for blk in range(400):
        sec = t_xml.add_node("sec", root)
        if blk % 100 == 0:
            t_xml.add_node("mark", sec)
        for i in range(40):
            fig = t_xml.add_node("fig", sec)
            t_xml.add_node("leaf", fig)
    q = tree_from_text('doc("L")//sec[mark]//fig')
    views = ViewSet.from_texts(
        {
            "vsec": 'doc("L")//sec[mark]',
            "vfig": 'doc("L")//sec[mark]//fig',
        }
    )
    out = rewrite_detailed(q, views, EFFICIENT)
    assert out.plan is not None
    return t_xml, q, views, out.plan


# -- 8: minimal containment --------------------------------------------------------


def test_criterion_8_minimal_containment():
    with criterion(8, "candidate graph unfolds below every containing graph"):
        from xpviews.workload import _generalize
        from itertools import combinations

        rng = random.Random(42)
        instances = 0
        failures = 0
        while instances < 100:
            q = random_tree_pattern(rng, mb_len=rng.randint(2, 3), labels=("a", "b", "c"))
            views = ViewSet()
            for i in range(rng.randint(2, 3)):
                v = (
                    _generalize(rng, q)
                    if rng.random() < 0.7
                    else random_tree_pattern(rng, mb_len=rng.randint(1, 2), labels=("a", "b", "c"))
                ) or random_tree_pattern(rng, mb_len=1, labels=("a", "b", "c"))
                views.define(f"v{i}", v)
            cand = build_rewrite_candidate(q, views)
            if cand is None:
                continue
            u_cand = cand.unfold()
            if len(u_cand.mb_nodes()) > 10:
                continue
            names = list(views)
            sampled = []
            for r in range(1, len(names) + 1):
                for subset in combinations(names, r):
                    sub_views = ViewSet({n: views[n] for n in subset})
                    g = build_rewrite_candidate(q, sub_views)
                    if g is None:
                        continue
                    u = g.unfold()
                    # keep graphs that contain the query
                    if has_mapping(u, q, CONTAINMENT):
                        sampled.append(u)
            if not sampled:
                continue
            instances += 1
            for u in sampled:
                if not dag_contained_in_dag(u_cand, u):
                    failures += 1
                    break
        assert instances == 100 and failures == 0
