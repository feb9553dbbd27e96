import pytest

from xpviews import (
    EFFICIENT,
    GenConfig,
    ViewSet,
    bench,
    classify,
    equivalent,
    eval_tree_pattern,
    generate_workload,
    rewrite_detailed,
    to_text,
    tree_contains,
)
from xpviews.containment import ROOT_MAPPING, has_mapping
from xpviews.fragments import FragmentClass
from xpviews.pattern import lossless_prefixes
from xpviews.workload import CATEGORIES, GenerationTimeout


def test_determinism_per_seed():
    cfg = GenConfig(seed=5, main_branch_size=5, category="es", view_set_size=40)
    t1, q1, v1 = generate_workload(cfg)
    t2, q2, v2 = generate_workload(cfg)
    assert to_text(q1) == to_text(q2)
    assert [(n, to_text(v)) for n, v in v1.items()] == [
        (n, to_text(v)) for n, v in v2.items()
    ]


def test_useful_ratio_and_counts():
    cfg = GenConfig(seed=1, main_branch_size=5, category="es", view_set_size=40)
    _, _, views = generate_workload(cfg)
    useful = [n for n in views if n.startswith("u")]
    useless = [n for n in views if n.startswith("x")]
    assert len(useful) == 4 and len(useless) == 36


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        GenConfig(useful_ratio=0.0)
    with pytest.raises(ValueError):
        GenConfig(category="nope")


def test_workload_constraints_hold():
    cfg = GenConfig(seed=2, main_branch_size=5, category="es", view_set_size=40)
    t, q, views = generate_workload(cfg)
    assert classify(q) is CATEGORIES["es"]
    assert eval_tree_pattern(q, t), "query must be non-empty on the document"
    prefixes = lossless_prefixes(q)
    for name, v in views.items():
        if name.startswith("x"):
            assert not has_mapping(v, q, ROOT_MAPPING)
        else:
            assert has_mapping(v, q, ROOT_MAPPING)
            assert not any(equivalent(v, p) for p in prefixes)
            single = rewrite_detailed(q, ViewSet({name: v}), EFFICIENT)
            assert single.plan is None
    # jointly, the useful views admit a rewriting
    out = rewrite_detailed(q, views, EFFICIENT)
    assert out.plan is not None


def test_categories_generate():
    for cat in ("es", "slashslash", "full"):
        cfg = GenConfig(seed=3, main_branch_size=5, category=cat, view_set_size=40)
        _, q, _ = generate_workload(cfg)
        assert classify(q) is CATEGORIES[cat]


def test_useless_only_workload_reports_no_rewriting():
    cfg = GenConfig(seed=4, main_branch_size=5, category="es", view_set_size=40)
    t, q, views = generate_workload(cfg)
    stripped = ViewSet({n: v for n, v in views.items() if n.startswith("x")})
    out = rewrite_detailed(q, stripped, EFFICIENT)
    assert out.plan is None
    assert out.timings["rewriteMs"] >= 0


def test_bench_report_shape():
    rep = bench(
        GenConfig(seed=6, main_branch_size=5, category="es", view_set_size=40),
        warmup=1,
        reps=3,
    )
    d = rep.as_dict()
    assert d["status"] == "rewritten"
    assert d["rewriteTimeMs"] >= 0 and d["planEvalTimeMs"] >= 0
    assert d["directEvalTimeMs"] >= 0
    assert d["viewSetSize"] == 40
    counters = ("candidatesExamined", "viewsMapped", "viewsRootMapped", "pairsSeen", "pairsKept",
                "leastPairRetries", "witnessRefutations", "interleavingFallbacks")
    assert all(d[k] >= 0 for k in counters) and d["candidatesExamined"] >= 1
    assert d["viewsRootMapped"] <= d["viewsMapped"]
