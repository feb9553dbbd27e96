"""The rules-first containment decision for unfoldings.

``contains`` normalizes a DAG with the rules and enumerates
interleavings only when the fixpoint stays a DAG.  These tests hold it to
plain interleaving enumeration (``dag_contained_in_tree`` on the raw DAG)
and pin the time it takes on workloads that enumeration cannot finish.
"""

import time

from xpviews import (
    EMPTY,
    GenConfig,
    apply_rules,
    build_rewrite_candidate,
    contains,
    dag_contained_in_tree,
    eval_plan,
    eval_tree_pattern,
    generate_workload,
    materialize_all,
    nested_rewrite,
)

from conftest import alarm, random_dag_corpus


def _agree(cases) -> tuple[int, int]:
    """Compare on every (DAG, trees) case: (comparisons, DAGs whose
    fixpoint stays a DAG, so that the decision enumerates interleavings)."""
    seen = fallbacks = 0
    for d, trees in cases:
        for p in trees:
            assert contains(p, d) == dag_contained_in_tree(d, p)
            seen += 1
        f = apply_rules(d)[0]
        fallbacks += f is not EMPTY and not f.is_tree()
    return seen, fallbacks


def _generated_candidates():
    for seed in range(1, 11):
        for category in ("es", "slashslash", "full"):
            _, q, views = generate_workload(
                GenConfig(seed=seed, category=category, main_branch_size=4)
            )
            cand = build_rewrite_candidate(q, views)
            if cand is not None:
                yield cand.unfold(), [q]


def _corpus_cases():
    # each DAG against the branches it intersects (contained) and against
    # the previous DAG's branches (mostly not)
    previous = []
    for _, d, parts in random_dag_corpus(20240811, 500):
        yield d, parts + previous
        previous = parts


def test_rules_first_agrees_with_interleavings():
    seen, _ = _agree(_generated_candidates())
    assert seen >= 25
    seen, fallbacks = _agree(_corpus_cases())
    assert seen > 2000
    # 65 of the 500 DAGs keep a DAG fixpoint
    assert fallbacks > 0
    # the random instances of the rewriting-completeness criterion are
    # compared inside its brute oracle, which enumerates their
    # interleavings anyway (one of them takes about 26 s)


def test_nested_rewrite_finishes_where_interleavings_do_not():
    # interleaving enumeration over these unfoldings runs for minutes
    for cfg in (GenConfig(seed=9, category="es"), GenConfig(seed=5, main_branch_size=5)):
        doc, q, views = generate_workload(cfg)
        with alarm(30):
            t0 = time.perf_counter()
            graph = nested_rewrite(q, views)
            elapsed = time.perf_counter() - t0
        assert graph is not None
        assert elapsed < 2.0, f"nested_rewrite took {elapsed:.2f} s on {cfg}"
        docs = materialize_all(views, doc)
        assert eval_plan(graph.to_expr(), docs) == eval_tree_pattern(q, doc)
