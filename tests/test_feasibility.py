"""The set-at-a-time feasibility pass against per-node oracles.

``containment._feasible`` narrows every node's images with whole-set axis
steps (``Pattern.up``/``under``, ``XmlTree.up``/``under``).  Here its
candidate sets, and the domains that ``_arc_consistent`` narrows from
them, must equal the ones decided one node or one pair of nodes at a time
(``tests/conftest.py``), for tree and DAG sources into tree and DAG
targets and for patterns into documents.
"""

from __future__ import annotations

import random
import time

from xpviews import EMPTY, GenConfig, equivalent, generate_workload, tree_contains, tree_from_text
from xpviews.containment import _arc_consistent, _candidates
from xpviews.documents import TreeGenConfig, _candidate_sets, _root_path, generate_tree
from xpviews.pattern import PNode, subpattern_at

from conftest import (
    arc_consistent_by_pairs,
    candidates_by_node,
    doc_candidates_by_node,
    doc_related,
    linked,
    random_dag_corpus,
    random_mb_dag,
    random_tree_pattern,
)


def _pins(src, dst):
    yield {}
    yield {src.root: dst.root}
    if src.out != src.root or dst.out == dst.root:
        yield {src.root: dst.root, src.out: dst.out}


def _narrowed(p, cand, target, related):
    """The main-branch domains of ``p`` after arc consistency, by the
    library and by the pairwise oracle, with the two verdicts."""
    mine = {n: set(cand[n]) for n in p.mb_nodes()}
    pairs = {n: set(cand[n]) for n in p.mb_nodes()}
    return (_arc_consistent(p, mine, target), mine), (arc_consistent_by_pairs(p, pairs, related), pairs)


def _check_patterns(src, dst, tally, rng=None):
    """Candidate sets and narrowed domains of ``src`` in ``dst`` agree
    with the oracles under every pin, and under a random ``allowed``."""
    if src is EMPTY or dst is EMPTY:
        return
    allowed = [None]
    if rng is not None:
        a = rng.choice(sorted(src.mb_nodes()))
        allowed.append({a: frozenset(x for x in dst.nodes if rng.random() < 0.6)})
    for pin in _pins(src, dst):
        for allow in allowed:
            got = _candidates(src, dst, pin, allow)
            assert got == candidates_by_node(src, dst, pin, allow), (src, dst, pin, allow)
            if got is None:
                continue
            tally["candidates"] += 1
            mine, pairs = _narrowed(src, got, dst, linked(dst))
            assert mine == pairs, (src, dst, pin, allow)
            tally["narrowed"] += mine[1] != {n: set(got[n]) for n in src.mb_nodes()}


def _check_document(p, t, tally, rng):
    """Candidate sets of ``p`` from the document root and from random
    start nodes, and the domains narrowed per output image as
    ``eval_dag_pattern`` does, agree with the oracles."""
    if p is EMPTY:
        return
    starts = {x for x in t.labels if rng.random() < 0.2} | {t.root}
    for roots in ({t.root}, starts):
        got = _candidate_sets(p, t, roots)
        assert got == doc_candidates_by_node(p, t, roots), (p, roots)
    cand = _candidate_sets(p, t, {t.root})
    if cand is None:
        return
    tally["doc candidates"] += 1
    for img in sorted(cand[p.out]):
        path = set(_root_path(t, img))
        cut = {n: cand[n] & path for n in p.nodes}
        cut[p.out] = {img}
        mine, pairs = _narrowed(p, cut, t, doc_related(t))
        assert mine == pairs, (p, img)
        tally["doc narrowed"] += mine[1] != {n: cut[n] for n in p.mb_nodes()}


def _with_tests(rng, p):
    """``p`` with text tests on some of its predicate nodes."""
    mbn = p.mb_nodes()
    for n in sorted(p.nodes):
        if n not in mbn and rng.random() < 0.4:
            p.nodes[n] = PNode(p.label(n), rng.choice(("x", "y")))
    p._dirty()
    return p


def _documents():
    labels, texts = ("a", "b", "c"), ("", "x", "y")
    return [
        generate_tree(TreeGenConfig(depth=4, fanout=3, labels=labels, seed=s, text_values=texts))
        for s in range(3)
    ]


def test_feasibility_matches_per_node_oracle_on_the_dag_corpus():
    """Criterion 4's corpus: its DAGs, their branches and the subpatterns
    at their main-branch nodes, into one another and into documents."""
    tally = {"candidates": 0, "narrowed": 0, "doc candidates": 0, "doc narrowed": 0}
    rng = random.Random(4)
    docs = _documents()
    for i, (_, d, parts) in enumerate(random_dag_corpus(20240811, 500)):
        subs = [subpattern_at(d, n) for n in sorted(d.mb_nodes())]
        _check_patterns(d, d, tally, rng)
        for part in parts:
            _check_patterns(part, d, tally, rng)
            _check_patterns(d, part, tally, rng)
            _check_patterns(part, parts[0], tally)
        for sub in subs:
            _check_patterns(sub, d, tally)
            _check_patterns(sub, parts[-1], tally)
        _check_document(d, docs[i % len(docs)], tally, rng)
        _check_document(parts[0], docs[i % len(docs)], tally, rng)
    assert min(tally.values()) > 20, tally


def test_feasibility_matches_per_node_oracle_on_generated_workloads():
    """``generate_workload`` seeds 1-10 in each category: every view into
    the query and back, and the query and its views into the document."""
    tally = {"candidates": 0, "narrowed": 0, "doc candidates": 0, "doc narrowed": 0}
    rng = random.Random(10)
    for seed in range(1, 11):
        for category in ("es", "slashslash", "full"):
            t, q, views = generate_workload(GenConfig(seed=seed, category=category, view_set_size=10))
            _check_patterns(q, q, tally, rng)
            _check_document(q, t, tally, rng)
            for _, v in views.items():
                _check_patterns(v, q, tally, rng)
                _check_patterns(q, v, tally)
                _check_document(v, t, tally, rng)
    assert min(tally.values()) > 20, tally


def test_feasibility_matches_per_node_oracle_on_random_patterns():
    """Random trees and DAGs with //-edges and text tests, into one
    another and into documents with texts."""
    tally = {"candidates": 0, "narrowed": 0, "doc candidates": 0, "doc narrowed": 0}
    rng = random.Random(25)
    docs = _documents()
    for i in range(300):
        trees = [
            _with_tests(rng, random_tree_pattern(rng, mb_len=rng.randint(1, 4), dd_prob=0.6))
            for _ in range(2)
        ]
        dag = _with_tests(rng, random_mb_dag(rng, mb_len=rng.randint(2, 4), labels=("a", "b", "c")))
        dag.nodes[dag.root] = PNode("L")
        dag._dirty()
        for src in trees + [dag]:
            for dst in trees + [dag]:
                _check_patterns(src, dst, tally, rng)
            _check_document(src, docs[i % len(docs)], tally, rng)
    assert min(tally.values()) > 20, tally


def test_containment_on_a_long_predicate_chain_is_not_quadratic():
    """``doc("L")/a[b/.../b]`` with 2,000 ``b``s, contained in a copy of
    itself.  Testing every ``b`` image on its own against its child's
    candidates took about 6 s for ``tree_contains`` and 12 s for
    ``equivalent`` (2-vCPU machine); one set step per edge takes well
    under a second."""
    p = tree_from_text('doc("L")/a[' + "/".join(["b"] * 2000) + "]")
    for decide in (tree_contains, equivalent):
        start = time.perf_counter()
        assert decide(p, p.clone())
        took = time.perf_counter() - start
        assert took < 3.0, f"{decide.__name__} took {took:.2f} s"
