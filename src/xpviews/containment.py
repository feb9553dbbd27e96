"""Mappings between patterns, containment tests, minimization.

For the wildcard-free fragment, containment between tree patterns is
witnessed exactly by containment mappings; containment of a tree into a
DAG likewise.  Containment of a DAG into a tree goes through interleavings
and is exponential by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import CHILD
from .pattern import EMPTY, Pattern, canon_key

MAPPING = "mapping"
ROOT_MAPPING = "root-mapping"
CONTAINMENT = "containment-mapping"


@dataclass
class PatternMapping:
    source: Pattern
    target: Pattern
    table: dict[int, int]
    kind: str


def _pairs_compatible(src: Pattern, dst: Pattern, a: int, x: int) -> bool:
    if src.label(a) != dst.label(x):
        return False
    req = src.test(a)
    if req is not None and dst.test(x) != req:
        return False
    return True


def find_mapping(
    src: Pattern,
    dst: Pattern,
    kind: str = MAPPING,
    allowed: Optional[dict[int, frozenset[int]]] = None,
    fixed: Optional[dict[int, int]] = None,
) -> Optional[PatternMapping]:
    """Search for a mapping of ``src`` into ``dst``.

    Conditions: labels and tests preserved, /-edges to /-edges, //-edges to
    directed paths, main-branch nodes to main-branch nodes.  Root mappings
    pin the root, containment mappings also pin the output.  ``allowed``
    restricts node images; ``fixed`` forces them.
    """
    if src is EMPTY or dst is EMPTY:
        return None
    src_mbn = src.mb_nodes()
    dst_mbn = dst.mb_nodes()
    dst_nodes = sorted(dst.nodes)

    pin: dict[int, int] = dict(fixed or {})
    if kind in (ROOT_MAPPING, CONTAINMENT):
        pin[src.root] = dst.root
    if kind == CONTAINMENT:
        if src.out in pin and pin[src.out] != dst.out:
            return None
        pin[src.out] = dst.out

    # Bottom-up feasibility sets (exact on tree-shaped sources, a sound
    # pruner on DAG sources).
    order = src.topo_order()
    cand: dict[int, list[int]] = {}
    for a in reversed(order):
        pool = []
        for x in dst_nodes:
            if not _pairs_compatible(src, dst, a, x):
                continue
            if a in src_mbn and x not in dst_mbn:
                continue
            if allowed is not None and a in allowed and x not in allowed[a]:
                continue
            if a in pin and x != pin[a]:
                continue
            ok = True
            for b, k in src.out_edges(a):
                if k == CHILD:
                    succ = {y for y, kk in dst.out_edges(x) if kk == CHILD}
                else:
                    succ = dst.descendants(x)
                if not succ.intersection(cand[b]):
                    ok = False
                    break
            if ok:
                pool.append(x)
        if not pool:
            return None
        cand[a] = pool

    assign: dict[int, int] = {}

    def consistent(a: int, x: int) -> bool:
        for pa, k in src.in_edges(a):
            if pa in assign:
                if k == CHILD:
                    if (assign[pa], x, CHILD) not in dst.edges:
                        return False
                else:
                    if not dst.reaches(assign[pa], x):
                        return False
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return True
        a = order[i]
        for x in cand[a]:
            if consistent(a, x):
                assign[a] = x
                if search(i + 1):
                    return True
                del assign[a]
        return False

    if not search(0):
        return None
    return PatternMapping(src, dst, dict(assign), kind)


def root_mapping_out_images(src: Pattern, dst: Pattern) -> list[int]:
    """All possible images of OUT(src) under root-mappings into ``dst``."""
    images = []
    for x in sorted(dst.mb_nodes()):
        if find_mapping(src, dst, ROOT_MAPPING, fixed={src.out: x}) is not None:
            images.append(x)
    return images


def tree_contains(p1: Pattern, p2: Pattern) -> bool:
    """p2 ⊑ p1 for tree patterns (containment-mapping criterion)."""
    if p2 is EMPTY:
        return True
    if p1 is EMPTY:
        return False
    return find_mapping(p1, p2, CONTAINMENT) is not None


def tree_contained_in_dag(p: Pattern, d) -> bool:
    """p ⊑ d: a containment mapping from the DAG into the tree decides it."""
    if p is EMPTY:
        return True
    if d is EMPTY:
        return False
    return find_mapping(d, p, CONTAINMENT) is not None


def dag_contained_in_tree(d, p: Pattern) -> bool:
    """d ⊑ p: every interleaving of ``d`` is contained in ``p``."""
    from .interleaving import interleavings

    if d is EMPTY:
        return True
    for i in interleavings(d):
        if not tree_contains(p, i.pattern):
            return False
    return True


def dag_contained_in_dag(d1, d2) -> bool:
    """d1 ⊑ d2 via interleavings of the left side."""
    from .interleaving import interleavings

    if d1 is EMPTY:
        return True
    if d2 is EMPTY:
        return False
    for i in interleavings(d1):
        if find_mapping(d2, i.pattern, CONTAINMENT) is None:
            return False
    return True


def contains_by_canonical_model(p1: Pattern, p2: Pattern) -> bool:
    """Containment oracle: evaluate p1 on the canonical model of p2."""
    from .documents import canonical_model_with_output, eval_tree_pattern

    t, out_img = canonical_model_with_output(p2)
    return out_img in eval_tree_pattern(p1, t)


def _subtree_sizes(p: Pattern) -> dict[int, int]:
    sizes: dict[int, int] = {}
    for n in reversed(p.topo_order()):
        sizes[n] = 1 + sum(sizes[b] for b, _ in p.out_edges(n))
    return sizes


def minimize(p: Pattern) -> Pattern:
    """Drop redundant predicate subtrees until none can be removed.

    Candidates are tried largest-first, restarting after each drop;
    the result for wildcard-free patterns is order-independent.
    """
    if p is EMPTY:
        return EMPTY
    cur = p
    while True:
        mbn = cur.mb_nodes()
        sizes = _subtree_sizes(cur)
        cands = sorted(
            (n for n in cur.nodes if n not in mbn),
            key=lambda n: (-sizes[n], n),
        )
        for n in cands:
            trial = cur.clone()
            trial.remove_nodes(cur.descendants(n) | {n})
            # dropping predicates only enlarges; equality needs trial ⊑ cur
            if find_mapping(cur, trial, CONTAINMENT) is not None:
                cur = trial
                break
        else:
            return cur


def equivalent(p1: Pattern, p2: Pattern) -> bool:
    """Tree-pattern equivalence: isomorphic after minimization."""
    if p1 is EMPTY or p2 is EMPTY:
        return (p1 is EMPTY) == (p2 is EMPTY)
    if p1.is_tree() and p2.is_tree():
        return canon_key(minimize(p1)) == canon_key(minimize(p2))
    return dag_contained_in_dag(p1, p2) and dag_contained_in_dag(p2, p1)
