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
from .pattern import EMPTY, Pattern, canon_key, main_branch

MAPPING = "mapping"
ROOT_MAPPING = "root-mapping"
CONTAINMENT = "containment-mapping"


@dataclass
class PatternMapping:
    source: Pattern
    target: Pattern
    table: dict[int, int]
    kind: str


def _edge_ok(dst: Pattern, x: int, k: str, targets) -> bool:
    """Whether an edge of kind ``k`` from ``x`` can end in ``targets``."""
    if k == CHILD:
        return any(y in targets for y, kk in dst.out_edges(x) if kk == CHILD)
    return not dst.descendants(x).isdisjoint(targets)


def _candidates(
    src: Pattern,
    dst: Pattern,
    pin: dict[int, int],
    allowed: Optional[dict[int, frozenset[int]]] = None,
) -> Optional[dict[int, list[int]]]:
    """Bottom-up feasibility sets, each in ``dst`` id order: exact on
    tree-shaped sources, a sound pruner on DAG sources.  None when some
    node has no image."""
    src_mbn = src.mb_nodes()
    dst_mbn = dst.mb_nodes()
    cand: dict[int, list[int]] = {}
    for a in reversed(src.topo_order()):
        req = src.test(a)
        on_mb = a in src_mbn
        pool = [
            x
            for x in dst.label_index().get(src.label(a), ())
            if (req is None or dst.test(x) == req)
            and (not on_mb or x in dst_mbn)
            and (allowed is None or a not in allowed or x in allowed[a])
            and (a not in pin or x == pin[a])
            and all(_edge_ok(dst, x, k, cand[b]) for b, k in src.out_edges(a))
        ]
        if not pool:
            return None
        cand[a] = pool
    return cand


def find_mapping(
    src: Pattern,
    dst: Pattern,
    kind: str = MAPPING,
    allowed: Optional[dict[int, frozenset[int]]] = None,
) -> Optional[PatternMapping]:
    """Search for a mapping of ``src`` into ``dst``.

    Conditions: labels and tests preserved, /-edges to /-edges, //-edges to
    directed paths, main-branch nodes to main-branch nodes.  Root mappings
    pin the root, containment mappings also pin the output.  ``allowed``
    restricts node images.
    """
    if src is EMPTY or dst is EMPTY:
        return None
    pin: dict[int, int] = {}
    if kind in (ROOT_MAPPING, CONTAINMENT):
        pin[src.root] = dst.root
    if kind == CONTAINMENT:
        if src.out in pin and pin[src.out] != dst.out:
            return None
        pin[src.out] = dst.out
    cand = _candidates(src, dst, pin, allowed)
    if cand is None:
        return None
    order = src.topo_order()
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
    """All images of OUT(src) under root-mappings into ``dst``, ascending.

    The bottom-up feasibility sets, then one top-down pass along the
    source's main branch that keeps the images reachable from the pinned
    root.  Both are exact because the source is a tree: its subtrees share
    no nodes, so their images are independent.
    """
    if src is EMPTY or dst is EMPTY:
        return []
    if not src.is_tree():
        raise ValueError("root_mapping_out_images needs a tree-shaped source")
    cand = _candidates(src, dst, {src.root: dst.root})
    if cand is None:
        return []
    here = set(cand[src.root])
    mb = main_branch(src)
    for a, b in zip(mb, mb[1:]):
        if src.axis(a, b) == CHILD:
            here = {y for y in cand[b] if any((x, y, CHILD) in dst.edges for x in here)}
        else:
            here = {y for y in cand[b] if any(dst.reaches(x, y) for x in here)}
    return sorted(here)


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
    from .interleaving import interleavings, is_satisfiable

    if d1 is EMPTY:
        return True
    if d2 is EMPTY:
        return not is_satisfiable(d1)
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
    if p1 is not EMPTY and p2 is not EMPTY and p1.is_tree() and p2.is_tree():
        return canon_key(minimize(p1)) == canon_key(minimize(p2))
    return dag_contained_in_dag(p1, p2) and dag_contained_in_dag(p2, p1)
