"""Mappings between patterns, containment tests, minimization.

For the wildcard-free fragment, containment between tree patterns is
witnessed exactly by containment mappings; containment of a tree into a
DAG likewise.  Whether a mapping exists is decided without search: by
bottom-up feasibility sets for a tree source, and for a DAG source (into a
tree) by arc consistency over those sets along the source's main branch.
Containment of a DAG into a tree goes through interleavings and is
exponential by design; ``rewrite.contains``, the one containment
decision, calls it only when the rule fixpoint stays a DAG.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .syntax import CHILD
from .pattern import EMPTY, Pattern

MAPPING = "mapping"
ROOT_MAPPING = "root-mapping"
CONTAINMENT = "containment-mapping"


def _edge_ok(dst: Pattern, x: int, k: str, targets: set[int]) -> bool:
    """Whether an edge of kind ``k`` from ``x`` can end in ``targets``."""
    if k == CHILD:
        return any(y in targets for y, kk in dst.out_edges(x) if kk == CHILD)
    return not dst.descendants(x).isdisjoint(targets)


def _linked(dst: Pattern):
    """``related(x, y, k)`` for images in ``dst``: a source edge of kind
    ``k`` needs a /-edge of ``dst`` from ``x`` to ``y``, or any path."""
    return lambda x, y, k: (x, y, CHILD) in dst.edges if k == CHILD else dst.reaches(x, y)


def _candidates(
    src: Pattern,
    dst: Pattern,
    pin: dict[int, int],
    allowed: Optional[dict[int, frozenset[int]]] = None,
) -> Optional[dict[int, set[int]]]:
    """Bottom-up feasibility sets: the images of each source node under
    which its descendants map.  Exact on tree-shaped sources and on
    predicate subtrees, which have one parent per node; a sound pruner on
    the main branch of a DAG source.  None when some node has no image."""
    src_mbn = src.mb_nodes()
    dst_mbn = dst.mb_nodes()
    cand: dict[int, set[int]] = {}
    for a in reversed(src.topo_order()):
        req = src.test(a)
        on_mb = a in src_mbn
        pool = {
            x
            for x in dst.label_index().get(src.label(a), ())
            if (req is None or dst.test(x) == req)
            and (not on_mb or x in dst_mbn)
            and (allowed is None or a not in allowed or x in allowed[a])
            and (a not in pin or x == pin[a])
            and all(_edge_ok(dst, x, k, cand[b]) for b, k in src.out_edges(a))
        }
        if not pool:
            return None
        cand[a] = pool
    return cand


def _arc_consistent(p: Pattern, dom: dict[int, set[int]], related) -> bool:
    """Narrow ``dom``, the images of ``p``'s main-branch nodes, until every
    image has a partner at the other end of each main-branch edge; False as
    soon as some node has no image left.  ``related(x, y, k)`` says whether
    images ``x`` and ``y`` fit an edge of kind ``k``.

    When the images lie on one chain (the main branch of a tree target, or
    a root path of a document), / ("next position") and // ("any later
    position") are min-closed, so the narrowed sets hold a mapping: each
    node's image nearest the root (Jeavons and Cooper, "Tractable
    constraints on ordered domains", AI 1995).  On a tree-shaped ``p``
    every image left is that node's image under some mapping, whatever
    the target.
    """
    mbn = p.mb_nodes()
    if not all(dom[n] for n in mbn):
        return False
    edges = sorted(e for e in p.edges if e[0] in mbn and e[1] in mbn)
    todo, queued = deque(edges), set(edges)
    while todo:
        e = todo.popleft()
        queued.discard(e)
        a, b, k = e
        xs = {x for x in dom[a] if any(related(x, y, k) for y in dom[b])}
        ys = {y for y in dom[b] if any(related(x, y, k) for x in xs)}
        for n, kept in ((a, xs), (b, ys)):
            if len(kept) < len(dom[n]):
                if not kept:
                    return False
                dom[n] = kept
                again = [f for f in edges if n in f[:2] and f != e and f not in queued]
                queued.update(again)
                todo.extend(again)
    return True


def has_mapping(
    src: Pattern,
    dst: Pattern,
    kind: str = MAPPING,
    allowed: Optional[dict[int, frozenset[int]]] = None,
) -> bool:
    """Whether ``src`` maps into ``dst``.

    Conditions: labels and tests preserved, /-edges to /-edges, //-edges to
    directed paths, main-branch nodes to main-branch nodes.  Root mappings
    pin the root, containment mappings also pin the output.  ``allowed``
    restricts node images.  The bottom-up sets decide a tree-shaped
    source; a DAG source needs a tree target, whose main branch is a chain,
    and arc consistency across the source's main branch decides it.
    """
    if src is EMPTY or dst is EMPTY:
        return False
    if not (src.is_tree() or dst.is_tree()):
        raise ValueError("has_mapping needs a tree-shaped source or target")
    pin: dict[int, int] = {}
    if kind in (ROOT_MAPPING, CONTAINMENT):
        pin[src.root] = dst.root
    if kind == CONTAINMENT:
        if src.out in pin and pin[src.out] != dst.out:
            return False
        pin[src.out] = dst.out
    cand = _candidates(src, dst, pin, allowed)
    return cand is not None and (src.is_tree() or _arc_consistent(src, cand, _linked(dst)))


def root_mapping_out_images(src: Pattern, dst: Pattern) -> list[int]:
    """All images of OUT(src) under root-mappings into ``dst``, ascending:
    the output's set once the bottom-up sets are narrowed across the main
    branch.  Exact because the source is a tree."""
    if src is EMPTY or dst is EMPTY:
        return []
    if not src.is_tree():
        raise ValueError("root_mapping_out_images needs a tree-shaped source")
    cand = _candidates(src, dst, {src.root: dst.root})
    if cand is None or not _arc_consistent(src, cand, _linked(dst)):
        return []
    return sorted(cand[src.out])


def tree_contains(p1: Pattern, p2: Pattern) -> bool:
    """p2 ⊑ p1 for a tree ``p2``, by one containment mapping from ``p1``,
    which may be a tree, a DAG or EMPTY."""
    if p2 is EMPTY:
        return True
    if p1 is EMPTY:
        return False
    return has_mapping(p1, p2, CONTAINMENT)


def dag_contained_in_tree(d, p: Pattern) -> bool:
    """d ⊑ p: every interleaving of ``d`` is contained in ``p``, which may
    be a tree, a DAG or EMPTY."""
    from .interleaving import interleavings

    if d is EMPTY:
        return True
    for i in interleavings(d):
        if not tree_contains(p, i.pattern):
            return False
    return True


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
            if has_mapping(cur, trial, CONTAINMENT):
                cur = trial
                break
        else:
            return cur
