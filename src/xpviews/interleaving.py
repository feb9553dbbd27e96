"""Interleavings of DAG patterns.

An interleaving linearizes the main-branch nodes onto a single code,
collapsing nodes that share a position and copying predicate subtrees to
the images.  A DAG pattern is equivalent to the union of its
interleavings; it is union-free when one interleaving contains all
others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .syntax import CHILD, DESC
from .pattern import EMPTY, CapExceeded, Pattern, _copy_into, _subtree, canon_key

DEFAULT_CAP = 10**6


@dataclass
class Interleaving:
    code: str
    positions: dict[int, int]  # main-branch node -> code position
    pattern: Pattern


def _mb_adj(d: Pattern):
    mbn = sorted(d.mb_nodes())
    kids = {n: [] for n in mbn}
    pars = {n: [] for n in mbn}
    for n in mbn:
        for b, k in d.mb_out_edges(n):
            kids[n].append((b, k))
            pars[b].append((n, k))
    return mbn, kids, pars


def _placements(d: Pattern) -> Iterator[dict[int, int]]:
    """Enumerate total onto placements of MBN(d) onto code positions."""
    mbn, kids, pars = _mb_adj(d)
    total = len(mbn)
    pos: dict[int, int] = {}

    def available(k: int) -> tuple[Optional[list[int]], list[int]]:
        """Forced nodes at position k and optional //-hanging candidates."""
        prev = [n for n, p in pos.items() if p == k - 1]
        forced: list[int] = []
        for n in prev:
            for b, kk in kids[n]:
                if kk == CHILD and b not in pos:
                    forced.append(b)
        forced = sorted(set(forced))
        # a forced node must have *all* its /-parents at k-1
        for b in forced:
            for a, kk in pars[b]:
                if kk == CHILD and pos.get(a) != k - 1:
                    return None, []
                if kk == DESC and (a not in pos or pos[a] > k - 1):
                    return None, []
        if forced:
            labels = {d.label(b) for b in forced}
            if len(labels) > 1:
                return None, []
        opts = []
        for n in mbn:
            if n in pos or n in forced:
                continue
            ok = True
            has_slash_parent = False
            for a, kk in pars[n]:
                if kk == CHILD:
                    has_slash_parent = True
                    break
                if a not in pos or pos[a] > k - 1:
                    ok = False
                    break
            if ok and not has_slash_parent and pars[n]:
                opts.append(n)
        return forced, sorted(opts)

    def rec(k: int) -> Iterator[dict[int, int]]:
        if len(pos) == total:
            yield dict(pos)
            return
        forced, opts = available(k)
        if forced is None:
            return
        label = d.label(forced[0]) if forced else None
        if label is not None:
            opts = [o for o in opts if d.label(o) == label]
            # enumerate subsets of compatible optionals to co-collapse
            for subset in _subsets(opts):
                chosen = forced + list(subset)
                yield from _place(chosen, k)
        else:
            # no forced node: pick a label group and a nonempty subset
            by_label: dict[str, list[int]] = {}
            for o in opts:
                by_label.setdefault(d.label(o), []).append(o)
            for lab in sorted(by_label):
                group = by_label[lab]
                for subset in _subsets(group):
                    if subset:
                        yield from _place(list(subset), k)

    def _place(chosen: list[int], k: int) -> Iterator[dict[int, int]]:
        # the output node sits on the last position: everything else first
        if d.out in chosen and len(pos) + len(chosen) != total:
            return
        for n in chosen:
            pos[n] = k
        yield from rec(k + 1)
        for n in chosen:
            del pos[n]

    def _subsets(items: list[int]) -> Iterator[tuple[int, ...]]:
        n = len(items)
        for mask in range(1 << n):
            yield tuple(items[i] for i in range(n) if mask & (1 << i))

    if not mbn:
        return
    # root is always alone at position 0
    pos[d.root] = 0
    yield from rec(1)


def _build(d: Pattern, placement: dict[int, int]) -> Interleaving:
    total = max(placement.values()) + 1
    groups: dict[int, list[int]] = {}
    for n, p in placement.items():
        groups.setdefault(p, []).append(n)
    slash_junction = set()
    for n in placement:
        for b, k in d.mb_out_edges(n):
            if k == CHILD:
                slash_junction.add(placement[n])
    p = Pattern()
    spine: list[int] = []
    for k in range(total):
        members = groups[k]
        nid = p.add_node(d.label(members[0]))
        spine.append(nid)
        if k:
            axis = CHILD if (k - 1) in slash_junction else DESC
            p.add_edge(spine[k - 1], nid, axis)
        seen = set()
        for m in sorted(members):
            for b, kk in d.pred_edges(m):
                key = (kk, canon_key(d, b))
                if key in seen:
                    continue
                seen.add(key)
                p.add_edge(nid, _copy_into(p, d, _subtree(d, b))[b], kk)
    p.root = spine[0]
    p.out = spine[placement[d.out]]
    code = "".join(
        ("" if k == 0 else (CHILD if (k - 1) in slash_junction else DESC))
        + d.label(groups[k][0])
        for k in range(total)
    )
    remap = {n: placement[n] for n in placement}
    return Interleaving(code, remap, p)


def interleavings(d, cap: int = DEFAULT_CAP) -> Iterator[Interleaving]:
    """All interleavings of ``d``, deduplicated up to pattern isomorphism.

    ``cap`` bounds the placements built, duplicates included, since those
    are the work done."""
    if d is EMPTY:
        return
    seen = set()
    for count, placement in enumerate(_placements(d), 1):
        if count > cap:
            raise CapExceeded(f"more than {cap} interleaving placements")
        il = _build(d, placement)
        key = canon_key(il.pattern)
        if key in seen:
            continue
        seen.add(key)
        yield il


def first_interleaving(d) -> Optional[Interleaving]:
    for il in interleavings(d):
        return il
    return None


# ---------------------------------------------------------------------------
# satisfiability


def _slash_components(d: Pattern):
    """Union-find with offsets over main-branch /-edges.

    Returns (cell map node -> (comp, offset), conflict flag).  A conflict
    is an inconsistent offset or two differently-labeled nodes forced onto
    one cell.
    """
    mbn = sorted(d.mb_nodes())
    parent = {n: n for n in mbn}
    offset = {n: 0 for n in mbn}  # offset to the component representative

    def find(n: int) -> tuple[int, int]:
        if parent[n] == n:
            return n, 0
        r, off = find(parent[n])
        parent[n] = r
        offset[n] += off
        return r, offset[n]

    for n in mbn:
        for b, k in d.mb_out_edges(n):
            if k != CHILD:
                continue
            ra, oa = find(n)
            rb, ob = find(b)
            if ra == rb:
                if ob != oa + 1:
                    return None
            else:
                parent[rb] = ra
                offset[rb] = oa + 1 - ob
    cells: dict[int, tuple[int, int]] = {}
    labels: dict[tuple[int, int], str] = {}
    for n in mbn:
        r, off = find(n)
        cells[n] = (r, off)
        prev = labels.get((r, off))
        if prev is not None and prev != d.label(n):
            return None
        labels[(r, off)] = d.label(n)
    return cells


def quick_satisfiability(d) -> Optional[bool]:
    """Polynomial-time screen: False when provably unsatisfiable, True when
    the greedy placement is clash-free, None when inconclusive."""
    if d is EMPTY:
        return False
    cells = _slash_components(d)
    if cells is None:
        return False
    comps = sorted({c for c, _ in cells.values()})
    # difference constraints between component bases from //-edges
    arcs: list[tuple[int, int, int]] = []
    for n in sorted(d.mb_nodes()):
        cn, on = cells[n]
        for b, k in d.mb_out_edges(n):
            if k != DESC:
                continue
            cb, ob = cells[b]
            arcs.append((cn, cb, on + 1 - ob))
    base = {c: None for c in comps}
    root_comp = cells[d.root][0]
    base[root_comp] = -cells[d.root][1]
    # Bellman-Ford longest paths from the root component
    for it in range(len(comps) + 1):
        changed = False
        for (u, v, w) in arcs:
            if base[u] is None:
                continue
            cand = base[u] + w
            if base[v] is None or cand > base[v]:
                base[v] = cand
                changed = True
        if not changed:
            break
    else:
        return False  # positive cycle: infeasible
    taken: dict[tuple[int, str], str] = {}
    positions: dict[int, str] = {}
    for n in sorted(d.mb_nodes()):
        c, off = cells[n]
        if base[c] is None:
            base[c] = 0
        pos = base[c] + off
        lab = positions.get(pos)
        if lab is None:
            positions[pos] = d.label(n)
        elif lab != d.label(n):
            return None  # clash in the greedy placement; not a proof
    return True


def is_satisfiable(d) -> bool:
    """Satisfiability of a DAG pattern (nonempty interleaving set)."""
    if d is EMPTY:
        return False
    quick = quick_satisfiability(d)
    if quick is not None:
        return quick
    return first_interleaving(d) is not None


# ---------------------------------------------------------------------------
# normal form and union-freedom


def normal_form(d, cap: int = DEFAULT_CAP) -> list[Pattern]:
    """Incomparable interleavings of ``d`` (an antichain under containment)."""
    from .containment import tree_contains

    pats = [il.pattern for il in interleavings(d, cap)]
    keep: list[Pattern] = []
    for p in pats:
        if any(tree_contains(q, p) for q in keep):
            continue
        keep = [q for q in keep if not tree_contains(p, q)]
        keep.append(p)
    return keep


def union_free_oracle(d, cap: int = DEFAULT_CAP) -> Optional[Pattern]:
    """The dominant interleaving when one contains all others, else None.

    Exponential by design; intended for small test instances.
    """
    from .containment import tree_contains

    nf = normal_form(d, cap)
    if len(nf) == 1:
        return nf[0]
    return None
