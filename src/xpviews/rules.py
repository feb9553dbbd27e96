"""The nine equivalence-preserving DAG rewrite rules and their fixpoint.

Each rule matches main-branch structure, checks a side condition built
from mappings, and either collapses two nodes, removes a redundant
branch, sharpens a //-edge, or copies a predicate that is implied in
every interleaving.  The fixpoint loop saturates the forced-collapse rule
first and re-saturates it after every other firing; the scan order is
fixed so traces are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .syntax import CHILD, DESC
from .pattern import (
    EMPTY,
    CapExceeded,
    Pattern,
    _copy_into,
    _merge_nodes,
    _merge_run,
    _subpattern_with_map,
    _subtree,
    canon_key,
    main_branch,
    singleton_pattern,
    slash_run,
    tp_of_path,
)
from .containment import (
    CONTAINMENT,
    MAPPING,
    ROOT_MAPPING,
    has_mapping,
)
from .fragments import added_pred_keeps_es


@dataclass
class RuleInstance:
    rule: str
    bindings: dict
    note: str = ""


@dataclass
class TraceStep:
    instance: RuleInstance
    nodes_before: int
    nodes_after: int
    mbn_before: int
    mbn_after: int


# Near-numeric scan order; the forced-position collapse runs before the
# predicate-copying rule so implied-predicate copies cannot preempt it.
RULE_ORDER = ["R2i", "R2ii", "R3i", "R3ii", "R4i", "R4ii", "R8", "R5", "R6", "R7", "R9"]


# ---------------------------------------------------------------------------
# structural helpers


def _orient(d: Pattern, down: bool):
    """The main branch read downward (``down``) or upward: a node's
    main-branch edges onward and back, and the (source, target) pair of an
    edge from ``a`` onward to ``b``."""
    if down:
        return d.mb_out_edges, d.mb_in_edges, lambda a, b: (a, b)
    return d.mb_in_edges, d.mb_out_edges, lambda a, b: (b, a)


def _anchored_chain(d: Pattern, head: int, down: bool) -> Iterator[tuple[int, list[tuple[int, str]]]]:
    """The single-anchor chain from ``head`` (rules R3, R4 and R6), read
    downward (``down``) or upward: nodes with one main-branch edge back,
    each the only onward neighbour of the one before.  Yields each node
    with its onward edges."""
    onward, back, _ = _orient(d, down)
    x = head
    while len(back(x)) == 1:
        nxt = onward(x)
        yield x, nxt
        if len(nxt) != 1:
            return
        x = nxt[0][0]


def _chains(d: Pattern) -> list[list[int]]:
    """Maximal main-branch chains of one-in/one-out nodes (any edge kinds)."""
    mbn = d.mb_nodes()
    simple = {
        n
        for n in mbn
        if len(d.mb_in_edges(n)) == 1 and len(d.mb_out_edges(n)) == 1
    }
    chains = []
    for n in sorted(simple):
        (a, _), = d.mb_in_edges(n)
        if a in simple:
            continue  # not a chain head
        chain = [n]
        while True:
            (b, _), = d.mb_out_edges(chain[-1])
            if b in simple:
                chain.append(b)
            else:
                break
        chains.append(chain)
    return chains


def _collapse_inplace(d: Pattern, keep: int, gone: int) -> bool:
    """Merge ``gone`` into ``keep``; False when they are comparable (a
    forced merge of comparable nodes witnesses unsatisfiability).

    Isomorphic duplicate predicate subtrees of the merged node are pruned,
    as in the smallest-pattern reading of interleavings.
    """
    if keep == gone:
        return True
    if d.reaches(keep, gone) or d.reaches(gone, keep):
        return False
    _merge_nodes(d, keep, gone)
    seen = set()
    for b, k in d.pred_edges(keep):
        key = (k, canon_key(d, b))
        if key in seen:
            d.remove_nodes(d.descendants(b) | {b})
        else:
            seen.add(key)
    return True


def _collapse_pairs(d: Pattern, pairs: list[tuple[int, int]]):
    """Collapse (keep, gone) pairs on a clone.

    Returns (pattern, translation of old ids) or None when a merge is forced
    between comparable nodes.
    """
    w = d.clone()
    res = _merge_run(w, pairs, _collapse_inplace)
    return None if res is None else (w, res)


# ---------------------------------------------------------------------------
# immediate unsatisfiability / collapsibility / similarity


def _r1_forced_pair(d: Pattern) -> Optional[tuple[int, int]]:
    """A pair collapsible by the forced rule: same-label /-siblings under a
    common parent, or same-label /-parents of a common child."""
    mbn = d.mb_nodes()
    for n in sorted(mbn):
        kids = [b for b, k in d.mb_out_edges(n) if k == CHILD]
        by_label: dict[str, list[int]] = {}
        for b in kids:
            by_label.setdefault(d.label(b), []).append(b)
        for lab in sorted(by_label):
            if len(by_label[lab]) > 1:
                a, b = sorted(by_label[lab])[:2]
                return a, b
        pars = [a for a, k in d.mb_in_edges(n) if k == CHILD]
        by_label = {}
        for a in pars:
            by_label.setdefault(d.label(a), []).append(a)
        for lab in sorted(by_label):
            if len(by_label[lab]) > 1:
                a, b = sorted(by_label[lab])[:2]
                return a, b
    return None


def _forced_unsat(d: Pattern, pairs: Iterable[tuple[int, int]] = ()) -> bool:
    """Whether merging ``pairs`` of same-label main-branch nodes, then
    saturating the forced rule R1, is immediately unsatisfiable.  Reads
    ``d`` only: R1's saturation is a congruence closure, a union-find in
    which same-label /-children of one class merge, as do same-label
    /-parents.  It fails when the quotient is cyclic (a forced merge of
    comparable nodes) or some class keeps /-parents in two classes, which
    then carry different labels."""
    mbn = d.mb_nodes()
    up = {n: n for n in mbn}

    def find(x: int) -> int:
        while up[x] != x:
            up[x] = x = up[up[x]]
        return x

    # per class root: label -> one /-child (kids) or /-parent (pars) node
    kids: dict[int, dict[str, int]] = {n: {} for n in mbn}
    pars: dict[int, dict[str, int]] = {n: {} for n in mbn}
    todo = list(pairs)
    mb_edges = [(a, b, k) for a, b, k in d.edges if a in mbn and b in mbn]
    for a, b, k in mb_edges:
        if k == CHILD:
            for side, x, y in ((kids, a, b), (pars, b, a)):
                other = side[x].setdefault(d.label(y), y)
                if other != y:
                    todo.append((other, y))
    while todo:
        a, b = todo.pop()
        a, b = find(a), find(b)
        if a == b:
            continue
        up[b] = a
        for side in (kids, pars):
            for lab, y in side.pop(b).items():
                other = side[a].setdefault(lab, y)
                if find(other) != find(y):
                    todo.append((other, y))
    if any(len(labs) > 1 for labs in pars.values()):
        return True
    # Kahn's algorithm on the quotient; a self-loop keeps its class's
    # in-degree above zero, so it counts as a cycle
    succ: dict[int, list[int]] = {c: [] for c in pars}
    indeg = dict.fromkeys(pars, 0)
    for a, b, _ in mb_edges:
        b = find(b)
        succ[find(a)].append(b)
        indeg[b] += 1
    ready = [c for c, k in indeg.items() if k == 0]
    for c in ready:
        for b in succ[c]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    return len(ready) != len(indeg)


def immediately_unsatisfiable(d) -> bool:
    """Sufficient unsatisfiability test: saturating the forced collapses
    would merge comparable nodes, or leaves some node with /-parents of
    different labels.

    Two /-paths with shared endpoints and different lengths need no test
    of their own: once every node has a single /-parent, the two paths
    coincide walking up from their shared lower end.
    """
    return d is EMPTY or _forced_unsat(d)


def collapsible(d: Pattern, n1: int, n2: int) -> bool:
    """Same label and the tentative collapse is not immediately
    unsatisfiable.

    The /-runs below the two nodes must also agree label-wise, as must the
    runs above them.  This is stricter than the collapse alone, and R2's
    soundness rests on it: in every interleaving the main branch is a
    path, so the merged node has one main-branch /-child and one /-parent
    there, and its runs merge cell by cell.
    """
    if n1 == n2:
        return True
    if d.label(n1) != d.label(n2):
        return False
    if d.reaches(n1, n2) or d.reaches(n2, n1):
        return False
    for down in (True, False):
        runs = zip(slash_run(d, n1, down), slash_run(d, n2, down))
        if any(d.label(a) != d.label(b) for a, b in runs):
            return False
    return not _forced_unsat(d, [(n1, n2)])


def similar(d1: Pattern, d2: Pattern) -> bool:
    """Similarity of two /-patterns: equal main-branch codes, and both
    root-map into every merge pattern built by aligning or concatenating
    the two branches."""
    mb1, mb2 = main_branch(d1), main_branch(d2)
    code1 = tuple(d1.label(n) for n in mb1)
    code2 = tuple(d2.label(n) for n in mb2)
    if code1 != code2:
        return False
    k = len(code1)
    for p12 in _merge_candidates(d1, mb1, d2, mb2, k):
        if not has_mapping(d1, p12, ROOT_MAPPING):
            return False
        if not has_mapping(d2, p12, ROOT_MAPPING):
            return False
    return True


def _merge_candidates(d1, mb1, d2, mb2, k) -> Iterator[Pattern]:
    code = tuple(d1.label(n) for n in mb1)
    # aligned overlaps (offset 0 is the full overlap)
    offsets = [0] + [s for s in range(1, k) if code[s:] == code[: k - s]]
    for s in offsets:
        yield _build_merge(d1, mb1, d2, mb2, s, None)
        if s:
            yield _build_merge(d2, mb2, d1, mb1, s, None)
    # disjoint concatenations, with both junction kinds
    for axis in (CHILD, DESC):
        yield _build_merge(d1, mb1, d2, mb2, k, axis)
        yield _build_merge(d2, mb2, d1, mb1, k, axis)


def _build_merge(da, mba, db, mbb, s, junction) -> Pattern:
    k = len(mba)
    total = s + k
    p = Pattern()
    spine = []
    for i in range(total):
        nid = p.add_node(da.label(mba[i]) if i < k else db.label(mbb[i - s]))
        spine.append(nid)
        if i:
            axis = CHILD
            if junction is not None and i == s:
                axis = junction
            p.add_edge(spine[i - 1], nid, axis)
    for src, mb, at in ((da, mba, spine), (db, mbb, spine[s:])):
        for n, nid in zip(mb, at):
            for b, kk in src.pred_edges(n):
                p.add_edge(nid, _copy_into(p, src, _subtree(src, b))[b], kk)
    p.root = spine[0]
    p.out = spine[-1]
    return p


# ---------------------------------------------------------------------------
# mappings of linear paths into /-runs (rules R4, R8, R9)


def _run_maps(path: list[tuple[str, str]], run: list[str], end: str = DESC) -> Iterator[tuple[int, ...]]:
    """Position tuples mapping a nonempty linear path into a /-run of
    labels, in lexicographic order.  ``path`` lists (label, axis) pairs,
    each axis leading into its node from the one before; the first leads
    in from just above the run, so / pins the path's start to the run's
    first cell and // leaves it free.  ``end`` leads from the last node to
    just below the run, and / pins it to the last cell."""
    m = len(run)

    def cells(i: int, prev: int) -> Iterator[int]:
        label, axis = path[i]
        lo, hi = prev + 1, (prev + 2 if axis == CHILD else m)
        if i == len(path) - 1 and end == CHILD:
            lo = max(lo, m - 1)
        return (j for j in range(lo, min(hi, m)) if run[j] == label)

    pos: list[int] = []
    stack = [cells(0, -1)]
    while stack:
        j = next(stack[-1], None)
        if j is None:
            stack.pop()
            continue
        del pos[len(stack) - 1 :]
        pos.append(j)
        if len(pos) == len(path):
            yield tuple(pos)
        else:
            stack.append(cells(len(pos), j))


def _slash_run_between(d: Pattern, n0: int, nc: int, forbidden: frozenset[int]) -> Optional[list[int]]:
    """The first /-edge path from n0 to nc in depth-first order (interior
    nodes returned), avoiding ``forbidden``; None when there is none."""
    path: list[int] = []
    stack = [iter(d.mb_out_edges(n0))]
    # nodes entered before are off the current path (a DAG) and led nowhere
    seen = set(forbidden) | {d.out}
    while stack:
        for b, k in stack[-1]:
            if k != CHILD:
                continue
            if b == nc:
                return path
            if b not in seen:
                seen.add(b)
                path.append(b)
                stack.append(iter(d.mb_out_edges(b)))
                break
        else:
            stack.pop()
            if path:
                path.pop()
    return None


def _parallel_runs(d: Pattern) -> Iterator[tuple[list[int], list[int], list[tuple[int, ...]]]]:
    """(chain, run, maps) for each main-branch chain between two nodes
    that a /-run also joins, the maps placing the chain's nodes in the
    run's interior (rules R8 and R9); chains with no map are skipped."""
    for chain in _chains(d):
        (n0, _), = d.mb_in_edges(chain[0])
        (nc, _), = d.mb_out_edges(chain[-1])
        run = _slash_run_between(d, n0, nc, frozenset(chain))
        if not run:
            continue
        path = [(d.label(x), d.axis(a, x)) for a, x in zip([n0] + chain, chain)]
        maps = list(_run_maps(path, [d.label(x) for x in run], d.axis(chain[-1], nc)))
        if maps:
            yield chain, run, maps


# ---------------------------------------------------------------------------
# the engine


class _Engine:
    def __init__(self, d: Pattern):
        self.w = d.clone()
        self.trace: list[TraceStep] = []
        mbn = d.mb_nodes()
        preds = sum(len(d.pred_edges(n)) for n in mbn)
        self.cap = d.size() * d.size() + preds
        self.dead = False  # set when unsatisfiability is exposed

    def record(self, inst: RuleInstance, before: tuple[int, int]) -> None:
        self.trace.append(
            TraceStep(inst, before[0], self.w.size(), before[1], len(self.w.mb_nodes()))
        )
        if len(self.trace) > self.cap:
            raise CapExceeded(
                f"{len(self.trace)} rule firings exceed the bound {self.cap}"
            )

    def snap(self) -> tuple[int, int]:
        return self.w.size(), len(self.w.mb_nodes())

    def saturate_r1(self) -> None:
        while not self.dead and self.try_r1():
            pass

    # -- rules -------------------------------------------------------------

    def try_r1(self) -> bool:
        pair = _r1_forced_pair(self.w)
        if pair is None:
            return False
        before = self.snap()
        if _collapse_inplace(self.w, *pair):
            self.record(RuleInstance("R1", {"n1": pair[0], "n2": pair[1]}), before)
        else:
            self.dead = True
        return True

    def try_r2(self, variant: str) -> bool:
        d = self.w
        onward, _, edge = _orient(d, variant == "R2i")
        for n in sorted(d.mb_nodes()):
            slashes = [x for x, k in onward(n) if k == CHILD]
            dds = [x for x, k in onward(n) if k == DESC]
            for n1 in slashes:
                for n2 in dds:
                    if n1 == n2 or collapsible(d, n1, n2):
                        continue
                    if d.reaches(*edge(n1, n2)):
                        continue
                    if d.reaches(*edge(n2, n1)):
                        # n2 strictly between n and its /-neighbour: no room
                        self.dead = True
                        return True
                    before = self.snap()
                    d.remove_edge(*edge(n, n2), DESC)
                    d.add_edge(*edge(n1, n2), DESC)
                    self.record(
                        RuleInstance(variant, {"n0": n, "n1": n1, "n2": n2}), before
                    )
                    return True
        return False

    def try_r3(self, variant: str) -> bool:
        d = self.w
        down = variant == "R3i"
        onward, _, _ = _orient(d, down)
        for n0 in sorted(d.mb_nodes()):
            slashes = [x for x, k in onward(n0) if k == CHILD]
            dds = [x for x, k in onward(n0) if k == DESC]
            for h1 in slashes:
                for h2 in dds:
                    if h2 == h1:
                        continue
                    p2 = self._r3_chain(h2, down)
                    if not p2:
                        continue
                    p1 = [h1, *itertools.islice(slash_run(d, h1, down), len(p2) - 1)]
                    if len(p1) < len(p2):
                        continue
                    if not down:
                        p1.reverse()
                    if set(p1) & set(p2):
                        continue
                    if [d.label(x) for x in p1] != [d.label(x) for x in p2]:
                        continue
                    if not has_mapping(tp_of_path(d, p2), tp_of_path(d, p1), CONTAINMENT):
                        continue
                    before = self.snap()
                    keep = p1[0] if down else p1[-1]
                    gone = p2[0] if down else p2[-1]
                    if not _collapse_inplace(d, keep, gone):
                        self.dead = True
                        return True
                    self.record(
                        RuleInstance(
                            variant, {"n1": keep, "n2": gone, "p1": p1, "p2": p2}
                        ),
                        before,
                    )
                    return True
        return False

    def _r3_chain(self, head: int, down: bool) -> list[int]:
        """Maximal /-path from ``head`` whose nodes all have one incoming
        (down) or one outgoing (up) main-branch edge, in root-first order;
        its far end must carry only //-edges onward.  Returns [] when the
        shape is wrong."""
        chain = []
        for x, onward in _anchored_chain(self.w, head, down):
            chain.append(x)
            axes = [k for _, k in onward]
            if axes != [CHILD]:
                return [] if CHILD in axes else (chain if down else chain[::-1])
        return []

    def try_r4(self, variant: str) -> bool:
        d = self.w
        down = variant == "R4i"
        onward, _, edge = _orient(d, down)
        for n0 in sorted(d.mb_nodes()):
            slashes = [x for x, k in onward(n0) if k == CHILD]
            dds = [x for x, k in onward(n0) if k == DESC]
            for h2 in dds:
                chain = []
                for n3, anchors in _anchored_chain(d, h2, down):
                    chain.append(n3)
                    p2 = list(chain)
                    if not anchors or any(k == CHILD for _, k in anchors):
                        continue
                    n4s = [x for x, _ in anchors]
                    avoid = set()
                    for x in n4s:
                        avoid |= d.descendants(x) if down else self._ancestors(x)
                        avoid.add(x)
                    for h1 in slashes:
                        if h1 == h2 or h1 in avoid:
                            continue
                        run = [h1, *slash_run(d, h1, down, frozenset(avoid))]
                        if not down:
                            run.reverse()
                        if set(run) & set(p2):
                            continue
                        if not self._r4_conditions(run, p2, n4s, down):
                            continue
                        before = self.snap()
                        dead = set(p2)
                        for x in p2:
                            for b, k in d.pred_edges(x):
                                dead |= d.descendants(b) | {b}
                        d.remove_nodes(dead)
                        hang = run[-1] if down else run[0]
                        for x in n4s:
                            d.add_edge(*edge(hang, x), DESC)
                        self.record(
                            RuleInstance(
                                variant,
                                {"p1": run, "p2": p2, "n3": n3, "n4s": n4s},
                            ),
                            before,
                        )
                        return True
        return False

    def _ancestors(self, n: int) -> set[int]:
        d = self.w
        return {x for x in d.nodes if d.reaches(x, n)}

    def _r4_conditions(self, run, p2, n4s, down) -> bool:
        d = self.w
        tp2 = tp_of_path(d, p2 if down else list(reversed(p2)))
        if down:
            sub, ren = _subpattern_with_map(d, run[0])
            allowed = {}
            tp2_mb = main_branch(tp2)
            for i, x in enumerate(p2):
                allowed[tp2_mb[i]] = frozenset(ren[y] for y in run)
            if not has_mapping(tp2, sub, MAPPING, allowed=allowed):
                return False
        else:
            tp1 = tp_of_path(d, run)
            tp1_mb = main_branch(tp1)
            tp2_mb = main_branch(tp2)
            allowed = {
                tp2_mb[i]: frozenset(tp1_mb) for i in range(len(tp2_mb))
            }
            if not has_mapping(tp2, tp1, MAPPING, allowed=allowed):
                return False
        # the bare path p2 extended by any anchor must not map into p1
        run_labels = [d.label(x) for x in run]
        chain_nodes = p2 if down else list(reversed(p2))
        for n4 in n4s:
            nodes = chain_nodes + [n4] if down else [n4] + chain_nodes
            path = [(d.label(nodes[0]), DESC)]
            path += [(d.label(b), d.axis(a, b)) for a, b in zip(nodes, nodes[1:])]
            if next(_run_maps(path, run_labels), None) is not None:
                return False
        return True

    def try_r5(self) -> bool:
        d = self.w
        for n1 in sorted(d.mb_nodes()):
            slashes = [b for b, k in d.mb_out_edges(n1) if k == CHILD]
            dds = [b for b, k in d.mb_out_edges(n1) if k == DESC]
            for h1 in slashes:
                for h3 in dds:
                    runs = zip([h1, *slash_run(d, h1)], [h3, *slash_run(d, h3)])
                    for n2, n3 in runs:
                        if d.label(n2) != d.label(n3):
                            break
                        if n2 != n3 and collapsible(d, n2, n3) and self._r5_fire(n1, n2, n3):
                            return True
        return False

    def _r5_fire(self, n1: int, n2: int, n3: int) -> bool:
        d = self.w
        preds = d.pred_edges(n3)
        if not preds:
            return False
        p2 = [n2, *slash_run(d, n2)]
        sub2, _ = _subpattern_with_map(d, n2)
        for q_root, q_axis in preds:
            probe = singleton_pattern(d.label(n2), d, q_root, q_axis)
            if has_mapping(probe, sub2, ROOT_MAPPING):
                continue  # already implied
            ok = True
            for n4 in p2:
                if d.label(n4) != d.label(n3):
                    continue
                if _forced_unsat(d, [(n4, n3)]):
                    continue
                w4, res = _collapse_pairs(d, [(n4, n3)])
                sub4, _ = _subpattern_with_map(w4, res(n2))
                if not has_mapping(probe, sub4, ROOT_MAPPING):
                    ok = False
                    break
            if ok and not any(d.reaches(n3, x) for x in p2):
                ext = tp_of_path(d, p2)
                ext.add_edge(ext.out, _copy_into(ext, d, _subtree(d, q_root))[q_root], DESC)
                if not has_mapping(probe, ext, ROOT_MAPPING):
                    ok = False
            if not ok:
                continue
            before = self.snap()
            d.add_edge(n2, _copy_into(d, d, _subtree(d, q_root))[q_root], q_axis)
            self.record(
                RuleInstance(
                    "R5", {"n1": n1, "n2": n2, "n3": n3, "q": q_root}
                ),
                before,
            )
            return True
        return False

    def try_r6(self) -> bool:
        d = self.w
        for n0 in sorted(d.mb_nodes()):
            heads = [b for b, _ in d.mb_out_edges(n0)]
            for h1, h2 in itertools.combinations(sorted(set(heads)), 2):
                p1 = self._r3_chain(h1, True)
                p2 = self._r3_chain(h2, True)
                if not p1 or not p2 or len(p1) != len(p2):
                    continue
                if [d.label(x) for x in p1] != [d.label(x) for x in p2]:
                    continue
                if set(p1) & set(p2):
                    continue
                if not similar(tp_of_path(d, p1), tp_of_path(d, p2)):
                    continue
                before = self.snap()
                if not _collapse_inplace(d, h1, h2):
                    self.dead = True
                    return True
                self.record(
                    RuleInstance("R6", {"n1": h1, "n2": h2, "p1": p1, "p2": p2}),
                    before,
                )
                return True
        return False

    def try_r7(self) -> bool:
        d = self.w
        # degenerate branch: a //-edge parallel to another main-branch path
        for a, b, k in sorted(d.edges):
            if k != DESC or a not in d.mb_nodes() or b not in d.mb_nodes():
                continue
            if self._has_other_path(a, b):
                before = self.snap()
                d.remove_edge(a, b, DESC)
                self.record(RuleInstance("R7", {"n1": a, "n5": b, "p2": []}), before)
                return True
        for chain in _chains(d):
            for j in range(len(chain)):
                p2 = chain[: j + 1]
                head, tail = p2[0], p2[-1]
                (n1, kin), = d.mb_in_edges(head)
                outs = d.mb_out_edges(tail)
                if len(outs) != 1:
                    continue
                (n5, kout), = outs
                if kin != DESC or kout != DESC:
                    continue
                between = set(d.descendants(n1) & self._ancestors(n5)) - set(p2)
                between.discard(n1)
                between.discard(n5)
                between &= d.mb_nodes()
                if not between:
                    continue
                tp2 = tp_of_path(d, p2)
                sub, ren = _subpattern_with_map(d, n1)
                tp2_mb = main_branch(tp2)
                allowed = {
                    tp2_mb[i]: frozenset(ren[y] for y in between)
                    for i in range(len(tp2_mb))
                }
                if not has_mapping(tp2, sub, MAPPING, allowed=allowed):
                    continue
                before = self.snap()
                dead = set(p2)
                for x in p2:
                    for bb, _ in d.pred_edges(x):
                        dead |= d.descendants(bb) | {bb}
                d.remove_nodes(dead)
                self.record(
                    RuleInstance("R7", {"n1": n1, "n5": n5, "p2": p2}), before
                )
                return True
        return False

    def _has_other_path(self, a: int, b: int) -> bool:
        """Path from a to b using main-branch edges other than (a, b)."""
        d = self.w
        mbn = d.mb_nodes()
        # a parallel / edge (a, b) is such a path: it implies the //
        stack = [x for x, k in d.mb_out_edges(a) if x != b or k == CHILD]
        seen = set()
        while stack:
            x = stack.pop()
            if x == b:
                return True
            if x in seen or x not in mbn:
                continue
            seen.add(x)
            stack.extend(y for y, _ in d.mb_out_edges(x))
        return False

    def try_r8(self) -> bool:
        d = self.w
        for chain, run, maps in _parallel_runs(d):
            for i, x in enumerate(chain):
                images = {m[i] for m in maps}
                if len(images) == 1:
                    n1 = run[images.pop()]
                    before = self.snap()
                    if not _collapse_inplace(d, n1, x):
                        self.dead = True
                        return True
                    self.record(
                        RuleInstance("R8", {"n1": n1, "n2": x, "p1": run, "p2": chain}),
                        before,
                    )
                    return True
        return False

    def try_r9(self) -> bool:
        d = self.w
        qs = [q for owner in sorted(d.mb_nodes()) for q, k in d.pred_edges(owner) if k == CHILD]
        if not qs:
            return False
        for chain, run, maps in _parallel_runs(d):
            for n in run:
                for q_root in qs:
                    if not added_pred_keeps_es(d, n, q_root):
                        continue
                    probe = singleton_pattern(d.label(n), d, q_root, CHILD)
                    subn, _ = _subpattern_with_map(d, n)
                    if has_mapping(probe, subn, ROOT_MAPPING):
                        continue  # already implied
                    ok = True
                    for m in maps:
                        pairs = [(run[pos], x) for x, pos in zip(chain, m)]
                        got = _collapse_pairs(d, pairs)
                        if got is None:
                            ok = False
                            break
                        w2, res = got
                        sub2, _ = _subpattern_with_map(w2, res(n))
                        if not has_mapping(probe, sub2, ROOT_MAPPING):
                            ok = False
                            break
                    if not ok:
                        continue
                    before = self.snap()
                    d.add_edge(n, _copy_into(d, d, _subtree(d, q_root))[q_root], CHILD)
                    self.record(
                        RuleInstance(
                            "R9",
                            {"n": n, "q": q_root, "p1": run, "p2": chain},
                        ),
                        before,
                    )
                    return True
        return False

    # rule name -> (method, arguments)
    RULES = {
        "R1": (try_r1, ()),
        "R2i": (try_r2, ("R2i",)),
        "R2ii": (try_r2, ("R2ii",)),
        "R3i": (try_r3, ("R3i",)),
        "R3ii": (try_r3, ("R3ii",)),
        "R4i": (try_r4, ("R4i",)),
        "R4ii": (try_r4, ("R4ii",)),
        "R5": (try_r5, ()),
        "R6": (try_r6, ()),
        "R7": (try_r7, ()),
        "R8": (try_r8, ()),
        "R9": (try_r9, ()),
    }

    def try_rule(self, rule: str) -> bool:
        if rule not in self.RULES:
            raise ValueError(rule)
        method, args = self.RULES[rule]
        return method(self, *args)


def try_rule(rule: str, d: Pattern):
    """Attempt one rule on a copy; (new pattern, instance) or None."""
    eng = _Engine(d)
    if not eng.try_rule(rule):
        return None
    if eng.dead:
        return EMPTY, RuleInstance(rule, {})
    return eng.w, eng.trace[-1].instance


def _forks(d: Pattern) -> tuple[bool, bool]:
    """Whether some main-branch node has a / edge and a // edge to
    different main-branch nodes, onward and back.  R2i, R3i, R4i and R5
    fire only at an onward fork, R2ii, R3ii and R4ii only at a backward
    one."""

    def fork(edges) -> bool:
        return any(
            {k for _, k in e} == {CHILD, DESC} and len({x for x, _ in e}) > 1
            for e in map(edges, d.mb_nodes())
        )

    return fork(d.mb_out_edges), fork(d.mb_in_edges)


# rule -> which fork it needs (0 onward, 1 back); the others are not gated
FORK_OF = {"R2i": 0, "R3i": 0, "R4i": 0, "R5": 0, "R2ii": 1, "R3ii": 1, "R4ii": 1}


def apply_rules(d) -> tuple[object, list[TraceStep]]:
    """Fixpoint of the rule set; the result is equivalent to the input.

    The forced-collapse rule runs to saturation first and again after any
    other firing; remaining rules are scanned in a fixed order, restarting
    after each change.  An unsatisfiable working pattern collapses to
    EMPTY.

    No rule fires on a tree: R1 needs two same-label /-neighbours of one
    main-branch node, and every other rule a main-branch node with two
    main-branch edges onward or two back.  So a tree comes back as a clone
    with an empty trace, and the loop ends once the working pattern is one.
    Each scan also skips the rules whose fork (``_forks``) is absent; the
    order of tries is unchanged, so the trace is that of the full scan.
    """
    if d is EMPTY:
        return EMPTY, []
    if d.is_tree():
        w = d.clone()
        w.validate()
        return w, []
    eng = _Engine(d)
    eng.saturate_r1()
    if eng.dead or immediately_unsatisfiable(eng.w):
        return EMPTY, eng.trace
    while not eng.w.is_tree():
        forks = _forks(eng.w)
        for rule in RULE_ORDER:
            if rule in FORK_OF and not forks[FORK_OF[rule]]:
                continue
            if eng.try_rule(rule):
                if eng.dead:
                    return EMPTY, eng.trace
                eng.saturate_r1()
                if eng.dead:
                    return EMPTY, eng.trace
                break
        else:
            break
    eng.w.validate()
    return eng.w, eng.trace
