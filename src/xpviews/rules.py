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
from typing import Iterator, Optional

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
    tp_of_path,
)
from .containment import (
    CONTAINMENT,
    MAPPING,
    ROOT_MAPPING,
    find_mapping,
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


def _slash_run_down(d: Pattern, start: int, avoid: frozenset[int] = frozenset()) -> list[int]:
    """Maximal /-connected main-branch path from ``start`` (inclusive)."""
    run = [start]
    while True:
        nxt = sorted(b for b, k in d.mb_out_edges(run[-1]) if k == CHILD and b not in avoid)
        if len(nxt) != 1:
            break
        run.append(nxt[0])
    return run


def _slash_run_up(d: Pattern, start: int, avoid: frozenset[int] = frozenset()) -> list[int]:
    run = [start]
    while True:
        nxt = sorted(a for a, k in d.mb_in_edges(run[0]) if k == CHILD and a not in avoid)
        if len(nxt) != 1:
            break
        run.insert(0, nxt[0])
    return run


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


def _slash_path_lengths(d: Pattern) -> bool:
    """True when two /-paths share endpoints but differ in length."""
    mbn = sorted(d.mb_nodes())
    # lengths[x][y] = set of /-path lengths from x to y
    lengths: dict[int, dict[int, set[int]]] = {n: {n: {0}} for n in mbn}
    order = [n for n in d.topo_order() if n in set(mbn)]
    for x in reversed(order):
        for b, k in d.mb_out_edges(x):
            if k != CHILD:
                continue
            for y, ls in lengths[b].items():
                tgt = lengths[x].setdefault(y, set())
                tgt.update(l + 1 for l in ls)
    return any(len(ls) > 1 for row in lengths.values() for ls in row.values())


def immediately_unsatisfiable(d) -> bool:
    """Sufficient unsatisfiability test: after saturating the forced
    collapses, either two same-endpoint /-paths of different lengths exist,
    or some node has /-parents with different labels."""
    return d is EMPTY or _unsatisfiable_after_r1(_Engine(d))


def _unsatisfiable_after_r1(eng: "_Engine") -> bool:
    """``immediately_unsatisfiable`` on the engine's working pattern, which
    it saturates with the forced rule."""
    eng.saturate_r1()
    if eng.dead or _slash_path_lengths(eng.w):
        return True
    w = eng.w
    return any(
        len({w.label(a) for a, k in w.mb_in_edges(n) if k == CHILD}) > 1
        for n in sorted(w.mb_nodes())
    )


def collapsible(d: Pattern, n1: int, n2: int) -> bool:
    """Same label and the tentative collapse is not immediately
    unsatisfiable."""
    if n1 == n2:
        return True
    if d.label(n1) != d.label(n2):
        return False
    if d.reaches(n1, n2) or d.reaches(n2, n1):
        return False
    # fast negative: the outgoing /-runs must agree label-wise, as must the
    # incoming ones (they merge cell by cell)
    down1 = [d.label(x) for x in _slash_run_down(d, n1)[1:]]
    down2 = [d.label(x) for x in _slash_run_down(d, n2)[1:]]
    if any(a != b for a, b in zip(down1, down2)):
        return False
    up1 = [d.label(x) for x in _slash_run_up(d, n1)[:-1]]
    up2 = [d.label(x) for x in _slash_run_up(d, n2)[:-1]]
    if any(a != b for a, b in zip(reversed(up1), reversed(up2))):
        return False
    eng = _Engine(d)
    return _collapse_inplace(eng.w, n1, n2) and not _unsatisfiable_after_r1(eng)


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
        if find_mapping(d1, p12, ROOT_MAPPING) is None:
            return False
        if find_mapping(d2, p12, ROOT_MAPPING) is None:
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
# chain mappings with pinned endpoints (rules R8/R9)


def _chain_maps(d: Pattern, chain: list[int], run: list[int], n0: int, nc: int) -> list[dict[int, int]]:
    """All mappings of a parallel chain onto the interior of a /-run.

    ``run`` are the nodes strictly between ``n0`` and ``nc``; the chain
    hangs off ``n0`` and feeds ``nc``.  Returns assignments chain node ->
    run index.
    """
    m = len(run)
    results: list[dict[int, int]] = []

    def rec(i: int, prev_pos: int, acc: dict[int, int]) -> None:
        if i == len(chain):
            last = chain[-1]
            k = d.axis(last, nc)
            if k == CHILD and acc[last] != m - 1:
                return
            results.append(dict(acc))
            return
        node = chain[i]
        if i == 0:
            k = d.axis(n0, node)
            lo = 0
            exact = 0 if k == CHILD else None
        else:
            k = d.axis(chain[i - 1], node)
            lo = prev_pos + 1
            exact = prev_pos + 1 if k == CHILD else None
        for pos in range(lo, m):
            if exact is not None and pos != exact:
                continue
            if d.label(node) != d.label(run[pos]):
                continue
            acc[node] = pos
            rec(i + 1, pos, acc)
            del acc[node]

    rec(0, -1, {})
    return results


def _slash_run_between(d: Pattern, n0: int, nc: int, forbidden: frozenset[int]) -> Optional[list[int]]:
    """A /-edge path from n0 to nc (interior nodes returned), avoiding
    ``forbidden``; None when there is none."""

    def dfs(cur: int, acc: list[int]) -> Optional[list[int]]:
        for b, k in sorted(d.mb_out_edges(cur)):
            if k != CHILD:
                continue
            if b == nc:
                return list(acc)
            if b in forbidden or b == d.out:
                continue
            got = dfs(b, acc + [b])
            if got is not None:
                return got
        return None

    return dfs(n0, [])


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
        for n in sorted(d.mb_nodes()):
            if variant == "R2i":
                slashes = [b for b, k in d.mb_out_edges(n) if k == CHILD]
                dds = [b for b, k in d.mb_out_edges(n) if k == DESC]
            else:
                slashes = [a for a, k in d.mb_in_edges(n) if k == CHILD]
                dds = [a for a, k in d.mb_in_edges(n) if k == DESC]
            for n1 in slashes:
                for n2 in dds:
                    if n1 == n2 or collapsible(d, n1, n2):
                        continue
                    if variant == "R2i":
                        if d.reaches(n1, n2):
                            continue
                        if d.reaches(n2, n1):
                            # n2 strictly between n0 and its /-child: no room
                            self.dead = True
                            return True
                        before = self.snap()
                        d.remove_edge(n, n2, DESC)
                        d.add_edge(n1, n2, DESC)
                    else:
                        if d.reaches(n2, n1):
                            continue
                        if d.reaches(n1, n2):
                            self.dead = True
                            return True
                        before = self.snap()
                        d.remove_edge(n2, n, DESC)
                        d.add_edge(n2, n1, DESC)
                    self.record(
                        RuleInstance(variant, {"n0": n, "n1": n1, "n2": n2}), before
                    )
                    return True
        return False

    def try_r3(self, variant: str) -> bool:
        d = self.w
        down = variant == "R3i"
        for n0 in sorted(d.mb_nodes()):
            edges = d.mb_out_edges(n0) if down else d.mb_in_edges(n0)
            slashes = [x for x, k in edges if k == CHILD]
            dds = [x for x, k in edges if k == DESC]
            for h1 in slashes:
                run1 = _slash_run_down(d, h1) if down else _slash_run_up(d, h1)
                for h2 in dds:
                    if h2 == h1:
                        continue
                    p2 = self._r3_chain(h2, down)
                    if not p2:
                        continue
                    k = len(p2)
                    if len(run1) < k:
                        continue
                    p1 = run1[:k] if down else run1[-k:]
                    if set(p1) & set(p2):
                        continue
                    if [d.label(x) for x in p1] != [d.label(x) for x in p2]:
                        continue
                    if not self._r3_conditions(p1, p2, down):
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
        (R3i) or one outgoing (R3ii) main-branch edge; its far end must
        carry only //-edges onward.  Returns [] when the shape is wrong."""
        d = self.w

        def anchor_ok(x: int) -> bool:
            return len(d.mb_in_edges(x) if down else d.mb_out_edges(x)) == 1

        if not anchor_ok(head):
            return []
        chain = [head]
        while True:
            cur = chain[-1]
            cont = d.mb_out_edges(cur) if down else d.mb_in_edges(cur)
            nxt = [x for x, k in cont if k == CHILD]
            if len(cont) == 1 and len(nxt) == 1 and anchor_ok(nxt[0]):
                chain.append(nxt[0])
            else:
                break
        far = chain[-1]
        far_edges = d.mb_out_edges(far) if down else d.mb_in_edges(far)
        if any(k == CHILD for _, k in far_edges):
            return []
        return chain if down else chain[::-1]

    def _r3_conditions(self, p1: list[int], p2: list[int], down: bool) -> bool:
        d = self.w
        tp1 = tp_of_path(d, p1)
        tp2 = tp_of_path(d, p2)
        return find_mapping(tp2, tp1, CONTAINMENT) is not None

    def try_r4(self, variant: str) -> bool:
        d = self.w
        down = variant == "R4i"
        for n0 in sorted(d.mb_nodes()):
            edges = d.mb_out_edges(n0) if down else d.mb_in_edges(n0)
            slashes = [x for x, k in edges if k == CHILD]
            dds = [x for x, k in edges if k == DESC]
            for h2 in dds:
                for p2, n3 in self._r4_chains(h2, down):
                    anchors = d.mb_out_edges(n3) if down else d.mb_in_edges(n3)
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
                        run = (
                            _slash_run_down(d, h1, frozenset(avoid))
                            if down
                            else _slash_run_up(d, h1, frozenset(avoid))
                        )
                        if set(run) & set(p2):
                            continue
                        if not self._r4_conditions(n0, run, p2, n4s, down):
                            continue
                        before = self.snap()
                        dead = set(p2)
                        for x in p2:
                            for b, k in d.pred_edges(x):
                                dead |= d.descendants(b) | {b}
                        d.remove_nodes(dead)
                        hang = run[-1] if down else run[0]
                        for x in n4s:
                            if down:
                                d.add_edge(hang, x, DESC)
                            else:
                                d.add_edge(x, hang, DESC)
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

    def _r4_chains(self, head: int, down: bool) -> Iterator[tuple[list[int], int]]:
        """Chains of single-anchor nodes from ``head``; yields (p2, n3) for
        every admissible cut, n3 being the far end."""
        d = self.w

        def ins(x):
            return d.mb_in_edges(x) if down else d.mb_out_edges(x)

        def outs(x):
            return d.mb_out_edges(x) if down else d.mb_in_edges(x)

        if len(ins(head)) != 1:
            return
        chain = [head]
        while True:
            cur = chain[-1]
            yield list(chain), cur
            o = outs(cur)
            if len(o) != 1:
                break
            nxt = o[0][0]
            if len(ins(nxt)) != 1:
                break
            chain.append(nxt)

    def _r4_conditions(self, n0, run, p2, n4s, down) -> bool:
        d = self.w
        if not run:
            return False
        tp2 = tp_of_path(d, p2 if down else list(reversed(p2)))
        if down:
            sub, ren = _subpattern_with_map(d, run[0])
            allowed = {}
            tp2_mb = main_branch(tp2)
            for i, x in enumerate(p2):
                allowed[tp2_mb[i]] = frozenset(ren[y] for y in run)
            if find_mapping(tp2, sub, MAPPING, allowed=allowed) is None:
                return False
        else:
            tp1 = tp_of_path(d, run)
            tp1_mb = main_branch(tp1)
            tp2_mb = main_branch(tp2)
            allowed = {
                tp2_mb[i]: frozenset(tp1_mb) for i in range(len(tp2_mb))
            }
            if find_mapping(tp2, tp1, MAPPING, allowed=allowed) is None:
                return False
        # the bare path p2 extended by any anchor must not map into p1
        run_labels = [d.label(x) for x in run]
        chain_nodes = p2 if down else list(reversed(p2))
        for n4 in n4s:
            seq = []
            nodes = chain_nodes + [n4] if down else [n4] + chain_nodes
            for i, x in enumerate(nodes):
                if i == 0:
                    seq.append((d.label(x), None))
                else:
                    seq.append((d.label(x), d.axis(nodes[i - 1], x)))
            if _linear_maps_into_run(seq, run_labels):
                return False
        return True

    def try_r5(self) -> bool:
        d = self.w
        for n1 in sorted(d.mb_nodes()):
            slashes = [b for b, k in d.mb_out_edges(n1) if k == CHILD]
            dds = [b for b, k in d.mb_out_edges(n1) if k == DESC]
            for h1 in slashes:
                run1 = _slash_run_down(d, h1)
                for h3 in dds:
                    run3 = _slash_run_down(d, h3)
                    for k in range(min(len(run1), len(run3))):
                        n2, n3 = run1[k], run3[k]
                        if n2 == n3:
                            continue
                        if [d.label(x) for x in run1[:k]] != [
                            d.label(x) for x in run3[:k]
                        ]:
                            break
                        if not collapsible(d, n2, n3):
                            continue
                        if self._r5_fire(n1, n2, n3):
                            return True
        return False

    def _r5_fire(self, n1: int, n2: int, n3: int) -> bool:
        d = self.w
        p2 = _slash_run_down(d, n2)
        for q_root, q_axis in d.pred_edges(n3):
            probe = singleton_pattern(d.label(n2), d, q_root, q_axis)
            sub2, _ = _subpattern_with_map(d, n2)
            if find_mapping(probe, sub2, ROOT_MAPPING) is not None:
                continue  # already implied
            ok = True
            for n4 in p2:
                if d.label(n4) != d.label(n3):
                    continue
                got = _collapse_pairs(d, [(n4, n3)])
                if got is None:
                    continue
                w4, res = got
                if immediately_unsatisfiable(w4):
                    continue
                sub4, _ = _subpattern_with_map(w4, res(n2))
                if find_mapping(probe, sub4, ROOT_MAPPING) is None:
                    ok = False
                    break
            if ok and not any(d.reaches(n3, x) for x in p2):
                ext = tp_of_path(d, p2)
                ext.add_edge(ext.out, _copy_into(ext, d, _subtree(d, q_root))[q_root], DESC)
                if find_mapping(probe, ext, ROOT_MAPPING) is None:
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
                p1 = self._r6_chain(h1)
                p2 = self._r6_chain(h2)
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

    def _r6_chain(self, head: int) -> list[int]:
        """/-run from head through one-in/one-out nodes.  The tail must not
        be followed by any /-edge (only //-continuations merge soundly when
        the two runs are placed at different heights)."""
        d = self.w
        if len(d.mb_in_edges(head)) != 1:
            return []
        chain = [head]
        while True:
            cur = chain[-1]
            outs = d.mb_out_edges(cur)
            nxt = [b for b, k in outs if k == CHILD]
            if len(outs) != 1 or len(nxt) != 1:
                break
            if len(d.mb_in_edges(nxt[0])) != 1:
                break
            chain.append(nxt[0])
        if any(k == CHILD for _, k in d.mb_out_edges(chain[-1])):
            return []
        return chain

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
                if find_mapping(tp2, sub, MAPPING, allowed=allowed) is None:
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
        for chain in _chains(d):
            head, tail = chain[0], chain[-1]
            (n0, _), = d.mb_in_edges(head)
            (nc, _), = d.mb_out_edges(tail)
            run = _slash_run_between(d, n0, nc, frozenset(chain))
            if run is None or not run:
                continue
            # n0/run/nc must be a pure /-run
            maps = _chain_maps(d, chain, run, n0, nc)
            if not maps:
                continue
            images: dict[int, set[int]] = {x: set() for x in chain}
            for m in maps:
                for x, pos in m.items():
                    images[x].add(pos)
            for x in chain:
                if len(images[x]) == 1:
                    n1 = run[next(iter(images[x]))]
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
        qs = []
        for owner in sorted(d.mb_nodes()):
            for q_root, q_axis in d.pred_edges(owner):
                if q_axis == CHILD:
                    qs.append((owner, q_root))
        if not qs:
            return False
        for chain in _chains(d):
            head, tail = chain[0], chain[-1]
            (n0, _), = d.mb_in_edges(head)
            (nc, _), = d.mb_out_edges(tail)
            run = _slash_run_between(d, n0, nc, frozenset(chain))
            if run is None or not run:
                continue
            maps = _chain_maps(d, chain, run, n0, nc)
            if not maps:
                continue
            for n in run:
                for owner, q_root in qs:
                    if not added_pred_keeps_es(d, n, owner, q_root):
                        continue
                    probe = singleton_pattern(d.label(n), d, q_root, CHILD)
                    subn, _ = _subpattern_with_map(d, n)
                    if find_mapping(probe, subn, ROOT_MAPPING) is not None:
                        continue  # already implied
                    ok = True
                    for m in maps:
                        pairs = [(run[pos], x) for x, pos in m.items()]
                        got = _collapse_pairs(d, pairs)
                        if got is None:
                            ok = False
                            break
                        w2, res = got
                        sub2, _ = _subpattern_with_map(w2, res(n))
                        if find_mapping(probe, sub2, ROOT_MAPPING) is None:
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


def _linear_maps_into_run(seq: list[tuple[str, Optional[str]]], run_labels: list[str]) -> bool:
    """Whether a linear pattern maps into a /-run (labels list)."""
    m = len(run_labels)

    def rec(i: int, at: int) -> bool:
        if i == len(seq):
            return True
        label, axis = seq[i]
        if i == 0:
            for j in range(m):
                if run_labels[j] == label and rec(i + 1, j):
                    return True
            return False
        if axis == CHILD:
            j = at + 1
            return j < m and run_labels[j] == label and rec(i + 1, j)
        for j in range(at + 1, m):
            if run_labels[j] == label and rec(i + 1, j):
                return True
        return False

    return rec(0, -1)


def try_rule(rule: str, d: Pattern):
    """Attempt one rule on a copy; (new pattern, instance) or None."""
    eng = _Engine(d)
    if not eng.try_rule(rule):
        return None
    if eng.dead:
        return EMPTY, RuleInstance(rule, {})
    return eng.w, eng.trace[-1].instance


def apply_rules(d) -> tuple[object, list[TraceStep]]:
    """Fixpoint of the rule set; the result is equivalent to the input.

    The forced-collapse rule runs to saturation first and again after any
    other firing; remaining rules are scanned in a fixed order, restarting
    after each change.  An unsatisfiable working pattern collapses to
    EMPTY.
    """
    if d is EMPTY:
        return EMPTY, []
    eng = _Engine(d)
    eng.saturate_r1()
    if eng.dead or immediately_unsatisfiable(eng.w):
        return EMPTY, eng.trace
    changed = True
    while changed:
        changed = False
        for rule in RULE_ORDER:
            if eng.try_rule(rule):
                if eng.dead:
                    return EMPTY, eng.trace
                eng.saturate_r1()
                if eng.dead:
                    return EMPTY, eng.trace
                changed = True
                break
    eng.w.validate()
    return eng.w, eng.trace
