"""View-based rewriting: candidate plans over lossless prefixes, the
efficient tree-only variant, exhaustive enumeration, and nested plans.

A plan intersects compensated view heads; its unfolding must be
equivalent to the query.  Only a linear number of candidates (one per
main-branch prefix) needs to be inspected for the single-level language,
and each is decided on its least (view, image) pairs; only views whose
main branch embeds in the query's are root-mapped.  Nested plans go
through a single minimally-containing candidate graph, decided on its
least attachments.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .syntax import CHILD, Compensated, Expr, Intersect, Path, Step, print_expr
from .pattern import (
    EMPTY,
    Pattern,
    ViewSet,
    _copy_into,
    _merge_run,
    _pred_of,
    _step_of,
    compensate_expr,
    dag_intersect,
    lossless_prefixes,
    main_branch,
    relative_ast,
    unfold_expr,
)
from .containment import (
    dag_contained_in_tree,
    minimize,
    root_mapping_out_images,
    tree_contains,
)
from .fragments import FragmentClass, classify, extended_skeleton
from .interleaving import bounded_interleaving
from .rules import TraceStep, apply_rules

log = logging.getLogger(__name__)

FULL = "full"
EFFICIENT = "efficient"


@dataclass
class RewritePlan:
    """An intersection of compensated view heads, possibly compensated
    again, plus the unfold linkage to the view definitions."""

    expr: Expr
    views: ViewSet

    @property
    def text(self) -> str:
        return print_expr(self.expr)

    def unfold(self):
        return unfold_expr(self.expr, self.views)


@dataclass
class RewriteOutcome:
    plan: Optional[RewritePlan]
    status: str  # 'rewritten' | 'noRewriting'
    prefix_index: Optional[int] = None
    trace: list[TraceStep] = field(default_factory=list)
    candidates_examined: int = 0
    timings: dict = field(default_factory=dict)
    interleaving_fallbacks: int = 0  # prefixes whose fixpoint stayed a DAG
    views_mapped: int = 0  # views that passed the main-branch screen
    pairs_seen: int = 0  # (view, image) pairs over the examined prefixes
    pairs_kept: int = 0  # of those, the least pairs, which the rules read first
    least_pair_retries: int = 0  # prefixes whose rules reran on every pair
    witness_refutations: int = 0  # prefixes rejected by one interleaving instead

    def counters(self) -> dict:
        """The search's counters by the names the JSON reports give them."""
        return {name: getattr(self, attr) for attr, name in COUNTERS.items()}


# RewriteOutcome's counters: attribute -> JSON name
COUNTERS = {
    "candidates_examined": "candidatesExamined",
    "views_mapped": "viewsMapped",
    "pairs_seen": "pairsSeen",
    "pairs_kept": "pairsKept",
    "least_pair_retries": "leastPairRetries",
    "witness_refutations": "witnessRefutations",
    "interleaving_fallbacks": "interleavingFallbacks",
}


def _signature(p: Pattern) -> tuple:
    """The main-branch signature of a tree pattern: its root label, then a
    ``(label, axis)`` per step."""
    mb = main_branch(p)
    return (p.label(mb[0]),) + tuple((p.label(b), p.axis(a, b)) for a, b in zip(mb, mb[1:]))


def _signatures(views: ViewSet) -> list[tuple[str, Pattern, tuple]]:
    """Each view with its signature, built on the first rewrite and kept
    until the next ``define``."""
    if views._signatures is None:
        views._signatures = [(name, v, _signature(v)) for name, v in views.items()]
    return views._signatures


def _embeds(sig: tuple, target: tuple) -> bool:
    """Whether a main-branch signature embeds in order into the ``target``
    one: same root label, a / step onto the next step of the same label
    and axis, a // step onto any later step of the same label.  Text tests
    are not part of a signature."""
    if sig[0] != target[0]:
        return False
    at = [0]  # the positions the steps so far can end on, ascending
    for step in sig[1:]:
        if step[1] == CHILD:
            at = [j + 1 for j in at if j + 1 < len(target) and target[j + 1] == step]
        else:
            at = [j for j in range(at[0] + 1, len(target)) if target[j][0] == step[0]]
        if not at:
            return False
    return True


def _view_images(views: ViewSet, q: Pattern) -> list[tuple[str, list[int]]]:
    """The views that may root-map into ``q``, in name order, each with the
    images of its output under root-mappings into ``q``.

    A root-mapping sends a view's main branch in order onto the main branch
    of ``q``, so a view whose signature does not embed in ``q``'s has no
    image and is left out; the others are mapped.  Views share signatures,
    so each distinct one is tested once per call."""
    target = _signature(q)
    passed: dict[tuple, bool] = {}
    images = []
    for name, v, sig in _signatures(views):
        ok = passed.get(sig)
        if ok is None:
            ok = passed[sig] = _embeds(sig, target)
        if ok:
            images.append((name, root_mapping_out_images(v, q)))
    return images


def _pairs_on(images: list[tuple[str, list[int]]], p: Pattern) -> list[tuple[str, int]]:
    """(view, image) pairs of ``p`` out of the images into a pattern that
    ``p`` is a lossless prefix of.  The prefix only raises the output, so
    its root-mappings are those whose output image lies on its main
    branch."""
    mbn = p.mb_nodes()
    return [(name, b) for name, bs in images for b in bs if b in mbn]


def _compensated_heads(pairs: list[tuple[str, int]], p: Pattern) -> list[Path]:
    """The head ``doc(v)/v`` of each (view, image) pair, compensated by the
    image's predicates and continuation in ``p``, each image's computed
    once."""
    comp: dict[int, tuple] = {}
    heads = []
    for name, b in pairs:
        if b not in comp:
            comp[b] = relative_ast(p, b)
        preds, steps = comp[b]
        heads.append(Path(name, (Step(name, CHILD, preds),) + steps))
    return heads


def _intersection(branches: list[Expr]) -> Expr:
    return branches[0] if len(branches) == 1 else Intersect(tuple(branches))


def _plan_expr(pairs: list[tuple[str, int]], p: Pattern) -> Expr:
    return _intersection(_compensated_heads(pairs, p))


def _skeleton_views(views: ViewSet) -> ViewSet:
    """The extended skeletons of ``views``, built once and kept until the
    next ``define``."""
    if views._skeletons is None:
        vs = ViewSet()
        for name, v in views.items():
            vs.define(name, extended_skeleton(v))
        views._skeletons = vs
    return views._skeletons


def filter_prefixes_by_keys(
    prefixes: list[Pattern], key_targets: list[Pattern]
) -> list[Pattern]:
    """Keep prefixes contained in some key target path."""
    return [
        p
        for p in prefixes
        if any(tree_contains(t, p) for t in key_targets)
    ]


def _contained(d, p, mode: str) -> tuple[bool, bool]:
    """Whether the rule fixpoint ``d`` lies in ``p`` (a tree, a DAG or
    EMPTY): a tree by a containment mapping, a DAG by its interleavings.
    The rules preserve equivalence, so this is exact; efficient mode
    rejects DAGs.  The second value says whether interleavings were
    enumerated."""
    if d is EMPTY:
        return True, False
    if d.is_tree():
        return tree_contains(p, d), False
    if mode == EFFICIENT:
        return False, False
    log.debug("fixpoint stays a %d-node DAG: enumerating interleavings", d.size())
    return dag_contained_in_tree(d, p), True


def contains(p1, p2) -> bool:
    """p2 ⊑ p1, for EMPTY, tree or DAG patterns on either side.

    A tree ``p2`` is decided by one containment mapping from ``p1``.  A DAG
    goes through the rule fixpoint first, which preserves equivalence, and
    its interleavings are enumerated only when that fixpoint stays a DAG.
    Containment mappings are complete for this wildcard-free fragment
    (Miklau and Suciu, JACM 2004), so the decision is exact."""
    if p2 is not EMPTY and not p2.is_tree():
        p2 = apply_rules(p2)[0]
    return _contained(p2, p1, FULL)[0]


def equivalent(p1, p2) -> bool:
    """Whether ``p1`` and ``p2`` denote the same nodes: each contains the
    other."""
    return contains(p1, p2) and contains(p2, p1)


def _least_pairs(units: list[Pattern]) -> list[int]:
    """The positions of the least of ``units``, tree patterns to intersect:
    the unfoldings of a prefix's compensated heads in pair order, or the
    views attached at one node of a nested candidate.  A pattern contained
    in another makes that one redundant in the intersection (A ∩ B = A when
    A ⊑ B), so the least ones intersect to the same nodes as all of them.
    One sweep drops a pattern when it contains a kept one, and otherwise
    lets it replace the kept ones that contain it.  Among equivalent
    patterns the first stays."""
    kept: list[int] = []
    for i, h in enumerate(units):
        if any(tree_contains(h, units[j]) for j in kept):
            continue
        kept = [j for j in kept if not tree_contains(units[j], h)]
        kept.append(i)
    return kept


def _decide(
    least: Pattern,
    every: Optional[Callable[[], Pattern]],
    p: Pattern,
    mode: str,
    spent: dict,
    counts: dict,
) -> tuple[bool, list[TraceStep]]:
    """Whether ``p`` contains an intersection, and the trace of the rule
    fixpoint decided on.  ``least`` unfolds the intersection of its least
    parts, which is equivalent to the whole; ``every()`` unfolds the whole
    when parts were dropped, and is None otherwise.

    The rules are syntax-sensitive: equivalent parts can differ in what they
    let merge.  So when parts were dropped and the fixpoint of ``least``
    stays a DAG, one bounded interleaving of it, which lies in the
    intersection, may refute it (``witness_refutations``); failing that,
    the rules run again on ``every()`` (``least_pair_retries``), and the
    decision is never weaker than on every part.  ``_contained`` decides
    the fixpoint.  Time goes to ``spent``'s ``rulesMs`` and
    ``containmentMs``."""
    t = time.perf_counter()
    d, trace = apply_rules(least)
    spent["rulesMs"] += time.perf_counter() - t
    if every is not None and d is not EMPTY and not d.is_tree():
        t = time.perf_counter()
        witness = bounded_interleaving(d)
        refuted = witness is not None and not tree_contains(p, witness)
        spent["containmentMs"] += time.perf_counter() - t
        if refuted:
            counts["witness_refutations"] += 1
            return False, trace
        counts["least_pair_retries"] += 1
        t = time.perf_counter()
        d, trace = apply_rules(every())
        spent["rulesMs"] += time.perf_counter() - t
    t = time.perf_counter()
    ok, fell_back = _contained(d, p, mode)
    counts["interleaving_fallbacks"] += fell_back
    spent["containmentMs"] += time.perf_counter() - t
    return ok, trace


def rewrite_detailed(
    q: Pattern,
    views: ViewSet,
    mode: str = FULL,
    key_targets: Optional[list[Pattern]] = None,
) -> RewriteOutcome:
    """The prefix-driven rewriting search.

    Iterates lossless prefixes root-first; for each, intersects every
    compensated view that root-maps into it, normalizes the unfolding with
    the rule engine and tests containment in the prefix.  In efficient
    mode the containment test runs only when the rules produced a tree.

    Only views that pass ``_view_images``' main-branch screen are mapped
    (``views_mapped``).  The decision reads only the least pairs of each
    prefix (``_least_pairs``), whose heads intersect to the same nodes as
    those of all pairs, and turns to every pair as ``_decide`` says; the
    plan still lists every pair.  ``trace`` is that of the fixpoint decided
    on.

    ``timings`` holds the whole search (``rewriteMs``) and three of its
    phases: root-mapping images, the rule fixpoint, and containment (the
    least-pairs sweep and the final test).
    """
    t0 = time.perf_counter()
    q.validate()
    mb = main_branch(q)
    prefixes = lossless_prefixes(q)
    if key_targets is not None:
        prefixes = filter_prefixes_by_keys(prefixes, key_targets)
    dag_views = views
    if classify(q) is FragmentClass.EXTENDED_SKELETON:
        dag_views = _skeleton_views(views)
    t = time.perf_counter()
    images = _view_images(views, q)
    spent = {"mappingMs": time.perf_counter() - t, "rulesMs": 0.0, "containmentMs": 0.0}
    counts = dict.fromkeys(COUNTERS, 0)
    counts["views_mapped"] = len(images)

    def outcome(*args, **kw) -> RewriteOutcome:
        timings = {"rewriteMs": (time.perf_counter() - t0) * 1e3}
        timings.update((k, v * 1e3) for k, v in spent.items())
        return RewriteOutcome(*args, timings=timings, **counts, **kw)

    def intersect(units: list[Pattern]):
        # apply_rules works on a copy, so a lone unfolding needs none
        return units[0] if len(units) == 1 else dag_intersect(units)

    for p in prefixes:
        pairs = _pairs_on(images, p)
        if not pairs:
            continue
        heads = _compensated_heads(pairs, p)
        units = [unfold_expr(h, dag_views) for h in heads]
        t = time.perf_counter()
        kept = _least_pairs(units)
        spent["containmentMs"] += time.perf_counter() - t
        counts["candidates_examined"] += 1
        counts["pairs_seen"] += len(pairs)
        counts["pairs_kept"] += len(kept)
        every = (lambda: intersect(units)) if len(kept) < len(pairs) else None
        ok, trace = _decide(intersect([units[i] for i in kept]), every, p, mode, spent, counts)
        if ok:
            plan_expr = compensate_expr(_intersection(heads), q, p.out)
            return outcome(
                RewritePlan(plan_expr, views),
                "rewritten",
                prefix_index=mb.index(p.out),
                trace=trace,
            )
    return outcome(None, "noRewriting")


def rewrite(
    q: Pattern,
    views: ViewSet,
    mode: str = FULL,
    **kw,
) -> Optional[RewritePlan]:
    return rewrite_detailed(q, views, mode, **kw).plan


def all_rewrites(
    q: Pattern, views: ViewSet, max_views: int = 8
) -> Iterator[RewritePlan]:
    """Every minimal rewriting, enumerating view subsets per prefix
    (smallest subsets first, capped at ``max_views`` views)."""
    from itertools import combinations

    m = minimize(q)
    if m.size() != q.size():
        log.warning("all_rewrites: query is not minimal; minimizing")
        q = m
    images = _view_images(views, q)
    for p in lossless_prefixes(q):
        pairs = _pairs_on(images, p)
        for size in range(1, min(len(pairs), max_views) + 1):
            for subset in combinations(pairs, size):
                expr = _plan_expr(list(subset), p)
                if contains(p, unfold_expr(expr, views)):
                    yield RewritePlan(compensate_expr(expr, q, p.out), views)


# ---------------------------------------------------------------------------
# nested plans (rewriting graphs)


@dataclass
class RewritingGraph:
    """The query pattern with view heads attached at mapping images.

    ``attachments`` maps a query node to the views whose output maps
    there; nodes not reachable from any view head have been dropped.
    """

    base: Pattern  # pruned copy of the query pattern
    attachments: dict[int, list[str]]
    views: ViewSet

    def unfold(self):
        acc = self.base.clone()
        pairs, roots = [], []
        for node, names in sorted(self.attachments.items()):
            for name in names:
                v = self.views[name]
                ren = _copy_into(acc, v)
                roots.append(ren[v.root])
                # the view output coalesces with its attachment point
                pairs.append((node, ren[v.out]))
        # all view definitions read the same document: one root
        res = _merge_run(acc, pairs + [(roots[0], r) for r in roots[1:]])
        acc.root, acc.out = res(roots[0]), res(self.base.out)
        return acc

    def to_expr(self) -> Expr:
        """Serialize as a nested intersection along the main branch.

        The first attachment node's own predicates ride on its first view
        head; later nodes' predicates are carried by the connecting
        segments.
        """
        base = self.base
        mb = main_branch(base)
        # steps[i] leads from mb[i] to mb[i + 1] and carries its predicates
        steps = tuple(_step_of(base, a, b) for a, b in zip(mb, mb[1:]))
        cur: Optional[Expr] = None
        prev = 0
        for i, node in enumerate(mb):
            if node not in self.attachments:
                continue
            heads = [Path(name, (Step(name, CHILD),)) for name in self.attachments[node]]
            if cur is None:
                preds = tuple(_pred_of(base, b, k) for b, k in base.pred_edges(node))
                heads[0] = Path(heads[0].doc, (Step(heads[0].doc, CHILD, preds),))
                branches = tuple(heads)
            else:
                branches = (_append_steps(cur, steps[prev:i]),) + tuple(heads)
            cur = branches[0] if len(branches) == 1 else Intersect(branches)
            prev = i
        if steps[prev:]:
            cur = _append_steps(cur, steps[prev:])
        return cur


def _append_steps(expr: Expr, steps: tuple[Step, ...]) -> Expr:
    if isinstance(expr, Path):
        return Path(expr.doc, expr.steps + steps)
    return Compensated(expr, steps)


def build_rewrite_candidate(q: Pattern, views: ViewSet) -> Optional[RewritingGraph]:
    """The minimally-containing candidate: attach every view at every
    root-mapping image of its output, then keep only what the view heads
    reach; fail when the query output is lost."""
    attach: dict[int, list[str]] = {}
    for name, images in _view_images(views, q):
        for o in images:
            attach.setdefault(o, []).append(name)
    if not attach:
        return None
    reachable: set[int] = set()
    for node in attach:
        reachable.add(node)
        reachable |= q.descendants(node)
    if q.out not in reachable:
        return None
    base = q.clone()
    base.remove_nodes(set(q.nodes) - reachable)
    # The attachment points sit on the query's main branch, so the highest
    # one dominates everything kept and becomes the region's root.
    base.root = base.topo_order()[0]
    base.out = q.out
    base._dirty()
    pruned_attach = {n: sorted(v) for n, v in attach.items() if n in base.nodes}
    return RewritingGraph(base, pruned_attach, views)


def nested_rewrite(q: Pattern, views: ViewSet) -> Optional[RewritingGraph]:
    """Nested-plan rewriting: the candidate is a rewriting iff any exists.

    q ⊑ unfold holds by construction: each view root-maps into q with its
    output at its attachment node, and with the identity on the base these
    mappings agree on every merged node, so together they map the unfolding
    into q.  Only unfold ⊑ q is decided, on the least views of each
    attachment node (``_least_pairs``): at one node a view that contains
    another adds nothing to the intersection."""
    cand = build_rewrite_candidate(q, views)
    if cand is None:
        return None
    least = {}
    for node, names in cand.attachments.items():
        kept = _least_pairs([views[name] for name in names])
        least[node] = [names[i] for i in kept]
    small = RewritingGraph(cand.base, least, views).unfold()
    every = cand.unfold if least != cand.attachments else None
    ok, _ = _decide(small, every, q, FULL, Counter(), Counter())
    return cand if ok else None
