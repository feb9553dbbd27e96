"""View-based rewriting: candidate plans over lossless prefixes, the
efficient tree-only variant, exhaustive enumeration, and nested plans.

A plan intersects compensated view heads; its unfolding must be
equivalent to the query.  Only a linear number of candidates (one per
main-branch prefix) needs to be inspected for the single-level language;
nested plans go through a single minimally-containing candidate graph.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .syntax import CHILD, Compensated, Expr, Intersect, Path, Step, print_expr
from .pattern import (
    EMPTY,
    Pattern,
    ViewSet,
    _copy_into,
    _merge_run,
    _pred_of,
    compensate_expr,
    compensate_pattern,
    lossless_prefixes,
    main_branch,
    tokens,
    unfold_expr,
)
from .containment import (
    CONTAINMENT,
    dag_contained_in_tree,
    find_mapping,
    minimize,
    root_mapping_out_images,
    tree_contains,
)
from .fragments import FragmentClass, classify, extended_skeleton
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


def _view_images(views: ViewSet, q: Pattern) -> list[tuple[str, list[int]]]:
    """Each view with the images of its output under root-mappings into
    ``q``."""
    return [(name, root_mapping_out_images(v, q)) for name, v in views.items()]


def _pairs_on(images: list[tuple[str, list[int]]], p: Pattern) -> list[tuple[str, int]]:
    """(view, image) pairs of ``p`` out of the images into a pattern that
    ``p`` is a lossless prefix of.  The prefix only raises the output, so
    its root-mappings are those whose output image lies on its main
    branch."""
    mbn = p.mb_nodes()
    return [(name, b) for name, bs in images for b in bs if b in mbn]


def _view_pairs(views: ViewSet, p: Pattern) -> list[tuple[str, int]]:
    """(view, image) pairs: root-mappings of each view into the prefix."""
    return _pairs_on(_view_images(views, p), p)


def _compensated_head(name: str, p: Pattern, b: int) -> Expr:
    head = Path(name, (Step(name, CHILD),))
    return compensate_expr(head, p, b)


def _plan_expr(pairs: list[tuple[str, int]], p: Pattern) -> Expr:
    branches = tuple(_compensated_head(name, p, b) for name, b in pairs)
    if len(branches) == 1:
        return branches[0]
    return Intersect(branches)


def _skeleton_views(views: ViewSet) -> ViewSet:
    """The extended skeletons of ``views``, built once and kept until the
    next ``define``."""
    if views._skeletons is None:
        vs = ViewSet()
        for name, v in views.items():
            vs.define(name, extended_skeleton(v))
        views._skeletons = vs
    return views._skeletons


def best_comp(v: Pattern, p: Pattern) -> Pattern:
    """The view compensated at its highest mapping image in ``p``; it is
    contained in every other compensated version."""
    images = root_mapping_out_images(v, p)
    if not images:
        raise ValueError("view does not map into the prefix")
    depth = {n: i for i, n in enumerate(main_branch(p))}
    top = min(images, key=lambda n: depth[n])
    return compensate_pattern(v, p, top)


def prune_plan_fast(q: Pattern, prefix: Pattern, pairs: list[tuple[str, int]], views: ViewSet) -> bool:
    """Cheap necessary conditions; False proves there is no rewriting for
    this prefix."""
    if not pairs:
        return False
    toks = tokens(prefix)
    comp_codes = []
    for name, b in pairs:
        v = views[name]
        comp = compensate_pattern(v, prefix, b)
        comp_codes.append([t.labels(comp) for t in tokens(comp)])
    if len(toks) == 1:
        # a /-only prefix needs a view whose compensated main branch is that
        # exact /-path
        want = toks[0].labels(prefix)
        if not any(len(c) == 1 and c[0] == want for c in comp_codes):
            return False
    # root tokens must be pairwise prefix-compatible, and compatible with
    # the prefix's root token
    roots = [c[0] for c in comp_codes] + [toks[0].labels(prefix)]
    for a in roots:
        for b in roots:
            k = min(len(a), len(b))
            if a[:k] != b[:k]:
                return False
    # result tokens must be pairwise suffix-compatible
    results = [c[-1] for c in comp_codes]
    for a in results:
        for b in results:
            k = min(len(a), len(b))
            if k and a[-k:] != b[-k:]:
                return False
    return True


def filter_prefixes_by_keys(
    prefixes: list[Pattern], key_targets: list[Pattern]
) -> list[Pattern]:
    """Keep prefixes contained in some key target path."""
    return [
        p
        for p in prefixes
        if any(tree_contains(t, p) for t in key_targets)
    ]


def _candidate_for_prefix(p: Pattern, pairs: list[tuple[str, int]], dag_views: ViewSet):
    expr = _plan_expr(pairs, p)
    return expr, unfold_expr(expr, dag_views)


def _contained(d, p: Pattern, mode: str) -> tuple[bool, bool]:
    """Whether the rule-normalized unfolding ``d`` lies in the tree ``p``:
    a tree by a containment mapping, a DAG by its interleavings.  The rules
    preserve equivalence, so this is exact; efficient mode rejects DAGs.
    The second value says whether interleavings were enumerated."""
    if d is EMPTY:
        return True, False
    if d.is_tree():
        return tree_contains(p, d), False
    if mode == EFFICIENT:
        return False, False
    log.debug("fixpoint stays a %d-node DAG: enumerating interleavings", d.size())
    return dag_contained_in_tree(d, p), True


def unfolding_contained(d, p: Pattern) -> bool:
    """d ⊑ p for a DAG ``d`` and a tree ``p``: the rule fixpoint first,
    interleavings only when that fixpoint is still a DAG."""
    return _contained(apply_rules(d)[0], p, FULL)[0]


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

    ``timings`` holds the whole search (``rewriteMs``) and three of its
    phases: root-mapping images, the rule fixpoint and containment.
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
    examined = fallbacks = 0

    def outcome(*args, **kw) -> RewriteOutcome:
        timings = {"rewriteMs": (time.perf_counter() - t0) * 1e3}
        timings.update((k, v * 1e3) for k, v in spent.items())
        return RewriteOutcome(
            *args, candidates_examined=examined, timings=timings, interleaving_fallbacks=fallbacks, **kw
        )

    for p in prefixes:
        pairs = _pairs_on(images, p)
        if not pairs:
            continue
        examined += 1
        expr, d = _candidate_for_prefix(p, pairs, dag_views)
        t = time.perf_counter()
        d2, trace = apply_rules(d)
        t1 = time.perf_counter()
        ok, fell_back = _contained(d2, p, mode)
        fallbacks += fell_back
        spent["rulesMs"] += t1 - t
        spent["containmentMs"] += time.perf_counter() - t1
        if ok:
            plan_expr = compensate_expr(expr, q, p.out)
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

    if minimize(q).size() != q.size():
        log.warning("all_rewrites: query is not minimal; minimizing")
        q = minimize(q)
    images = _view_images(views, q)
    for p in lossless_prefixes(q):
        pairs = _pairs_on(images, p)
        for size in range(1, min(len(pairs), max_views) + 1):
            for subset in combinations(pairs, size):
                expr, d = _candidate_for_prefix(p, list(subset), views)
                if unfolding_contained(d, p):
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
        mb = [n for n in main_branch_order(base) if n in self.attachments]
        cur: Optional[Expr] = None
        prev: Optional[int] = None
        for node in mb:
            heads = [
                Path(name, (Step(name, CHILD),)) for name in self.attachments[node]
            ]
            if cur is None:
                preds = tuple(
                    _pred_of(base, b, k) for b, k in base.pred_edges(node)
                )
                first = heads[0]
                heads[0] = Path(
                    first.doc, (Step(first.steps[0].label, CHILD, preds),)
                )
                branches = tuple(heads)
            else:
                seg = _segment_steps(base, prev, node)
                branches = (_append_steps(cur, seg),) + tuple(heads)
            cur = branches[0] if len(branches) == 1 else Intersect(branches)
            prev = node
        seg = _segment_steps(base, prev, base.out)
        if seg:
            cur = _append_steps(cur, seg)
        return cur


def main_branch_order(p: Pattern) -> list[int]:
    mbn = p.mb_nodes()
    order = [n for n in p.topo_order() if n in mbn]
    return order


def _segment_steps(p: Pattern, a: int, b: int) -> tuple[Step, ...]:
    """Steps of the main-branch segment from a (exclusive) to b (inclusive)."""
    if a == b:
        return ()
    chain = [b]
    while chain[-1] != a:
        parents = [x for x, _ in p.mb_in_edges(chain[-1])]
        chain.append(parents[0])
    chain.reverse()
    steps = []
    for prev, cur in zip(chain, chain[1:]):
        preds = tuple(_pred_of(p, bb, kk) for bb, kk in p.pred_edges(cur))
        steps.append(Step(p.label(cur), p.axis(prev, cur), preds))
    return tuple(steps)


def _append_steps(expr: Expr, steps: tuple[Step, ...]) -> Expr:
    if isinstance(expr, Path):
        return Path(expr.doc, expr.steps + steps)
    return Compensated(expr, steps)


def build_rewrite_candidate(q: Pattern, views: ViewSet) -> Optional[RewritingGraph]:
    """The minimally-containing candidate: attach every view at every
    root-mapping image of its output, then keep only what the view heads
    reach; fail when the query output is lost."""
    attach: dict[int, list[str]] = {}
    for name, v in views.items():
        for o in root_mapping_out_images(v, q):
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
    """Nested-plan rewriting: the candidate is a rewriting iff any exists."""
    cand = build_rewrite_candidate(q, views)
    if cand is None:
        return None
    d = cand.unfold()
    # q ⊑ unfold via a containment mapping; unfold ⊑ q via the rule fixpoint
    if find_mapping(d, q, CONTAINMENT) is None or not unfolding_contained(d, q):
        return None
    return cand
