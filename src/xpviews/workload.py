"""Synthetic query/view/document workloads and the benchmark harness.

Queries are sampled from paths of a generated document so they are never
empty.  Useful views are random generalizations of the query (edges
relaxed to //, predicates dropped, output raised) that jointly admit a
rewriting but individually do not; useless views are built over a
disjoint label pool and verified not to map into the query.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from .syntax import CHILD, DESC
from .pattern import CapExceeded, Pattern, ViewSet, lossless_prefixes, main_branch
from .containment import has_mapping, ROOT_MAPPING
from .documents import (
    TreeGenConfig,
    XmlTree,
    eval_tree_pattern,
    generate_tree,
    materialize_all,
    eval_plan,
)
from .fragments import FragmentClass, classify
from .rewrite import EFFICIENT, RewriteOutcome, equivalent, rewrite_detailed


class GenerationTimeout(RuntimeError):
    """The joint-rewritability constraint could not be met in budget."""


CATEGORIES = {
    "es": FragmentClass.EXTENDED_SKELETON,
    "slashslash": FragmentClass.SLASH_SLASH,
    "full": FragmentClass.FULL,
}


@dataclass
class GenConfig:
    seed: int = 0
    main_branch_size: int = 5
    category: str = "es"
    view_set_size: int = 40
    useful_ratio: float = 0.10
    doc: TreeGenConfig = field(default_factory=TreeGenConfig)
    retry_budget: int = 60

    def __post_init__(self):
        if not (0 < self.useful_ratio <= 1):
            raise ValueError("useful_ratio must be in (0, 1]")
        if self.category not in CATEGORIES:
            raise ValueError(f"category must be one of {sorted(CATEGORIES)}")


# ---------------------------------------------------------------------------
# random patterns


def _doc_paths(t: XmlTree, length: int) -> list[list[int]]:
    """Root-anchored node paths of the requested length (root included)."""
    paths = []
    stack = [[t.root]]
    while stack:
        path = stack.pop()
        if len(path) == length:
            paths.append(path)
            continue
        for c in t.children[path[-1]]:
            stack.append(path + [c])
    return paths


def _sample_query(rng: random.Random, t: XmlTree, cfg: GenConfig) -> Optional[Pattern]:
    paths = _doc_paths(t, cfg.main_branch_size)
    if not paths:
        return None
    path = rng.choice(sorted(paths))
    q = Pattern()
    q.root = q.add_node(t.labels[path[0]])
    prev_doc, prev_q = path[0], q.root
    for doc_node in path[1:]:
        axis = DESC if rng.random() < 0.4 else CHILD
        nid = q.add_node(t.labels[doc_node])
        q.add_edge(prev_q, nid, axis)
        # sprinkle predicates taken from actual children of the path
        if rng.random() < 0.5:
            side = [c for c in t.children[doc_node] if c not in path]
            if side:
                c = rng.choice(sorted(side))
                pid = q.add_node(t.labels[c])
                q.add_edge(nid, pid, CHILD)
        prev_doc, prev_q = doc_node, nid
    q.out = prev_q
    return _shape_category(rng, q, t, path, cfg.category)


def _shape_category(
    rng: random.Random, q: Pattern, t: XmlTree, path: list[int], category: str
) -> Optional[Pattern]:
    mb = main_branch(q)
    if category == "slashslash":
        # a predicate hung by // directly off a non-output main-branch node
        for idx in range(1, len(mb) - 1):
            deep = [d for d in t.descendants(path[idx]) if d not in path]
            if deep:
                c = rng.choice(sorted(deep))
                pid = q.add_node(t.labels[c])
                q.add_edge(mb[idx], pid, DESC)
                break
        else:
            return None
    elif category == "full":
        # a /-attached predicate whose //-subpredicate code collides with
        # the main branch below the node
        for idx in range(1, len(mb) - 1):
            below = q.label(mb[idx + 1])
            side = [c for c in t.children[path[idx]] if t.labels[c] == below]
            deep = [d for d in t.descendants(path[idx]) if d not in path]
            if side and deep:
                c = rng.choice(sorted(side))
                dpick = rng.choice(sorted(deep))
                pid = q.add_node(t.labels[c])
                q.add_edge(mb[idx], pid, CHILD)
                did = q.add_node(t.labels[dpick])
                q.add_edge(pid, did, DESC)
                break
        else:
            return None
    if classify(q) is not CATEGORIES[category]:
        return None
    if not eval_tree_pattern(q, t):
        return None
    return q


def _generalize(rng: random.Random, q: Pattern) -> Optional[Pattern]:
    """One random useful-view candidate: q with edges relaxed, predicates
    dropped, or the output raised."""
    v = q.clone()
    moves = 0
    mb = main_branch(v)
    # raise the output with some probability (compensation restores it)
    if rng.random() < 0.4 and len(mb) > 2:
        cut = rng.randrange(2, len(mb))
        if cut < len(mb):
            v.out = mb[cut - 1]
            drop = set()
            for n in mb[cut:]:
                drop |= {n} | v.descendants(n)
            v.remove_nodes(drop)
            moves += 1
            mb = mb[:cut]
    slash_edges = [
        (a, b) for a, b, k in sorted(v.edges) if k == CHILD and b in v.mb_nodes()
    ]
    for (a, b) in slash_edges:
        if rng.random() < 0.35:
            v.remove_edge(a, b, CHILD)
            v.add_edge(a, b, DESC)
            moves += 1
    for n in list(v.mb_nodes()):
        for b, k in v.pred_edges(n):
            if rng.random() < 0.4:
                v.remove_nodes(v.descendants(b) | {b})
                moves += 1
    if moves == 0:
        return None
    return v


def _useless_view(rng: random.Random, doc_label: str, pool: list[str]) -> Pattern:
    v = Pattern()
    v.root = v.add_node(doc_label)
    cur = v.root
    for _ in range(rng.randint(1, 3)):
        nid = v.add_node(rng.choice(pool))
        v.add_edge(cur, nid, DESC if rng.random() < 0.5 else CHILD)
        cur = nid
    v.out = cur
    return v


def _single_view_rewrites(q: Pattern, v: Pattern, name: str) -> bool:
    vs = ViewSet({name: v})
    return rewrite_detailed(q, vs, EFFICIENT).plan is not None


def _equivalent_to_prefix(q: Pattern, v: Pattern) -> bool:
    return any(equivalent(v, p) for p in lossless_prefixes(q))


def generate_workload(cfg: GenConfig) -> tuple[XmlTree, Pattern, ViewSet]:
    """Deterministic workload: document, query, and a view set with the
    configured useful/useless split."""
    rng = random.Random(cfg.seed)
    doc_cfg = cfg.doc
    if doc_cfg.depth < cfg.main_branch_size + 1:
        doc_cfg = TreeGenConfig(
            depth=cfg.main_branch_size + 2,
            fanout=doc_cfg.fanout,
            labels=doc_cfg.labels,
            seed=doc_cfg.seed or cfg.seed,
            text_values=doc_cfg.text_values,
            root_label=doc_cfg.root_label,
        )
    t = generate_tree(doc_cfg)
    n_useful = max(2, round(cfg.view_set_size * cfg.useful_ratio))
    n_useless = cfg.view_set_size - n_useful

    for attempt in range(cfg.retry_budget):
        q = _sample_query(rng, t, cfg)
        if q is None:
            continue
        useful: list[Pattern] = []
        tries = 0
        while len(useful) < n_useful and tries < 40 * n_useful:
            tries += 1
            v = _generalize(rng, q)
            if v is None:
                continue
            if _equivalent_to_prefix(q, v):
                continue
            if _single_view_rewrites(q, v, "probe"):
                continue
            useful.append(v)
        if len(useful) < n_useful:
            continue
        views = ViewSet()
        for i, v in enumerate(useful):
            views.define(f"u{i}", v)
        probe = rewrite_detailed(q, views, EFFICIENT)
        if probe.plan is None:
            continue
        pool = [f"zz{i}" for i in range(6)]
        full = ViewSet()
        for i, v in enumerate(useful):
            full.define(f"u{i}", v)
        for i in range(n_useless):
            while True:
                v = _useless_view(rng, t.labels[t.root], pool)
                if not has_mapping(v, q, ROOT_MAPPING):
                    break
            full.define(f"x{i}", v)
        return t, q, full
    raise GenerationTimeout(
        f"no workload for seed={cfg.seed} size={cfg.main_branch_size} "
        f"category={cfg.category} within {cfg.retry_budget} attempts"
    )


# ---------------------------------------------------------------------------
# benchmark harness


@dataclass
class BenchReport:
    seed: int
    category: str
    main_branch_size: int
    view_set_size: int
    status: str  # 'rewritten' | 'noRewriting' | 'capExceeded'
    rewrite_ms: float
    plan_eval_ms: float
    direct_eval_ms: float
    plan_size: int
    counters: dict  # RewriteOutcome.counters()

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "category": self.category,
            "mainBranchSize": self.main_branch_size,
            "viewSetSize": self.view_set_size,
            "status": self.status,
            "rewriteTimeMs": round(self.rewrite_ms, 3),
            "planEvalTimeMs": round(self.plan_eval_ms, 3),
            "directEvalTimeMs": round(self.direct_eval_ms, 3),
            "planSize": self.plan_size,
            **self.counters,
        }


def _median_time(fn, warmup: int = 3, reps: int = 7) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def bench(cfg: GenConfig, mode: str = EFFICIENT, warmup: int = 3, reps: int = 7) -> BenchReport:
    t, q, views = generate_workload(cfg)
    status = "rewritten"
    try:
        outcome = rewrite_detailed(q, views, mode)
        rewrite_ms = _median_time(lambda: rewrite_detailed(q, views, mode), warmup, reps)
    except CapExceeded:
        return BenchReport(
            cfg.seed, cfg.category, cfg.main_branch_size, cfg.view_set_size,
            "capExceeded", 0.0, 0.0, 0.0, 0, RewriteOutcome(None, "capExceeded").counters(),
        )
    if outcome.plan is None:
        status = "noRewriting"
        plan_ms = 0.0
        plan_size = 0
    else:
        docs = materialize_all(views, t)
        expr = outcome.plan.expr
        plan_ms = _median_time(lambda: eval_plan(expr, docs), warmup, reps)
        plan_size = len(outcome.plan.text)
    direct_ms = _median_time(lambda: eval_tree_pattern(q, t), warmup, reps)
    return BenchReport(
        cfg.seed,
        cfg.category,
        cfg.main_branch_size,
        cfg.view_set_size,
        status,
        rewrite_ms,
        plan_ms,
        direct_ms,
        plan_size,
        outcome.counters(),
    )
