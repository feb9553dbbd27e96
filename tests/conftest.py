"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately naive re-implementations (exhaustive
enumeration) kept independent of the library code paths they check.
"""

from __future__ import annotations

import itertools
import random

import pytest

from xpviews import EMPTY, Pattern, ViewSet, tree_from_text
from xpviews.syntax import CHILD, DESC
from xpviews.pattern import main_branch
from xpviews.fragments import FragmentClass, classify


# ---------------------------------------------------------------------------
# random patterns


def random_tree_pattern(
    rng: random.Random,
    mb_len: int = 4,
    labels: tuple[str, ...] = ("a", "b", "c"),
    pred_prob: float = 0.4,
    dd_prob: float = 0.45,
    max_pred_depth: int = 2,
    root_label: str = "L",
    out_label: str | None = None,
) -> Pattern:
    p = Pattern()
    p.root = p.add_node(root_label)
    cur = p.root
    for i in range(mb_len):
        last = i == mb_len - 1
        label = out_label if (last and out_label) else rng.choice(labels)
        nid = p.add_node(label)
        p.add_edge(cur, nid, DESC if rng.random() < dd_prob else CHILD)
        cur = nid
        if rng.random() < pred_prob:
            _random_pred(rng, p, cur, labels, max_pred_depth)
    p.out = cur
    return p


def _random_pred(rng, p, at, labels, depth):
    nid = p.add_node(rng.choice(labels))
    p.add_edge(at, nid, DESC if rng.random() < 0.35 else CHILD)
    if depth > 1 and rng.random() < 0.4:
        _random_pred(rng, p, nid, labels, depth - 1)


def random_es_pattern(rng: random.Random, **kw) -> Pattern:
    """Random extended-skeleton pattern (resamples until it qualifies)."""
    for _ in range(200):
        p = random_tree_pattern(rng, **kw)
        if classify(p) is FragmentClass.EXTENDED_SKELETON:
            return p
    raise AssertionError("could not sample an extended skeleton")


def random_intersection(
    rng: random.Random, branches: int = 2, es_only: bool = False, **kw
):
    """A satisfiable-looking DAG built by coalescing random patterns that
    share root and output labels."""
    from xpviews.pattern import dag_intersect

    out_label = rng.choice(kw.get("labels", ("a", "b", "c")))
    parts = []
    for _ in range(branches):
        gen = random_es_pattern if es_only else random_tree_pattern
        parts.append(gen(rng, out_label=out_label, **kw))
    return dag_intersect(parts)


def random_dag_corpus(seed: int, count: int):
    """``count`` satisfiable-looking DAGs, alternately built from extended
    skeletons and from arbitrary tree patterns: yields (built from
    skeletons, DAG, the branches it intersects)."""
    from xpviews.pattern import dag_intersect

    rng = random.Random(seed)
    made = 0
    while made < count:
        out_label = rng.choice("abc")
        es = made % 2 == 0
        gen = random_es_pattern if es else random_tree_pattern
        parts = [
            gen(rng, mb_len=rng.randint(1, 4), out_label=out_label)
            for _ in range(rng.randint(2, 3))
        ]
        d = dag_intersect(parts)
        if d is EMPTY or len(d.mb_nodes()) > 12:
            continue
        made += 1
        yield es, d, parts


# ---------------------------------------------------------------------------
# independent oracles


def brute_embeddings(p: Pattern, t) -> list[dict[int, int]]:
    """Every embedding of a pattern into a tree, by exhaustive assignment."""
    nodes = sorted(p.nodes)
    tnodes = sorted(t.labels)
    results = []

    def extend(i: int, assign: dict[int, int]) -> None:
        if i == len(nodes):
            results.append(dict(assign))
            return
        n = nodes[i]
        for x in tnodes:
            if t.labels[x] != p.label(n):
                continue
            req = p.test(n)
            if req is not None and t.texts[x] != req:
                continue
            if n == p.root and x != t.root:
                continue
            ok = True
            for a, k in p.in_edges(n):
                if a in assign:
                    if k == CHILD and t.parent[x] != assign[a]:
                        ok = False
                        break
                    if k == DESC and not t.is_strict_descendant(x, assign[a]):
                        ok = False
                        break
            for b, k in p.out_edges(n):
                if b in assign:
                    if k == CHILD and t.parent[assign[b]] != x:
                        ok = False
                        break
                    if k == DESC and not t.is_strict_descendant(assign[b], x):
                        ok = False
                        break
            if ok:
                assign[n] = x
                extend(i + 1, assign)
                del assign[n]

    extend(0, {})
    return results


def pinned_out_images(src: Pattern, dst: Pattern) -> list[int]:
    """Images of OUT(src) under root-mappings into ``dst``: one exhaustive
    search per main-branch node of ``dst``, pinned as the output's image."""
    below: dict[int, set[int]] = {}
    for n in dst.nodes:
        seen: set[int] = set()
        stack = [b for a, b, _ in dst.edges if a == n]
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(b for a, b, _ in dst.edges if a == x)
        below[n] = seen
    src_mb, dst_mb = src.mb_nodes(), dst.mb_nodes()
    order = sorted(src.nodes)

    def linked(x: int, y: int, k: str) -> bool:
        return (x, y, CHILD) in dst.edges if k == CHILD else y in below[x]

    def fits(n: int, x: int, assign: dict[int, int]) -> bool:
        if src.label(n) != dst.label(x):
            return False
        if src.test(n) is not None and src.test(n) != dst.test(x):
            return False
        if n in src_mb and x not in dst_mb:
            return False
        if n == src.root and x != dst.root:
            return False
        for a, b, k in src.edges:
            if b == n and a in assign and not linked(assign[a], x, k):
                return False
            if a == n and b in assign and not linked(x, assign[b], k):
                return False
        return True

    def search(i: int, assign: dict[int, int], pin: int) -> bool:
        if i == len(order):
            return True
        n = order[i]
        for x in [pin] if n == src.out else sorted(dst.nodes):
            if fits(n, x, assign):
                assign[n] = x
                if search(i + 1, assign, pin):
                    return True
                del assign[n]
        return False

    return [x for x in sorted(dst_mb) if search(0, {}, x)]


def brute_eval(p: Pattern, t) -> set[int]:
    if p is EMPTY:
        return set()
    return {e[p.out] for e in brute_embeddings(p, t)}


def two_branch_merges(p1: Pattern, p2: Pattern) -> set:
    """Canonical keys of all interleavings of dag(p1 & p2), enumerated by a
    direct shuffle-merge of the two main branches.

    Chains advance one position at a time; a /-edge pins its child to the
    next position, and the two outputs (one coalesced node) must share the
    final position.
    """
    from xpviews.pattern import canon_key

    def copy_subtree(dst, src, sub_root, attach, axis):
        stack = [(sub_root, attach, axis)]
        while stack:
            n, at, k = stack.pop()
            nid = dst.add_node(src.nodes[n].label, src.nodes[n].test)
            dst.add_edge(at, nid, k)
            stack.extend((b, nid, kk) for b, kk in reversed(src.out_edges(n)))

    if p1.label(p1.root) != p2.label(p2.root) or p1.label(p1.out) != p2.label(p2.out):
        return set()
    b1, b2 = main_branch(p1), main_branch(p2)
    results = set()

    def build(entries):
        q = Pattern()
        spine = []
        for k, group in enumerate(entries):
            pp0, n0 = group[0]
            nid = q.add_node(pp0.label(n0))
            spine.append(nid)
            if k:
                slash = any(
                    pp is pp2 and (n, n2, CHILD) in pp.edges
                    for (pp, n) in entries[k - 1]
                    for (pp2, n2) in group
                )
                q.add_edge(spine[k - 1], nid, CHILD if slash else DESC)
            seen = set()
            for (pp, n) in group:
                for bb, kk in pp.pred_edges(n):
                    key = (kk, canon_key(pp, bb))
                    if key not in seen:
                        seen.add(key)
                        copy_subtree(q, pp, bb, nid, kk)
        q.root = spine[0]
        q.out = spine[-1]
        return canon_key(q)

    def rec(i, j, entries):
        if i == len(b1) and j == len(b2):
            results.add(build(entries))
            return
        prev = entries[-1]
        in_prev_1 = i > 0 and (p1, b1[i - 1]) in prev
        in_prev_2 = j > 0 and (p2, b2[j - 1]) in prev
        forced1 = (
            i < len(b1) and in_prev_1 and (b1[i - 1], b1[i], CHILD) in p1.edges
        )
        forced2 = (
            j < len(b2) and in_prev_2 and (b2[j - 1], b2[j], CHILD) in p2.edges
        )
        can1 = i < len(b1) and ((b1[i - 1], b1[i], CHILD) not in p1.edges or in_prev_1)
        can2 = j < len(b2) and ((b2[j - 1], b2[j], CHILD) not in p2.edges or in_prev_2)
        # the coalesced output occupies one position: neither tail may be
        # placed alone while the other chain still has nodes left
        last1 = i == len(b1) - 1
        last2 = j == len(b2) - 1
        if forced1 and forced2:
            if p1.label(b1[i]) == p2.label(b2[j]):
                rec(i + 1, j + 1, entries + [[(p1, b1[i]), (p2, b2[j])]])
            return
        if forced1:
            if not last1:
                rec(i + 1, j, entries + [[(p1, b1[i])]])
            if can2 and p1.label(b1[i]) == p2.label(b2[j]) and last1 == last2:
                rec(i + 1, j + 1, entries + [[(p1, b1[i]), (p2, b2[j])]])
            return
        if forced2:
            if not last2:
                rec(i, j + 1, entries + [[(p2, b2[j])]])
            if can1 and p1.label(b1[i]) == p2.label(b2[j]) and last1 == last2:
                rec(i + 1, j + 1, entries + [[(p1, b1[i]), (p2, b2[j])]])
            return
        if can1 and not last1:
            rec(i + 1, j, entries + [[(p1, b1[i])]])
        if can2 and not last2:
            rec(i, j + 1, entries + [[(p2, b2[j])]])
        if can1 and can2 and p1.label(b1[i]) == p2.label(b2[j]) and last1 == last2:
            rec(i + 1, j + 1, entries + [[(p1, b1[i]), (p2, b2[j])]])

    rec(1, 1, [[(p1, b1[0]), (p2, b2[0])]])
    return results
