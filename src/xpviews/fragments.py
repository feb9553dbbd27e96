"""Fragment classification: extended skeletons and the //-predicate relaxation.

A //-subpredicate of a main-branch node n is a predicate subtree hanging by
a //-edge off a /-path that starts at n.  Extended skeletons require, for
every such subtree of every non-output main-branch node, that its incoming
/-path and the /-path following n on the main branch have no mapping in
either direction (the empty path maps into everything).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator

from .syntax import DESC
from .pattern import EMPTY, Pattern, slash_run


class FragmentClass(Enum):
    EXTENDED_SKELETON = "es"
    SLASH_SLASH = "xp//"
    FULL = "xp"


def codes_map(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    """Whether the /-path code ``a`` maps into ``b`` (substring relation;
    the empty code maps into anything)."""
    if not a:
        return True
    n, m = len(a), len(b)
    return any(b[i : i + n] == a for i in range(m - n + 1))


def codes_incompatible(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    return not codes_map(a, b) and not codes_map(b, a)


def _dd_subpredicates(
    d: Pattern, n: int, start: int, prefix: tuple[str, ...]
) -> Iterator[tuple[tuple[str, ...], int, bool]]:
    """(incoming /-path code, subtree root, attached-directly-to-n) for every
    //-subpredicate reachable from ``start`` through predicate /-edges,
    ``prefix`` being the code of the /-path into ``start``; at ``n`` itself
    only its predicate edges count."""
    stack = [(start, prefix)]
    while stack:
        x, code = stack.pop()
        for b, k in d.out_edges(x) if x != n else d.pred_edges(n):
            if k == DESC:
                yield code, b, x == n
            else:
                stack.append((b, code + (d.label(b),)))


def violating_subpredicates(d: Pattern, n: int) -> list[tuple[int, bool]]:
    """//-subpredicates of ``n`` breaking the extended-skeleton condition.

    Returns (subtree root, hangs-directly-off-main-branch) pairs.
    """
    follow = tuple(d.label(x) for x in slash_run(d, n))
    out = []
    for incoming, sub, direct in _dd_subpredicates(d, n, n, ()):
        if not codes_incompatible(incoming, follow):
            out.append((sub, direct))
    return out


def classify(p: Pattern) -> FragmentClass:
    """ES when no violations; XP_// when violations are only whole
    predicates hung directly off the main branch by //-edges; else full XP."""
    only_direct = True
    clean = True
    for n in sorted(p.mb_nodes()):
        if n == p.out:
            continue  # output predicates are unrestricted
        for sub, direct in violating_subpredicates(p, n):
            clean = False
            if not direct:
                only_direct = False
    if clean:
        return FragmentClass.EXTENDED_SKELETON
    if only_direct:
        return FragmentClass.SLASH_SLASH
    return FragmentClass.FULL


def extended_skeleton(p: Pattern) -> Pattern:
    """Prune every //-subpredicate violating the ES condition (idempotent)."""
    if p is EMPTY:
        return EMPTY
    cur = p
    while True:
        doomed: set[int] = set()
        for n in sorted(cur.mb_nodes()):
            if n == cur.out:
                continue
            for sub, _ in violating_subpredicates(cur, n):
                doomed.add(sub)
        if not doomed:
            return cur
        nxt = cur.clone()
        dead = set()
        for s in doomed:
            dead |= cur.descendants(s) | {s}
        nxt.remove_nodes(dead)
        cur = nxt


def added_pred_keeps_es(d: Pattern, n: int, q_root: int) -> bool:
    """Would attaching a copy of the predicate subtree ``q_root`` below
    ``n`` by a /-edge satisfy the ES condition at ``n``?"""
    if n == d.out:
        return True
    follow = tuple(d.label(x) for x in slash_run(d, n))
    return all(
        codes_incompatible(code, follow)
        for code, _, _ in _dd_subpredicates(d, n, q_root, (d.label(q_root),))
    )


def are_akin(ps: list[Pattern]) -> bool:
    """Tree patterns whose root tokens (main-branch /-runs from the root)
    share one label code."""
    codes = {tuple(p.label(n) for n in (p.root, *slash_run(p, p.root))) for p in ps}
    return len(codes) <= 1
