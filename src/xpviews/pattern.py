"""Tree and DAG patterns: the graph representation of queries.

A pattern is a rooted, labeled graph with child (/) and descendant (//)
edges and one output node.  Trees represent plain queries; DAGs represent
intersections.  Nodes on a root-to-output path (main-branch nodes) never
carry text tests; all other nodes form predicate subtrees and have exactly
one incoming edge.

Patterns are values: every editing helper returns a new pattern.  The
mutating methods are for builders and for the rule engine's private
working copies.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .syntax import (
    CHILD,
    DESC,
    Compensated,
    Dialect,
    Expr,
    Intersect,
    Path,
    Pred,
    Step,
    parse,
    print_expr,
)


class UnknownView(KeyError):
    """A plan references a view name that is not defined."""


class NotMainBranch(ValueError):
    """Operation requires a main-branch node."""


class CapExceeded(RuntimeError):
    """A rule fixpoint or an interleaving enumeration exceeded its bound."""


@dataclass(frozen=True)
class PNode:
    label: str
    test: Optional[str] = None  # None means the empty test


class EmptyPattern:
    """The unsatisfiable pattern; a singleton propagated by constructors."""

    is_empty = True

    def __repr__(self) -> str:
        return "EMPTY"

    def __deepcopy__(self, memo):
        return self


EMPTY = EmptyPattern()


class Pattern:
    is_empty = False

    def __init__(self):
        self.nodes: dict[int, PNode] = {}
        # One (src, dst, axis) triple per edge, axis CHILD or DESC; a pair
        # joined by both a / and a // edge holds two.  kids/pars are derived
        # adjacency.
        self.edges: set[tuple[int, int, str]] = set()
        self.root: int = -1
        self.out: int = -1
        self._next = 0
        self._mbn: Optional[frozenset[int]] = None
        self._desc: Optional[dict[int, frozenset[int]]] = None
        self._adj = None
        self._topo: Optional[tuple[int, ...]] = None
        self._labels: Optional[dict[str, tuple[int, ...]]] = None
        self._tree: Optional[bool] = None

    # -- construction ------------------------------------------------------

    def add_node(self, label: str, test: Optional[str] = None) -> int:
        nid = self._next
        self._next += 1
        self.nodes[nid] = PNode(label, test)
        self._dirty()
        return nid

    def add_edge(self, src: int, dst: int, axis: str) -> None:
        # Adding a / edge next to a // edge of the same pair (dag
        # construction) keeps both triples; callers that must normalize use
        # the rule engine.
        self.edges.add((src, dst, axis))
        self._dirty()

    def remove_edge(self, src: int, dst: int, axis: str) -> None:
        self.edges.discard((src, dst, axis))
        self._dirty()

    def remove_nodes(self, dead: Iterable[int]) -> None:
        dead = set(dead)
        for n in dead:
            self.nodes.pop(n, None)
        self.edges = {e for e in self.edges if e[0] not in dead and e[1] not in dead}
        self._dirty()

    def _dirty(self) -> None:
        self._mbn = None
        self._desc = None
        self._adj = None
        self._topo = None
        self._labels = None
        self._tree = None

    def _adjacency(self):
        if getattr(self, "_adj", None) is None:
            kids: dict[int, list[tuple[int, str]]] = {n: [] for n in self.nodes}
            pars: dict[int, list[tuple[int, str]]] = {n: [] for n in self.nodes}
            for a, b, k in self.edges:
                kids[a].append((b, k))
                pars[b].append((a, k))
            for n in kids:
                kids[n].sort()
                pars[n].sort()
            self._adj = (kids, pars)
        return self._adj

    def clone(self) -> "Pattern":
        p = Pattern()
        p.nodes = dict(self.nodes)
        p.edges = set(self.edges)
        p.root = self.root
        p.out = self.out
        p._next = self._next
        return p

    # -- adjacency ---------------------------------------------------------

    def out_edges(self, n: int) -> list[tuple[int, str]]:
        return self._adjacency()[0][n]

    def in_edges(self, n: int) -> list[tuple[int, str]]:
        return self._adjacency()[1][n]

    def axis(self, a: int, b: int) -> str:
        """Axis from ``a`` to ``b``: / when that edge exists, else // (a /
        edge implies the //)."""
        return CHILD if (a, b, CHILD) in self.edges else DESC

    def label(self, n: int) -> str:
        return self.nodes[n].label

    def label_index(self) -> dict[str, tuple[int, ...]]:
        """Node ids by label, each tuple in id order."""
        if self._labels is None:
            idx: dict[str, list[int]] = {}
            for n in sorted(self.nodes):
                idx.setdefault(self.nodes[n].label, []).append(n)
            self._labels = {lab: tuple(ns) for lab, ns in idx.items()}
        return self._labels

    def test(self, n: int) -> Optional[str]:
        return self.nodes[n].test

    # -- derived sets --------------------------------------------------------

    def descendants(self, n: int) -> frozenset[int]:
        """Nodes strictly below ``n`` (transitive, any edge kind)."""
        if self._desc is None:
            self._desc = {}
        cached = self._desc.get(n)
        if cached is not None:
            return cached
        kids = self._adjacency()[0]
        seen: set[int] = set()
        stack = [b for b, _ in kids[n]]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(b for b, _ in kids[x])
        res = frozenset(seen)
        self._desc[n] = res
        return res

    def reaches(self, a: int, b: int) -> bool:
        return b in self.descendants(a)

    def up(self, ys: Iterable[int], axis: str) -> set[int]:
        """The nodes with a /-child in ``ys`` (axis /), or with any strict
        descendant in ``ys`` (axis //)."""
        return _step(self._adjacency()[1], ys, axis)

    def under(self, xs: Iterable[int], ys: set[int], axis: str) -> set[int]:
        """The nodes of ``ys`` whose /-parent (axis /), or some strict
        ancestor (axis //), is in ``xs``."""
        return _step(self._adjacency()[0], xs, axis) & ys

    def mb_nodes(self) -> frozenset[int]:
        """Nodes on some root-to-output path."""
        if self._mbn is None:
            pars = self._adjacency()[1]
            above: set[int] = {self.out}
            stack = [a for a, _ in pars[self.out]]
            while stack:
                x = stack.pop()
                if x in above:
                    continue
                above.add(x)
                stack.extend(a for a, _ in pars[x])
            below = self.descendants(self.root) | {self.root}
            self._mbn = frozenset(below & above)
        return self._mbn

    def mb_out_edges(self, n: int) -> list[tuple[int, str]]:
        mbn = self.mb_nodes()
        return [(b, k) for b, k in self.out_edges(n) if b in mbn]

    def mb_in_edges(self, n: int) -> list[tuple[int, str]]:
        mbn = self.mb_nodes()
        return [(a, k) for a, k in self.in_edges(n) if a in mbn]

    def pred_edges(self, n: int) -> list[tuple[int, str]]:
        """Edges from ``n`` to predicate-subtree roots."""
        mbn = self.mb_nodes()
        return [(b, k) for b, k in self.out_edges(n) if b not in mbn]

    def is_tree(self) -> bool:
        # cached with the derived sets: a write to ``root`` after the
        # pattern is built must be followed by ``_dirty``
        if self._tree is None:
            ins = {n: 0 for n in self.nodes}
            for _, b, _ in self.edges:
                ins[b] += 1
            self._tree = all(c == 1 for n, c in ins.items() if n != self.root) and ins[self.root] == 0
        return self._tree

    def topo_order(self) -> tuple[int, ...]:
        """Nodes in topological order, smallest ready id first."""
        if self._topo is not None:
            return self._topo
        kids = self._adjacency()[0]
        indeg = {n: 0 for n in self.nodes}
        for _, b, _ in self.edges:
            indeg[b] += 1
        ready = [n for n, c in indeg.items() if c == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            n = heapq.heappop(ready)
            order.append(n)
            for b, _ in kids[n]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    heapq.heappush(ready, b)
        if len(order) != len(self.nodes):
            raise ValueError("pattern graph has a cycle")
        self._topo = tuple(order)
        return self._topo

    def validate(self) -> None:
        if self.root not in self.nodes or self.out not in self.nodes:
            raise ValueError("root and output must be nodes of the pattern")
        for a, b, _ in self.edges:
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"edge {a}->{b} names a missing node")
        self.topo_order()
        mbn = self.mb_nodes()
        for n in self.nodes:
            if n in mbn:
                if self.nodes[n].test is not None:
                    raise ValueError(f"main-branch node {n} carries a test")
            else:
                if len(self.in_edges(n)) != 1:
                    raise ValueError(f"predicate node {n} has several parents")
        for n in self.nodes:
            if n != self.root and not self.in_edges(n):
                raise ValueError(f"node {n} unreachable")

    # -- misc ----------------------------------------------------------------

    def size(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        try:
            return f"<Pattern {to_text(self)}>"
        except Exception:
            return f"<Pattern {len(self.nodes)} nodes>"


def _step(adj: dict[int, list[tuple[int, str]]], ns: Iterable[int], axis: str) -> set[int]:
    """One step from ``ns`` along ``adj``: the /-neighbours (axis /), or
    every node one or more edges away (axis //)."""
    if axis == CHILD:
        return {m for n in ns for m, k in adj[n] if k == CHILD}
    seen: set[int] = set()
    stack = list(ns)
    while stack:
        for m, _ in adj[stack.pop()]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


# ---------------------------------------------------------------------------
# construction from ASTs


def _graft_steps(p: Pattern, at: int, steps: tuple[Step, ...]) -> int:
    """Append a step chain below ``at``; returns the last node added."""
    cur = at
    for step in steps:
        nid = p.add_node(step.label)
        p.add_edge(cur, nid, step.axis)
        cur = nid
        for pred in step.preds:
            _graft_pred(p, cur, pred)
    return cur


def _graft_pred(p: Pattern, at: int, pred: Pred) -> None:
    cur = at
    for i, step in enumerate(pred.steps):
        nid = p.add_node(step.label)
        p.add_edge(cur, nid, step.axis)
        cur = nid
        for sub in step.preds:
            _graft_pred(p, cur, sub)
    if pred.const is not None:
        p.nodes[cur] = PNode(p.nodes[cur].label, pred.const)


def tree_from_ast(expr: Expr) -> Pattern:
    """Tree pattern of an XP path (output = last step)."""
    if not isinstance(expr, Path) or expr.doc is None:
        raise ValueError("tree_from_ast expects an absolute XP path")
    p = Pattern()
    p.root = p.add_node(expr.doc)
    p.out = _graft_steps(p, p.root, expr.steps)
    p.validate()
    return p


def tree_from_text(text: str) -> Pattern:
    return tree_from_ast(parse(text, Dialect.XP))


class ViewSet:
    """Named view definitions (absolute XP patterns over the base document).

    The rewriter keeps the trie of their main-branch signatures here
    (``rewrite._SignatureTrie``), built on its first use; ``define`` adds the
    one new view to it."""

    def __init__(self, defs: Optional[dict[str, Pattern]] = None):
        self.defs: dict[str, Pattern] = {}
        self._trie = None
        if defs:
            for name, pat in defs.items():
                self.define(name, pat)

    @classmethod
    def from_texts(cls, defs: dict[str, str]) -> "ViewSet":
        return cls({name: tree_from_text(t) for name, t in defs.items()})

    def define(self, name: str, pattern: Pattern) -> None:
        if name in self.defs:
            raise ValueError(f"duplicate view name {name!r}")
        pattern.validate()
        self.defs[name] = pattern
        if self._trie is not None:
            self._trie.add(name, pattern)

    def __contains__(self, name: str) -> bool:
        return name in self.defs

    def __getitem__(self, name: str) -> Pattern:
        try:
            return self.defs[name]
        except KeyError:
            raise UnknownView(name) from None

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.defs))

    def __len__(self) -> int:
        return len(self.defs)

    def items(self):
        return sorted(self.defs.items())


def _copy_into(dst: Pattern, src: Pattern, nodes: Optional[Iterable[int]] = None) -> dict[int, int]:
    """Copy ``src`` into ``dst``, or only ``nodes`` and the edges among them;
    returns the id translation.  Nodes are added in the order given (id
    order for a whole pattern).  ``dst`` may be ``src``: the edges are read
    before anything is added."""
    nodes = sorted(src.nodes) if nodes is None else list(nodes)
    edges = [(a, b, k) for a in nodes for b, k in src.out_edges(a)]
    ren = {n: dst.add_node(src.nodes[n].label, src.nodes[n].test) for n in nodes}
    for a, b, k in edges:
        if b in ren:
            dst.add_edge(ren[a], ren[b], k)
    return ren


def _subtree(p: Pattern, n: int) -> list[int]:
    """``n`` and the nodes below it in preorder; ``n`` heads a predicate
    subtree, so each is reached once."""
    order, stack = [], [n]
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(b for b, _ in reversed(p.out_edges(x)))
    return order


def _merge_nodes(p: Pattern, keep: int, gone: int) -> None:
    """Redirect all edges of ``gone`` onto ``keep`` and delete ``gone``.

    Redirected triples join the edge set, so a / and a // edge between one
    pair both stay; the // one is redundant and the rule engine removes it
    as a degenerate branch.
    """
    if keep == gone:
        return
    edges = {(keep if a == gone else a, keep if b == gone else b, k) for a, b, k in p.edges}
    if any(a == b for a, b, _ in edges):
        raise ValueError("collapse would create a self loop")
    p.edges = edges
    del p.nodes[gone]
    if p.root == gone:
        p.root = keep
    if p.out == gone:
        p.out = keep
    p._dirty()


def _merge_run(p: Pattern, pairs: Iterable[tuple[int, int]], merge=_merge_nodes):
    """Merge each (keep, gone) pair of ``p`` in place, in order.  Pairs name
    nodes as they were before the run, so each follows earlier merges.

    Returns the translation of old ids to surviving ones, or None when
    ``merge`` refuses a pair by returning False.
    """
    alias: dict[int, int] = {}

    def res(n: int) -> int:
        while n in alias:
            n = alias[n]
        return n

    for keep, gone in pairs:
        keep, gone = res(keep), res(gone)
        if keep == gone:
            continue
        if merge(p, keep, gone) is False:
            return None
        alias[gone] = keep
    return res


def dag_intersect(parts: list[Pattern]):
    """Coalesce roots and outputs of the given patterns (the ∩ operator).  A
    coalesced node carries every text test of the nodes it merges, so two
    different tests make the intersection EMPTY."""
    parts = [q for q in parts]
    if any(q is EMPTY for q in parts):
        return EMPTY
    if not parts:
        raise ValueError("empty intersection")
    labels_r = {q.nodes[q.root].label for q in parts}
    labels_o = {q.nodes[q.out].label for q in parts}
    tests_r = {q.test(q.root) for q in parts} - {None}
    tests_o = {q.test(q.out) for q in parts} - {None}
    if max(len(labels_r), len(labels_o), len(tests_r), len(tests_o)) > 1:
        return EMPTY
    degenerate = {q.root == q.out for q in parts}
    if degenerate == {True, False}:
        # One branch answers document roots, another answers strictly below.
        return EMPTY
    acc = Pattern()
    rens = [_copy_into(acc, q) for q in parts]
    acc.root, acc.out = rens[0][parts[0].root], rens[0][parts[0].out]
    pairs = []
    for q, ren in zip(parts[1:], rens[1:]):
        pairs += [(acc.root, ren[q.root]), (acc.out, ren[q.out])]
    _merge_run(acc, pairs)
    for n, tests in ((acc.root, tests_r), (acc.out, tests_o)):
        acc.nodes[n] = PNode(acc.label(n), next(iter(tests), None))
    return acc


def dag_append(x, steps: tuple[Step, ...]):
    """Append a relative continuation below the output node."""
    if x is EMPTY:
        return EMPTY
    p = x.clone()
    p.out = _graft_steps(p, p.out, steps)
    return p


def dag_from_expr(expr: Expr, views: Optional[ViewSet] = None):
    """DAG pattern of an intersection expression.

    When ``views`` is given, ``doc("v")/v`` heads are unfolded first; the
    navigation after the view step continues below the view's output node.
    Without views, document nodes become plain root labels.
    """
    if isinstance(expr, Path):
        if views is not None and expr.doc in views:
            vdef = views[expr.doc]
            head = expr.steps[0]
            if head.label != expr.doc:
                raise UnknownView(
                    f"view head doc({expr.doc!r})/{head.label} must repeat the view name"
                )
            p = Pattern()
            ren = _copy_into(p, vdef)
            p.root = ren[vdef.root]
            p.out = ren[vdef.out]
            for pred in head.preds:
                _graft_pred(p, p.out, pred)
            p.out = _graft_steps(p, p.out, expr.steps[1:])
            return p
        return tree_from_ast(expr)
    if isinstance(expr, Intersect):
        return dag_intersect([dag_from_expr(b, views) for b in expr.branches])
    if isinstance(expr, Compensated):
        return dag_append(dag_from_expr(expr.base, views), expr.steps)
    raise TypeError(type(expr))


def unfold_expr(expr: Expr, views: ViewSet):
    """DAG of a rewrite plan with every view head replaced by its definition."""
    return dag_from_expr(expr, views)


# ---------------------------------------------------------------------------
# main-branch structure


def main_branch(p: Pattern) -> list[int]:
    """Root-to-output node list of a tree pattern."""
    if not p.is_tree():
        raise ValueError("main_branch requires a tree pattern")
    chain = [p.out]
    while chain[-1] != p.root:
        (parent, _), = p.in_edges(chain[-1])
        chain.append(parent)
    return chain[::-1]


def slash_run(p: Pattern, n: int, down: bool = True, avoid: frozenset[int] = frozenset()) -> Iterator[int]:
    """The main-branch /-run below ``n`` (``down``) or above it, nearest
    node first and ``n`` left out: each step follows the one main-branch
    /-edge that leaves the current node that way, outside ``avoid``, and
    the run ends where there is none or several.  Lazy, so a caller that
    compares runs stops at the first difference."""
    mbn = p.mb_nodes()
    edges = p.out_edges if down else p.in_edges
    while True:
        nxt = [x for x, k in edges(n) if k == CHILD and x in mbn and x not in avoid]
        if len(nxt) != 1:
            return
        n = nxt[0]
        yield n


def _subpattern_with_map(d: Pattern, n: int) -> tuple[Pattern, dict[int, int]]:
    """SUB(d, n) and the translation of ``d``'s ids into it."""
    p = Pattern()
    ren = _copy_into(p, d, sorted(d.descendants(n) | {n}))
    p.root = ren[n]
    p.out = ren.get(d.out, p.root)
    return p, ren


def subpattern_at(d: Pattern, n: int) -> Pattern:
    """Subpattern rooted at ``n`` (SUB): everything reachable from it."""
    return _subpattern_with_map(d, n)[0]


def tp_of_path(d: Pattern, path: list[int]) -> Pattern:
    """Tree pattern of a main-branch path plus the predicates of its nodes."""
    p = Pattern()
    spine = [p.add_node(d.nodes[n].label, d.nodes[n].test) for n in path]
    for i in range(1, len(path)):
        p.add_edge(spine[i - 1], spine[i], d.axis(path[i - 1], path[i]))
    for n, at in zip(path, spine):
        for b, k in d.pred_edges(n):
            p.add_edge(at, _copy_into(p, d, _subtree(d, b))[b], k)
    p.root, p.out = spine[0], spine[-1]
    return p


def singleton_pattern(label: str, pred_root: Pattern, pred_sub: int, axis: str) -> Pattern:
    """PATTERN(label[Q]): one node with a copy of the given predicate subtree."""
    p = Pattern()
    p.root = p.out = p.add_node(label)
    p.add_edge(p.root, _copy_into(p, pred_root, _subtree(pred_root, pred_sub))[pred_sub], axis)
    return p


def lossless_prefixes(q: Pattern) -> list[Pattern]:
    """All output-demotions of ``q``, root-first; the last element is ``q``."""
    mb = main_branch(q)
    res = []
    for n in mb:
        p = q.clone()
        p.out = n
        # the former continuation now hangs as a predicate subtree
        res.append(p)
    return res


# ---------------------------------------------------------------------------
# textual form


def to_ast(p: Pattern) -> Path:
    """AST of a tree pattern (absolute path; root label is the doc name).
    Predicates on the root have no place in it: ``relative_ast`` reads
    them separately."""
    mb = main_branch(p)
    steps = []
    for prev, cur in zip(mb, mb[1:]):
        steps.append(_step_of(p, prev, cur))
    return Path(p.label(p.root), tuple(steps))


def _step_of(p: Pattern, parent: int, n: int) -> Step:
    preds = tuple(_pred_of(p, b, k) for b, k in p.pred_edges(n))
    return Step(p.label(n), p.axis(parent, n), preds)


def _pred_of(p: Pattern, sub_root: int, axis: str) -> Pred:
    # Render a predicate subtree: inline single-child chains as steps,
    # siblings as nested bracket predicates.
    steps: list[Step] = []
    cur = sub_root
    cur_axis = axis
    while True:
        kids = p.out_edges(cur)
        if p.test(cur) is not None or len(kids) != 1:
            preds = tuple(_pred_of(p, b, k) for b, k in kids)
            steps.append(Step(p.label(cur), cur_axis, preds))
            return Pred(tuple(steps), p.test(cur))
        steps.append(Step(p.label(cur), cur_axis, ()))
        (cur, cur_axis), = kids


def to_text(p) -> str:
    if p is EMPTY:
        return "EMPTY"
    if p.pred_edges(p.root):
        raise ValueError("XP has no syntax for a predicate on the pattern root")
    return print_expr(to_ast(p))


def relative_ast(p: Pattern, n: int) -> tuple[tuple[Pred, ...], tuple[Step, ...]]:
    """xpath(SUB(p, n)) minus its leading label: the predicates of ``n``
    and the continuation steps below it (the compensation payload)."""
    if n not in p.mb_nodes():
        raise NotMainBranch(n)
    sub = subpattern_at(p, n)
    ast = to_ast(sub)
    head_preds = tuple(
        _pred_of(sub, b, k) for b, k in sub.pred_edges(sub.root)
    )
    return head_preds, ast.steps


def compensate_pattern(r: Pattern, p: Pattern, n: int) -> Pattern:
    """Append xpath(SUB(p, n)) minus its first label below OUT(r)."""
    preds, steps = relative_ast(p, n)
    res = r.clone()
    for pred in preds:
        _graft_pred(res, res.out, pred)
    res.out = _graft_steps(res, res.out, steps)
    return res


def compensate_expr(r: Expr, p: Pattern, n: int) -> Expr:
    """Compensation on plan expressions.

    For a path, the predicates of ``n`` and its continuation are appended
    to the last step.  For an intersection, only the continuation can be
    attached (the grammar has no predicate slot on a parenthesized
    intersection); the predicates of ``n`` are already carried by the
    per-branch compensations.
    """
    preds, steps = relative_ast(p, n)
    if isinstance(r, Path):
        last = r.steps[-1]
        new_last = Step(last.label, last.axis, last.preds + preds)
        return Path(r.doc, r.steps[:-1] + (new_last,) + steps)
    if not steps:
        return r
    return Compensated(r, steps)


# ---------------------------------------------------------------------------
# JSON form


def pattern_to_json(p) -> str:
    if p is EMPTY:
        return json.dumps({"empty": True})
    doc = {
        "nodes": [
            {"id": n, "label": p.nodes[n].label, "test": p.nodes[n].test}
            for n in sorted(p.nodes)
        ],
        "edges": [
            {"from": a, "to": b, "kind": k}
            for a, b, k in sorted(p.edges)
        ],
        "root": p.root,
        "output": p.out,
    }
    return json.dumps(doc, indent=2)


def pattern_from_json(text: str):
    doc = json.loads(text)
    if doc.get("empty"):
        return EMPTY
    p = Pattern()
    for nd in doc["nodes"]:
        p.nodes[nd["id"]] = PNode(nd["label"], nd.get("test"))
        p._next = max(p._next, nd["id"] + 1)
    for ed in doc["edges"]:
        if ed["kind"] not in (CHILD, DESC):
            raise ValueError(f"unknown edge kind {ed['kind']!r}")
        p.add_edge(ed["from"], ed["to"], ed["kind"])
    p.root = doc["root"]
    p.out = doc["output"]
    p.validate()
    return p


# ---------------------------------------------------------------------------
# canonical keys (trees)


def canon_key(p: Pattern, n: Optional[int] = None):
    """Canonical signature of a tree pattern; equal keys iff isomorphic
    (respecting labels, tests, edge kinds and the output node)."""
    if n is None:
        n = p.root
    order = [n]
    for x in order:  # breadth first, so children come after their parent
        order.extend(b for b, _ in p.out_edges(x))
    keys: dict[int, tuple] = {}
    for x in reversed(order):
        if x not in keys:
            kids = tuple(sorted((k, keys[b]) for b, k in p.out_edges(x)))
            # the empty test sorts before every text test
            test = p.test(x)
            keys[x] = (p.label(x), (test is not None, test or ""), x == p.out, kids)
    return keys[n]
