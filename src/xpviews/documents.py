"""Unordered labeled XML trees, pattern evaluation, and view documents.

Evaluation follows embedding semantics: a tree pattern selects the set of
images of its output node under all embeddings.  Only elements and text
are supported; attributes and namespaces are rejected.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .syntax import CHILD, Compensated, Expr, Intersect, Path, Pred, Step
from .pattern import EMPTY, Pattern, UnknownView, ViewSet, _graft_pred, _graft_steps, main_branch
from .containment import _arc_consistent


class UnsupportedXml(ValueError):
    """Input uses XML features outside the element+text subset."""


class XmlTree:
    """Unordered tree with persistent integer node ids.  A fragment store
    (see ``ViewDocument``) is a forest: each of its parentless nodes tops a
    subtree copied from a base document, and ``root`` is unused."""

    def __init__(self):
        self.labels: dict[int, str] = {}
        self.texts: dict[int, str] = {}
        self.children: dict[int, list[int]] = {}
        self.parent: dict[int, Optional[int]] = {}
        self.root: int = -1
        self._next = 0
        self._rank: Optional[dict[int, int]] = None
        self._end: dict[int, int] = {}
        self._ranked: dict[str, tuple[list[int], list[int]]] = {}

    def add_node(self, label: str, parent: Optional[int], text: str = "") -> int:
        nid = self._next
        self._next += 1
        self.labels[nid] = label
        self.texts[nid] = text
        self.children[nid] = []
        self.parent[nid] = parent
        if parent is None:
            self.root = nid
        else:
            self.children[parent].append(nid)
        self._dirty()
        return nid

    def _dirty(self) -> None:
        self._rank = None

    def size(self) -> int:
        return len(self.labels)

    def _index(self) -> None:
        # Preorder ranks over every parentless node: the subtree of n is the
        # rank interval [rank[n], end[n]) (region encoding), and each label
        # keeps its nodes, and their ranks, in preorder.
        order: list[int] = []
        stack = [n for n, p in self.parent.items() if p is None]
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend(reversed(self.children[n]))
        rank = {n: i for i, n in enumerate(order)}
        end: dict[int, int] = {}
        for n in reversed(order):
            kids = self.children[n]
            end[n] = end[kids[-1]] if kids else rank[n] + 1
        ranked: dict[str, tuple[list[int], list[int]]] = {}
        for i, n in enumerate(order):
            ranks, nodes = ranked.setdefault(self.labels[n], ([], []))
            ranks.append(i)
            nodes.append(n)
        self._rank, self._end, self._ranked = rank, end, ranked

    def nodes_labelled(self, label: str) -> list[int]:
        """The nodes labelled ``label``, in preorder."""
        if self._rank is None:
            self._index()
        return self._ranked.get(label, ((), []))[1]

    def span(self, n: int, label: str) -> tuple[list[int], int, int]:
        """The preorder list of ``label``'s nodes, and the bounds of the
        slice of it that lies strictly below ``n``."""
        if self._rank is None:
            self._index()
        ranks, nodes = self._ranked.get(label, ((), []))
        lo = bisect_right(ranks, self._rank[n])
        return nodes, lo, bisect_left(ranks, self._end[n], lo)

    def below(self, n: int, label: str) -> list[int]:
        """The strict descendants of ``n`` labelled ``label``, in preorder."""
        nodes, lo, hi = self.span(n, label)
        return nodes[lo:hi]

    def outermost(self, nodes: Iterable[int]) -> list[int]:
        """The nodes of ``nodes`` without a strict ancestor among them, in
        preorder."""
        if self._rank is None:
            self._index()
        rank, end = self._rank, self._end
        out: list[int] = []
        reach = -1
        for n in sorted(nodes, key=rank.__getitem__):
            if rank[n] >= reach:
                out.append(n)
                reach = end[n]
        return out

    def is_strict_descendant(self, d: int, a: int) -> bool:
        if self._rank is None:
            self._index()
        return self._rank[a] < self._rank[d] < self._end[a]

    def descendants(self, n: int) -> list[int]:
        out = []
        stack = list(self.children[n])
        while stack:
            x = stack.pop()
            out.append(x)
            stack.extend(self.children[x])
        return out

    def subtree_nodes(self, n: int) -> list[int]:
        return [n] + self.descendants(n)


# ---------------------------------------------------------------------------
# XML text form (elements + text only)


def parse_xml(text: str) -> XmlTree:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise UnsupportedXml(f"malformed XML: {exc}") from None
    t = XmlTree()
    parent_of: dict[ET.Element, Optional[int]] = {root: None}
    for el in root.iter():  # preorder, without recursion
        if el.attrib:
            raise UnsupportedXml(f"attributes are not supported (element {el.tag!r})")
        if "}" in el.tag:
            raise UnsupportedXml("namespaces are not supported")
        nid = t.add_node(el.tag, parent_of.pop(el), (el.text or "").strip())
        for child in el:
            parent_of[child] = nid
    return t


# Indentation stops growing at this depth, so deep chains print in text
# linear in their node count; parse_xml ignores the whitespace.
MAX_INDENT_DEPTH = 32


def print_xml(t: XmlTree, node: Optional[int] = None, indent: int = 0) -> str:
    lines: list[str] = []
    # (unprinted children, their depth, their parent's closing tag)
    stack: list[tuple[Iterator[int], int, str]] = [
        (iter((t.root if node is None else node,)), indent, "")
    ]
    while stack:
        kids, depth, closing = stack[-1]
        for n in kids:
            pad = "  " * min(depth, MAX_INDENT_DEPTH)
            label = t.labels[n]
            inner = t.texts[n]
            if t.children[n]:
                lines.append(f"{pad}<{label}>" + _escape(inner))
                stack.append((iter(t.children[n]), depth + 1, f"{pad}</{label}>"))
                break
            leaf = f"<{label}>{_escape(inner)}</{label}>" if inner else f"<{label}/>"
            lines.append(pad + leaf)
        else:
            stack.pop()
            if closing:
                lines.append(closing)
    return "\n".join(lines)


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# ---------------------------------------------------------------------------
# evaluation


def _strict_ancestors(t: XmlTree, nodes: Iterable[int]) -> set[int]:
    seen: set[int] = set()
    for n in nodes:
        x = t.parent[n]
        while x is not None and x not in seen:
            seen.add(x)
            x = t.parent[x]
    return seen


def _candidate_sets(
    p: Pattern, t: XmlTree, starts: Iterable[int]
) -> Optional[dict[int, set[int]]]:
    """Bottom-up feasibility sets; exact for tree-shaped patterns.  The
    root's pool is ``starts``, whatever their labels."""
    order = p.topo_order()
    cand: dict[int, set[int]] = {}
    for pn in reversed(order):
        base = set(starts) if pn == p.root else set(t.nodes_labelled(p.label(pn)))
        req = p.test(pn)
        if req is not None:
            base = {x for x in base if t.texts[x] == req}
        for b, k in p.out_edges(pn):
            if not base:
                break
            sub = cand[b]
            if k == CHILD:
                base &= {t.parent[c] for c in sub if t.parent[c] is not None}
            else:
                base &= _strict_ancestors(t, sub)
        cand[pn] = base
        if not base:
            return None
    return cand


def _below(t: XmlTree, here: set[int], nodes: Iterable[int]) -> set[int]:
    """The nodes with a strict ancestor in ``here``.  Each ancestor's answer
    is memoised, so every document node is climbed at most once."""
    met: dict[int, bool] = {}  # node -> whether it or an ancestor is in `here`
    res = set()
    for d in nodes:
        path = []
        x = t.parent[d]
        while x is not None and x not in met and x not in here:
            path.append(x)
            x = t.parent[x]
        hit = x is not None and (x in here or met[x])
        for y in path:
            met[y] = hit
        if hit:
            res.add(d)
    return res


def eval_tree_pattern(p: Pattern, t: XmlTree) -> set[int]:
    """Output-node images over all embeddings of a tree pattern."""
    if p is EMPTY:
        return set()
    if not p.is_tree():
        return eval_dag_pattern(p, t)
    if t.labels[t.root] != p.label(p.root):
        return set()
    return _embed(p, t, {t.root})


def _embed(p: Pattern, t: XmlTree, starts: Iterable[int]) -> set[int]:
    """Output-node images over the embeddings of tree pattern ``p`` whose
    root maps into ``starts``; the root's label is not checked."""
    cand = _candidate_sets(p, t, starts)
    if cand is None:
        return set()
    # Top-down restriction to images reachable from an embedded root.
    reach: dict[int, set[int]] = {p.root: cand[p.root]}
    for pn in p.topo_order():
        if pn not in reach:
            continue
        here = reach[pn]
        for b, k in p.out_edges(pn):
            if k == CHILD:
                nxt = {c for x in here for c in t.children[x] if c in cand[b]}
            else:
                nxt = _below(t, here, cand[b])
            reach.setdefault(b, set()).update(nxt)
    return reach.get(p.out, set())


def eval_dag_pattern(d, t: XmlTree) -> set[int]:
    """Embedding semantics extended to DAG patterns.

    Fix the output's image: every main-branch image then lies on its root
    path, a chain, and arc consistency across the main-branch edges decides
    whether an embedding exists.  Predicate subtrees have one parent per
    node, so the candidate sets are exact for them.
    """
    if d is EMPTY or t.labels[t.root] != d.label(d.root):
        return set()
    cand = _candidate_sets(d, t, {t.root})
    if cand is None:
        return set()
    mbn = d.mb_nodes()

    def related(x: int, y: int, k: str) -> bool:
        return t.parent[y] == x if k == CHILD else t.is_strict_descendant(y, x)

    result = set()
    for out_img in cand[d.out]:
        path = set(_root_path(t, out_img))
        dom = {n: cand[n] & path for n in mbn}
        dom[d.out] = {out_img}
        if _arc_consistent(d, dom, related):
            result.add(out_img)
    return result


def _root_path(t: XmlTree, n: int) -> list[int]:
    path = [n]
    while t.parent[path[-1]] is not None:
        path.append(t.parent[path[-1]])
    return path


# ---------------------------------------------------------------------------
# view documents and plan evaluation


@dataclass
class ViewDocument:
    """Materialized view: the sorted ids of its answer roots in ``tree``, a
    fragment store that holds each answer's whole subtree under the node
    ids of the base document.  Views materialized together share one
    store, so a node inside several answers is held once."""

    name: str
    tree: XmlTree
    answer_roots: tuple[int, ...]


def _store_subtree(store: XmlTree, t: XmlTree, n: int) -> None:
    """Hold the subtree of ``n`` in ``store`` under its ids in ``t``.  A
    subtree the store already holds is linked below its parent, not copied
    again."""
    if n in store.labels:
        return
    stack = [n]
    while stack:
        x = stack.pop()
        store.parent[x] = None if x == n else t.parent[x]
        if x in store.labels:
            continue
        store.labels[x] = t.labels[x]
        store.texts[x] = t.texts[x]
        store.children[x] = list(t.children[x])
        stack.extend(t.children[x])
    store._dirty()


def materialize_view(
    v: Pattern, name: str, t: XmlTree, store: Optional[XmlTree] = None
) -> ViewDocument:
    """The answers of ``v`` over ``t``, their subtrees added to ``store``
    (a new one by default)."""
    store = XmlTree() if store is None else store
    roots = tuple(sorted(eval_tree_pattern(v, t)))
    for a in roots:
        _store_subtree(store, t, a)
    return ViewDocument(name, store, roots)


def materialize_all(views: ViewSet, t: XmlTree) -> dict[str, ViewDocument]:
    """Every view's answers, all held in one fragment store."""
    store = XmlTree()
    return {name: materialize_view(v, name, t, store) for name, v in views.items()}


ORIGID_LABEL = "__origid"


def view_document_to_xml(vd: ViewDocument) -> str:
    """Serialize a view document: below a root named after the view, the
    subtrees of its outermost answers, each answer root carrying a reserved
    ``__origid`` marker element with its original node id as first child."""
    t, answers = vd.tree, set(vd.answer_roots)
    marked = XmlTree()
    top = marked.add_node(vd.name, None)
    # (store node, parent in the marked tree), popped in preorder
    stack = [(n, top) for n in reversed(t.outermost(answers))]
    while stack:
        n, parent = stack.pop()
        nid = marked.add_node(t.labels[n], parent, t.texts[n])
        if n in answers:
            marked.add_node(ORIGID_LABEL, nid, str(n))
        stack.extend((c, nid) for c in reversed(t.children[n]))
    return print_xml(marked)


def view_document_from_xml(text: str, base: XmlTree) -> ViewDocument:
    """Rebuild a view document in a new store.  Ids of unmarked nodes are
    recovered by walking the base document from the nearest marked answer
    root (copies preserve child order)."""
    marked = parse_xml(text)
    store = XmlTree()
    answers: set[int] = set()
    # (marked node, its original id, the original of its parent); the
    # original of an outermost answer is read from its marker
    stack: list[tuple[int, Optional[int], Optional[int]]] = [
        (c, None, None) for c in reversed(marked.children[marked.root])
    ]
    while stack:
        n, orig, parent = stack.pop()
        kids = marked.children[n]
        markers = [c for c in kids if marked.labels[c] == ORIGID_LABEL]
        if len(markers) > 1:
            raise UnsupportedXml("a node carries several __origid markers")
        if orig is None and not markers:
            raise UnsupportedXml("answer root lacks its __origid marker")
        if markers:
            mark = int(marked.texts[markers[0]])
            if orig not in (None, mark):
                raise UnsupportedXml("__origid marker does not match the base document")
            orig = mark
            answers.add(orig)
            kids = [c for c in kids if c != markers[0]]
        base_kids = base.children.get(orig)
        if base_kids is None or len(base_kids) != len(kids):
            raise UnsupportedXml("view copy does not match the base document")
        if orig in store.labels:  # a nested answer written out twice
            if parent is not None:
                store.parent[orig] = parent
            continue
        store.labels[orig] = marked.labels[n]
        store.texts[orig] = marked.texts[n]
        store.children[orig] = list(base_kids)
        store.parent[orig] = parent
        stack.extend((c, bc, orig) for c, bc in zip(reversed(kids), reversed(base_kids)))
    return ViewDocument(marked.labels[marked.root], store, tuple(sorted(answers)))


def _steps_pattern(head_preds: tuple[Pred, ...], steps: tuple[Step, ...]) -> Pattern:
    """Tree pattern of a navigation: a root carrying ``head_preds``, then
    ``steps``.  The root stands for the start nodes; its label is unused."""
    p = Pattern()
    p.root = p.add_node("")
    for pred in head_preds:
        _graft_pred(p, p.root, pred)
    p.out = _graft_steps(p, p.root, steps)
    return p


def eval_plan(plan: Expr, docs: dict[str, ViewDocument]) -> set[int]:
    """Evaluate a rewrite plan over view documents.

    The result is a set of original node ids in the base document.
    Intersections intersect original ids, and navigation stays inside a
    view's answer subtrees.  An intersection enumerates only its cheapest
    branch.  Every other branch checks each surviving id by climbing from it
    towards an answer root of its view (a semi-join).
    """
    return _compile(plan, docs).run()


def _compile(plan: Expr, docs: dict[str, ViewDocument]) -> _Meet | _Navigation:
    if isinstance(plan, Path):
        if plan.doc not in docs:
            raise UnknownView(plan.doc)
        vd = docs[plan.doc]
        head = plan.steps[0]
        if head.label != vd.name:
            raise UnknownView(f"plan head {head.label!r} does not match view {vd.name!r}")
        return _Navigation(vd.tree, _steps_pattern(head.preds, plan.steps[1:]), vd.answer_roots)
    if isinstance(plan, Intersect):
        return _Meet([_compile(b, docs) for b in plan.branches])
    if isinstance(plan, Compensated):
        base = _compile(plan.base, docs)
        return _Navigation(base.store, _steps_pattern((), plan.steps), base)
    raise TypeError(type(plan))


class _Meet:
    """An intersection, its branches ordered cheapest first."""

    def __init__(self, branches: list):
        self.branches = sorted(branches, key=lambda b: b.cost)
        # Every answer lies in every branch's store with its subtree.
        self.store = self.branches[0].store
        self.cost = self.branches[0].cost

    def run(self) -> set[int]:
        first, *rest = self.branches
        ids = first.run()
        for b in rest:
            if not ids:
                break
            ids = {x for x in ids if b.has(x)}
        return ids

    def has(self, x: int) -> bool:
        return all(b.has(x) for b in self.branches)


class _Navigation:
    """The pattern of ``doc(v)/v[preds]/steps`` from a view's answer roots,
    or of ``(base)/steps`` from the answers of another plan, in one store.

    ``fits(n, x)`` holds when store node ``x`` satisfies the text test and
    the predicates of pattern node ``n``; each pair is decided once.  Labels
    are checked where nodes are drawn, and the root's label is unused.
    """

    def __init__(self, store: XmlTree, p: Pattern, start: tuple[int, ...] | _Meet | _Navigation):
        # ``start`` is a view's sorted answer-root ids, or the base plan
        self.store = store
        self.roots = start if isinstance(start, tuple) else None
        self.base = None if self.roots is not None else start
        self.mb = main_branch(p)
        self.axes = [p.axis(a, b) for a, b in zip(self.mb, self.mb[1:])]
        self.labels = {n: p.label(n) for n in p.nodes}
        self.tests = {n: p.test(n) for n in p.nodes}
        self.preds = {n: [(b, k, p.label(b)) for b, k in p.pred_edges(n)] for n in p.nodes}
        # pattern nodes whose store nodes need no test beyond the label
        self.plain = {n for n in p.nodes if not self.preds[n] and self.tests[n] is None}
        self.cost = len(self.roots) if self.base is None else self.base.cost
        self._fit: dict[int, dict[int, bool]] = {n: {} for n in p.nodes}
        self._skip: dict[int, dict[int, int]] = {n: {} for n in p.nodes}
        # per main-branch position i: store node -> whether it takes mb[i]
        # below a match of mb[:i] (``_at``), or whether it or an ancestor
        # does (``_up``)
        self._at_memo: list[dict[int, bool]] = [{} for _ in self.mb]
        self._up_memo: list[dict[int, bool]] = [{} for _ in self.mb]

    def fits(self, pn: int, x: int) -> bool:
        memo = self._fit[pn]
        got = memo.get(x)
        if got is None:
            t, plain = self.store, self.plain
            got = self.tests[pn] is None or t.texts[x] == self.tests[pn]
            for b, axis, label in self.preds[pn] if got else ():
                if axis == CHILD:
                    got = any(
                        t.labels[y] == label and (b in plain or self.fits(b, y))
                        for y in t.children[x]
                    )
                else:
                    nodes, lo, hi = t.span(x, label)
                    got = lo < hi if b in plain else self._fits_in(b, nodes, lo, hi)
                if not got:
                    break
            memo[x] = got
        return got

    def _fits_in(self, pn: int, nodes: list[int], lo: int, hi: int) -> bool:
        """Whether a node of ``nodes[lo:hi]`` fits ``pn``.  Known misses are
        jumped over, so nested spans do not rescan them."""
        skip = self._skip[pn]  # position -> a later one; all between are misses
        passed = []
        k = lo
        while k < hi:
            j = skip.get(k)
            if j is None:
                if self.fits(pn, nodes[k]):
                    break
                j = k + 1
            passed.append(k)
            k = j
        for i in passed:
            skip[i] = k
        return k < hi

    def _starts_at(self, x: int) -> bool:
        if self.base is not None:
            return self.base.has(x)
        i = bisect_left(self.roots, x)
        return i < len(self.roots) and self.roots[i] == x

    def run(self) -> set[int]:
        """Navigate forward from the start nodes."""
        t, mb = self.store, self.mb
        xs = self.roots if self.base is None else self.base.run()
        for i, pn in enumerate(mb):
            if i:
                label = self.labels[pn]
                if self.axes[i - 1] == CHILD:
                    xs = [c for x in xs for c in t.children[x] if t.labels[c] == label]
                else:
                    xs = [y for x in t.outermost(xs) for y in t.below(x, label)]
            if pn not in self.plain:
                xs = [x for x in xs if self.fits(pn, x)]
        return set(xs)

    def has(self, x: int) -> bool:
        """Whether ``x`` is an answer: climb the main branch upward from it
        to a start node."""
        return x in self.store.labels and self._at(len(self.mb) - 1, x)

    def _at(self, i: int, x: int) -> bool:
        memo = self._at_memo[i]
        got = memo.get(x)
        if got is None:
            pn = self.mb[i]
            got = self.store.labels[x] == self.labels[pn] if i else self._starts_at(x)
            got = got and (pn in self.plain or self.fits(pn, x))
            if got and i:
                up = self.store.parent[x]
                got = up is not None and (
                    self._at(i - 1, up) if self.axes[i - 1] == CHILD else self._up(i - 1, up)
                )
            memo[x] = got
        return got

    def _up(self, i: int, x: Optional[int]) -> bool:
        # Every node climbed past is memoised, so each is climbed once per i.
        memo, parent = self._up_memo[i], self.store.parent
        path = []
        while x is not None and x not in memo:
            if self._at(i, x):
                memo[x] = True
                break
            path.append(x)
            x = parent[x]
        got = x is not None and memo[x]
        for y in path:
            memo[y] = got
        return got


# ---------------------------------------------------------------------------
# random document generation


@dataclass
class TreeGenConfig:
    depth: int = 6
    fanout: int = 3
    labels: tuple[str, ...] = ("a", "b", "c", "d", "e")
    seed: int = 0
    text_values: tuple[str, ...] = ("", "", "x", "y")
    root_label: str = "L"


def generate_tree(cfg: TreeGenConfig) -> XmlTree:
    """Seed-deterministic random document."""
    rng = random.Random(cfg.seed)
    t = XmlTree()
    root = t.add_node(cfg.root_label, None)
    frontier = [(root, 0)]
    while frontier:
        n, d = frontier.pop()
        if d >= cfg.depth:
            continue
        for _ in range(rng.randint(1, cfg.fanout)):
            c = t.add_node(
                rng.choice(cfg.labels), n, rng.choice(cfg.text_values)
            )
            frontier.append((c, d + 1))
    return t
