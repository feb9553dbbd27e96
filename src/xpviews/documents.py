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
from functools import cached_property
from typing import Collection, Iterable, Iterator, Optional

from .syntax import CHILD, Compensated, Expr, Intersect, Path, Pred, Step
from .pattern import EMPTY, Pattern, UnknownView, ViewSet, _graft_pred, _graft_steps, main_branch
from .containment import _arc_consistent, _feasible


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
        self._rank: Optional[list[int] | dict[int, int]] = None
        self._end: list[int] | dict[int, int] = []
        self._ranked: dict[str, tuple[list[int], list[int]]] = {}
        self._parents: dict[str, set[int]] = {}
        self._classes: dict[tuple[str, Optional[str]], frozenset[int]] = {}

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
        # keeps its nodes, and their ranks, in preorder.  Ranks and ends are
        # lists indexed by node id, as a base document's or a shared store's
        # ids are dense.  A store's ids are its base document's, so a store
        # holding under an eighth of that id range keeps dicts instead, and
        # its index costs what it holds (a dict entry takes about eight list
        # slots).
        order: list[int] = []
        stack = [n for n, p in self.parent.items() if p is None]
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend(reversed(self.children[n]))
        width = max(self.parent, default=-1) + 1
        rank: list[int] | dict[int, int] = [0] * width if 8 * len(order) >= width else {}
        end = rank.copy()
        ranked: dict[str, tuple[list[int], list[int]]] = {}
        labels = self.labels
        for i, n in enumerate(order):
            rank[n] = i
            ranks, nodes = ranked.setdefault(labels[n], ([], []))
            ranks.append(i)
            nodes.append(n)
        for n in reversed(order):
            kids = self.children[n]
            end[n] = end[kids[-1]] if kids else rank[n] + 1
        self._rank, self._end, self._ranked = rank, end, ranked
        self._parents, self._classes = {}, {}

    def nodes_labelled(self, label: str) -> list[int]:
        """The nodes labelled ``label``, in preorder."""
        if self._rank is None:
            self._index()
        return self._ranked.get(label, ((), []))[1]

    def parents_of(self, label: str) -> set[int]:
        """The parents of the nodes labelled ``label``, built on first use
        and kept until the tree is indexed again (or, on a base document,
        until the view fill that built them ends)."""
        if self._rank is None:
            self._index()
        got = self._parents.get(label)
        if got is None:
            got = self._parents[label] = {self.parent[n] for n in self.nodes_labelled(label)} - {None}
        return got

    def label_class(self, label: str, test: Optional[str] = None) -> frozenset[int]:
        """The nodes labelled ``label`` whose text is ``test`` (any text
        when None).  A class that is not empty is kept until the tree is
        indexed again, so what is kept grows with the tree, not with the
        labels and texts that queries ask for."""
        if self._rank is None:
            self._index()
        got = self._classes.get((label, test))
        if got is None:
            nodes = self.nodes_labelled(label)
            if test is not None:
                texts = self.texts
                nodes = [n for n in nodes if texts[n] == test]
            got = frozenset(nodes)
            if got:
                self._classes[label, test] = got
        return got

    def span(self, n: int, label: str) -> tuple[list[int], int, int]:
        """The preorder list of ``label``'s nodes, and the bounds of the
        slice of it that lies strictly below ``n``."""
        if self._rank is None:
            self._index()
        ranks, nodes = self._ranked.get(label, ((), []))
        lo = bisect_right(ranks, self._rank[n])
        return nodes, lo, bisect_left(ranks, self._end[n], lo)

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

    def up(self, ys: Iterable[int], axis: str) -> set[int]:
        """The parents of ``ys`` (axis /), or all their strict ancestors
        (axis //).  Each node is climbed from at most once."""
        parent = self.parent
        if axis == CHILD:
            got = set(map(parent.__getitem__, ys))
            got.discard(None)
            return got
        seen: set[int] = set()
        for y in ys:
            x = parent[y]
            while x is not None and x not in seen:
                seen.add(x)
                x = parent[x]
        return seen

    def child_step(self, xs: Collection[int], label: str) -> list[int]:
        """The children of ``xs`` labelled ``label``, read from the smaller
        side: the children of ``xs``, or the label's nodes whose parent is
        in ``xs``."""
        nodes = self.nodes_labelled(label)
        if len(xs) < len(nodes):
            labels = self.labels
            return [c for x in xs for c in self.children[x] if labels[c] == label]
        xs, parent = set(xs), self.parent
        return [y for y in nodes if parent[y] in xs]

    def desc_step(self, xs: Iterable[int], label: str) -> list[int]:
        """The strict descendants of ``xs`` labelled ``label``, each once:
        the label's preorder slice below each outermost node of ``xs``."""
        tops = self.outermost(xs)  # indexes the tree first
        ranks, nodes = self._ranked.get(label, ((), []))
        rank, end = self._rank, self._end
        out: list[int] = []
        for x in tops:
            lo = bisect_right(ranks, rank[x])
            out += nodes[lo:bisect_left(ranks, end[x], lo)]
        return out

    def under(self, xs: set[int], ys: set[int], axis: str) -> set[int]:
        """The nodes of ``ys`` whose parent (axis /), or some strict
        ancestor (axis //), is in ``xs``.  Each ancestor's answer is
        memoised, so every node is climbed at most once."""
        parent = self.parent
        if axis == CHILD:
            if len(xs) < len(ys):  # read the smaller side
                return {c for x in xs for c in self.children[x] if c in ys}
            return {y for y in ys if parent[y] in xs}
        met: dict[int, bool] = {}  # node -> whether it or an ancestor is in `xs`
        res = set()
        for y in ys:
            path = []
            x = parent[y]
            while x is not None and x not in met and x not in xs:
                path.append(x)
                x = parent[x]
            hit = x is not None and (x in xs or met[x])
            for z in path:
                met[z] = hit
            if hit:
                res.add(y)
        return res

    def descendants(self, n: int) -> list[int]:
        out = []
        stack = list(self.children[n])
        while stack:
            x = stack.pop()
            out.append(x)
            stack.extend(self.children[x])
        return out


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


def _candidate_sets(p: Pattern, t: XmlTree, starts: Iterable[int]) -> Optional[dict[int, set[int]]]:
    """Bottom-up feasibility sets; exact for tree-shaped patterns.  The
    root's pool is a new set of ``starts``, whatever their labels, and any
    other node's is ``XmlTree.label_class``, which is shared and frozen;
    both keep only the nodes that pass its text test."""

    def pool(pn: int) -> frozenset[int] | set[int]:
        req = p.test(pn)
        if pn != p.root:
            return t.label_class(p.label(pn), req)
        return set(starts) if req is None else {x for x in starts if t.texts[x] == req}

    return _feasible(p, pool, t.up)


def eval_tree_pattern(p: Pattern, t: XmlTree) -> set[int]:
    """Output-node images over all embeddings of a tree pattern: direct
    evaluation on the base document, the baseline that plans are compared
    with.  It runs on ``_embed``; the view fill and plans run on
    ``_Navigation``."""
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
            reach.setdefault(b, set()).update(t.under(here, cand[b], k))
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
    result = set()
    for out_img in cand[d.out]:
        path = set(_root_path(t, out_img))
        dom = {n: cand[n] & path for n in mbn}
        dom[d.out] = {out_img}
        if _arc_consistent(d, dom, t):
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

    @cached_property
    def root_set(self) -> frozenset[int]:
        """``answer_roots`` as a set, built on first use."""
        return frozenset(self.answer_roots)


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


def _fill(views: Iterable[tuple[str, Pattern]], t: XmlTree, store: XmlTree) -> dict[str, ViewDocument]:
    """Each view's answers over ``t``, their subtrees added to ``store``.

    A tree view whose root label is ``t``'s runs on the plan navigator, as if
    ``t`` were a view with the document root as its one answer root; EMPTY
    and DAG views go through ``eval_tree_pattern``.  The ``parents_of`` sets
    that the navigator builds on ``t`` serve every view, and are dropped
    before the store grows, so they add nothing to its peak and the base
    document keeps none of them.
    """
    roots = {}
    for name, v in views:
        if v is EMPTY or not v.is_tree():
            answers = eval_tree_pattern(v, t)
        elif t.labels[t.root] != v.label(v.root):
            answers = set()
        else:
            answers = _Navigation(v, ViewDocument("", t, (t.root,))).run()
        roots[name] = tuple(sorted(answers))
    t._parents = {}
    for rs in roots.values():
        for a in rs:
            _store_subtree(store, t, a)
    return {name: ViewDocument(name, store, rs) for name, rs in roots.items()}


def materialize_view(
    v: Pattern, name: str, t: XmlTree, store: Optional[XmlTree] = None
) -> ViewDocument:
    """The answers of ``v`` over ``t``, their subtrees added to ``store``
    (a new one by default); see ``_fill``."""
    return _fill([(name, v)], t, XmlTree() if store is None else store)[name]


def materialize_all(views: ViewSet, t: XmlTree) -> dict[str, ViewDocument]:
    """Every view's answers, all held in one fragment store; see ``_fill``."""
    return _fill(views.items(), t, XmlTree())


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
    branch; each other branch filters the surviving ids as one set (a
    semi-join): up its main branch to parents or strict ancestors, keeping
    the nodes that pass each step, then down from those that are start
    nodes.  Predicates are decided on sets too, a ``/`` one with nothing
    below it against ``XmlTree.parents_of`` its label (a set per label, at
    most one id per store node, held until the store changes).  A ``/``
    step reads the smaller side (``XmlTree.child_step``).
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
        return _Navigation(_steps_pattern(head.preds, plan.steps[1:]), vd)
    if isinstance(plan, Intersect):
        return _Meet([_compile(b, docs) for b in plan.branches])
    if isinstance(plan, Compensated):
        base = _compile(plan.base, docs)
        return _Navigation(_steps_pattern((), plan.steps), base)
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
            ids = b.filter(ids)
        return ids

    def filter(self, ids: set[int]) -> set[int]:
        for b in self.branches:
            if not ids:
                break
            ids = b.filter(ids)
        return ids


class _Navigation:
    """The pattern of ``doc(v)/v[preds]/steps`` from a view's answer roots,
    or of ``(base)/steps`` from the answers of another plan, in one store.
    Labels are checked where nodes are drawn, and the root's label is
    unused.
    """

    def __init__(self, p: Pattern, start: ViewDocument | _Meet | _Navigation):
        # ``start`` is the view whose answer roots are the start nodes, or
        # the base plan
        self.view = start if isinstance(start, ViewDocument) else None
        self.base = None if self.view is not None else start
        self.store = start.tree if self.view is not None else start.store
        self.mb = main_branch(p)
        self.axes = [p.axis(a, b) for a, b in zip(self.mb, self.mb[1:])]
        self.labels = {n: nd.label for n, nd in p.nodes.items()}
        self.tests = {n: nd.test for n, nd in p.nodes.items()}
        self.preds = {n: [(b, k, self.labels[b]) for b, k in p.pred_edges(n)] for n in p.nodes}
        # pattern nodes whose store nodes need no test beyond the label
        self.plain = {n for n in p.nodes if not self.preds[n] and self.tests[n] is None}
        self.cost = len(self.view.answer_roots) if self.base is None else self.base.cost

    def _tested(self, pn: int, xs: Iterable[int]) -> set[int]:
        test, texts = self.tests[pn], self.store.texts
        return set(xs) if test is None else {x for x in xs if texts[x] == test}

    def keep(self, pn: int, xs: Iterable[int]) -> set[int]:
        """The store nodes of ``xs`` that pass the text test and the
        predicates of pattern node ``pn``."""
        t, plain = self.store, self.plain
        # An explicit post-order over the predicate subtree.  A frame holds
        # the store nodes still alive for a pattern node, its predicates not
        # yet decided, and the axis from the node of the frame below it.
        stack = [[self._tested(pn, xs), iter(self.preds[pn]), None]]
        while True:
            frame = stack[-1]
            alive, todo, axis = frame
            pred = next(todo, None) if alive else None
            if pred is None:
                stack.pop()
                if not stack:
                    return alive
                stack[-1][0] &= t.up(alive, axis)
                continue
            b, k, label = pred
            if b in plain:
                if k == CHILD:
                    frame[0] = alive & t.parents_of(label)
                else:
                    spans = ((x, t.span(x, label)) for x in alive)
                    frame[0] = {x for x, (_, lo, hi) in spans if lo < hi}
            else:
                sub = t.child_step(alive, label) if k == CHILD else t.desc_step(alive, label)
                stack.append([self._tested(b, sub), iter(self.preds[b]), k])

    def run(self) -> set[int]:
        """Navigate forward from the start nodes."""
        t, mb = self.store, self.mb
        xs = self.view.answer_roots if self.base is None else self.base.run()
        for i, pn in enumerate(mb):
            if i:
                label = self.labels[pn]
                xs = t.child_step(xs, label) if self.axes[i - 1] == CHILD else t.desc_step(xs, label)
            if pn not in self.plain:
                xs = self.keep(pn, xs)
        return set(xs)

    def filter(self, ids: Iterable[int]) -> set[int]:
        """The answers among ``ids``.  Going up the main branch from the
        output gives each position's candidates; going down from the
        candidates that are start nodes keeps the chains that connect."""
        t, mb, labels = self.store, self.mb, self.store.labels
        # Ids outside the store drop out at the first label check, or at the
        # start nodes, which lie in the store.
        xs = ids
        cands: list[set[int]] = []  # per position, from the output up
        for i in range(len(mb) - 1, 0, -1):
            label = self.labels[mb[i]]
            xs = self.keep(mb[i], [x for x in xs if labels.get(x) == label])
            if not xs:
                return xs
            cands.append(xs)
            xs = t.up(xs, self.axes[i - 1])
        if self.base is None:
            xs = xs & self.view.root_set
        else:
            xs = self.base.filter(xs)
        xs = self.keep(mb[0], xs)
        for axis, here in zip(self.axes, reversed(cands)):
            if not xs:
                break
            xs = t.under(xs, here, axis)
        return xs


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
