"""Unordered labeled XML trees, pattern evaluation, and view documents.

Evaluation follows embedding semantics: a tree pattern selects the set of
images of its output node under all embeddings.  Only elements and text
are supported; attributes and namespaces are rejected.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .syntax import CHILD, DESC, Compensated, Expr, Intersect, Path, Pred, Step
from .pattern import EMPTY, Pattern, UnknownView, ViewSet, _graft_pred, _graft_steps


class UnsupportedXml(ValueError):
    """Input uses XML features outside the element+text subset."""


class XmlTree:
    """Rooted unordered tree with persistent integer node ids."""

    def __init__(self):
        self.labels: dict[int, str] = {}
        self.texts: dict[int, str] = {}
        self.children: dict[int, list[int]] = {}
        self.parent: dict[int, Optional[int]] = {}
        self.root: int = -1
        self._next = 0
        self._tin: Optional[dict[int, int]] = None
        self._tout: Optional[dict[int, int]] = None
        self._by_label: Optional[dict[str, list[int]]] = None

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
        self._tin = None
        self._by_label = None
        return nid

    def size(self) -> int:
        return len(self.labels)

    def _index(self) -> None:
        # Euler intervals for O(1) strict-descendant tests.
        tin: dict[int, int] = {}
        tout: dict[int, int] = {}
        clock = 0
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            n, done = stack.pop()
            if done:
                tout[n] = clock
                clock += 1
                continue
            tin[n] = clock
            clock += 1
            stack.append((n, True))
            for c in reversed(self.children[n]):
                stack.append((c, False))
        self._tin, self._tout = tin, tout

    def _label_index(self) -> dict[str, list[int]]:
        # Lists rather than sets: view documents reach millions of nodes.
        idx = self._by_label
        if idx is None:
            idx = {}
            for n, lab in self.labels.items():
                idx.setdefault(lab, []).append(n)
            self._by_label = idx
        return idx

    def is_strict_descendant(self, d: int, a: int) -> bool:
        if self._tin is None:
            self._index()
        return d != a and self._tin[a] < self._tin[d] and self._tout[d] < self._tout[a]

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
    idx = t._label_index()
    for pn in reversed(order):
        base = set(starts) if pn == p.root else set(idx.get(p.label(pn), ()))
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

    Main-branch images all lie on one root path of ``t``; we fix the output
    image and search for a consistent assignment, using the tree-exact
    candidate sets for pruning.
    """
    if d is EMPTY or t.labels[t.root] != d.label(d.root):
        return set()
    cand = _candidate_sets(d, t, {t.root})
    if cand is None:
        return set()
    mbn = d.mb_nodes()
    order = [n for n in d.topo_order()]
    result = set()
    for out_img in sorted(cand[d.out]):
        path = set(_root_path(t, out_img))
        assign: dict[int, int] = {}

        def ok(pn: int, x: int) -> bool:
            for a, k in d.in_edges(pn):
                if a in assign:
                    if k == CHILD and t.parent[x] != assign[a]:
                        return False
                    if k == DESC and not t.is_strict_descendant(x, assign[a]):
                        return False
            return True

        def search(i: int) -> bool:
            if i == len(order):
                return True
            pn = order[i]
            pool = cand[pn]
            if pn in mbn:
                pool = pool & path
            if pn == d.out:
                pool = pool & {out_img}
            for x in sorted(pool):
                if ok(pn, x):
                    assign[pn] = x
                    if search(i + 1):
                        return True
                    del assign[pn]
            return False

        if search(0):
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
    """Materialized view: answer subtrees copied under a root named after
    the view, with a copy-to-original id map."""

    name: str
    tree: XmlTree
    originals: dict[int, int]
    answer_roots: list[int] = field(default_factory=list)


def _copy_subtree(
    src: XmlTree, n: int, dst: XmlTree, parent: Optional[int], sources: dict[int, int]
) -> int:
    """Copy the subtree of ``n`` below ``parent`` in preorder, recording
    each copy's source node in ``sources``; returns the copy of ``n``."""
    top = dst.add_node(src.labels[n], parent, src.texts[n])
    sources[top] = n
    # (unvisited children, their parent copy), one entry per open node
    stack = [(iter(src.children[n]), top)]
    while stack:
        kids, at = stack[-1]
        for x in kids:
            nid = dst.add_node(src.labels[x], at, src.texts[x])
            sources[nid] = x
            stack.append((iter(src.children[x]), nid))
            break
        else:
            stack.pop()
    return top


def materialize_view(v: Pattern, name: str, t: XmlTree) -> ViewDocument:
    vt = XmlTree()
    root = vt.add_node(name, None)
    originals: dict[int, int] = {}
    roots = [_copy_subtree(t, a, vt, root, originals) for a in sorted(eval_tree_pattern(v, t))]
    return ViewDocument(name, vt, originals, roots)


def materialize_all(views: ViewSet, t: XmlTree) -> dict[str, ViewDocument]:
    return {name: materialize_view(v, name, t) for name, v in views.items()}


ORIGID_LABEL = "__origid"


def view_document_to_xml(vd: ViewDocument) -> str:
    """Serialize a view document; each answer root carries a reserved
    ``__origid`` marker element holding its original node id."""
    marked = XmlTree()
    sources: dict[int, int] = {}
    _copy_subtree(vd.tree, vd.tree.root, marked, None, sources)
    answer_roots = set(vd.answer_roots)
    for nid, n in sources.items():
        if n in answer_roots:
            marked.add_node(ORIGID_LABEL, nid, str(vd.originals[n]))
            kids = marked.children[nid]
            kids.insert(0, kids.pop())  # the marker prints first
    return print_xml(marked)


def view_document_from_xml(text: str, base: XmlTree) -> ViewDocument:
    """Rebuild a view document; originals of inner copies are recovered by
    walking the base document from each marked answer root (copies preserve
    child order)."""
    marked = parse_xml(text)
    vt = XmlTree()
    originals: dict[int, int] = {}
    answer_roots: list[int] = []
    root = vt.add_node(marked.labels[marked.root], None)
    # (marked node, parent copy, original); the original of an answer root
    # is read from its marker
    stack: list[tuple[int, int, Optional[int]]] = [
        (c, root, None) for c in reversed(marked.children[marked.root])
    ]
    while stack:
        n, parent, orig = stack.pop()
        nid = vt.add_node(marked.labels[n], parent, marked.texts[n])
        kids = marked.children[n]
        if orig is None:
            markers = [c for c in kids if marked.labels[c] == ORIGID_LABEL]
            if len(markers) != 1:
                raise UnsupportedXml("answer root lacks its __origid marker")
            orig = int(marked.texts[markers[0]])
            kids = [c for c in kids if c not in markers]
            answer_roots.append(nid)
        originals[nid] = orig
        base_kids = base.children[orig]
        if len(base_kids) != len(kids):
            raise UnsupportedXml("view copy does not match the base document")
        stack.extend((c, nid, bc) for c, bc in zip(reversed(kids), reversed(base_kids)))
    return ViewDocument(marked.labels[marked.root], vt, originals, answer_roots)


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

    Intersections intersect *original* node ids; navigation proceeds inside
    whichever view document holds a copy of the current node.  The result
    is a set of original ids in the base document.
    """
    return set(_eval_plan_reps(plan, docs))


def _eval_plan_reps(plan: Expr, docs: dict[str, ViewDocument]) -> dict[int, tuple[str, int]]:
    if isinstance(plan, Path):
        if plan.doc not in docs:
            raise UnknownView(plan.doc)
        vd = docs[plan.doc]
        head = plan.steps[0]
        if head.label != vd.name:
            raise UnknownView(f"plan head {head.label!r} does not match view {vd.name!r}")
        hits = _embed(_steps_pattern(head.preds, plan.steps[1:]), vd.tree, vd.answer_roots)
        return {vd.originals[h]: (vd.name, h) for h in hits}
    if isinstance(plan, Intersect):
        parts = [_eval_plan_reps(b, docs) for b in plan.branches]
        common = set(parts[0])
        for part in parts[1:]:
            common &= set(part)
        return {orig: parts[0][orig] for orig in common}
    if isinstance(plan, Compensated):
        # Copies of one original hold equal subtrees, so any copy will do:
        # one navigation per view document, from all its copies at once.
        by_view: dict[str, list[int]] = {}
        for name, copy_id in _eval_plan_reps(plan.base, docs).values():
            by_view.setdefault(name, []).append(copy_id)
        steps = _steps_pattern((), plan.steps)
        out: dict[int, tuple[str, int]] = {}
        for name, copies in by_view.items():
            vd = docs[name]
            for h in _embed(steps, vd.tree, copies):
                out[vd.originals[h]] = (name, h)
        return out
    raise TypeError(type(plan))


# ---------------------------------------------------------------------------
# canonical models


def canonical_model(p: Pattern, z: str = "zz_fresh") -> XmlTree:
    """Tree obtained from ``p`` by expanding each //-edge into /z/ steps."""
    tree, _ = canonical_model_with_output(p, z)
    return tree


def canonical_model_with_output(p: Pattern, z: str = "zz_fresh") -> tuple[XmlTree, int]:
    t = XmlTree()
    images: dict[int, int] = {}
    order = p.topo_order()
    images[p.root] = t.add_node(p.label(p.root), None, p.test(p.root) or "")
    for n in order:
        for b, k in p.out_edges(n):
            at = images[n]
            if k == DESC:
                at = t.add_node(z, at)
            images[b] = t.add_node(p.label(b), at, p.test(b) or "")
    return t, images[p.out]


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
