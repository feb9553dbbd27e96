"""Reference evaluator for the benchmark, written apart from ``xpviews``.

It has its own XML reader, its own reader and printer for the XP dialect
(absolute paths with ``/`` and ``//`` steps and bracket predicates, which
may end in a text constant), and a plain embedding evaluator.  Answers are
document positions: the tuple of child indexes on the way from the root.
Positions mean the same thing in every load of the same text, node ids do
not.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Optional

CHILD = "/"
DESC = "//"


# ---------------------------------------------------------------------------
# documents


@dataclass
class Tree:
    """Ordered labelled tree: node 0 is the root and every child has a
    larger number than its parent."""

    labels: list[str] = field(default_factory=list)
    texts: list[str] = field(default_factory=list)
    parent: list[int] = field(default_factory=list)
    children: list[list[int]] = field(default_factory=list)

    @classmethod
    def generate(cls, seed: int, depth: int, fanout: int, labels: str, texts: tuple[str, ...], root: str) -> "Tree":
        """Seeded random document: every node above ``depth`` gets 1 to
        ``fanout`` children with labels and texts drawn uniformly."""
        rng = random.Random(seed)
        t = cls()
        t.add(root, -1)
        stack = [(0, 0)]
        while stack:
            n, d = stack.pop()
            if d == depth:
                continue
            for _ in range(rng.randint(1, fanout)):
                stack.append((t.add(rng.choice(labels), n, rng.choice(texts)), d + 1))
        return t

    def add(self, label: str, parent: int, text: str = "") -> int:
        n = len(self.labels)
        self.labels.append(label)
        self.texts.append(text)
        self.parent.append(parent)
        self.children.append([])
        if parent >= 0:
            self.children[parent].append(n)
        return n

    def size(self) -> int:
        return len(self.labels)

    def position(self, n: int) -> tuple[int, ...]:
        path = []
        while self.parent[n] >= 0:
            p = self.parent[n]
            path.append(self.children[p].index(n))
            n = p
        return tuple(reversed(path))

    def positions(self, nodes) -> set[tuple[int, ...]]:
        return {self.position(n) for n in nodes}


_TOKEN = re.compile(r"<(/?)([A-Za-z_][A-Za-z0-9_.-]*)\s*(/?)>|([^<]+)")
_UNESCAPE = (("&lt;", "<"), ("&gt;", ">"), ("&amp;", "&"))


def _unescape(s: str) -> str:
    for a, b in _UNESCAPE:
        s = s.replace(a, b)
    return s


def read_xml(text: str) -> Tree:
    """Elements and text only.  An element's text is the stripped text
    before its first child; any other text must be blank."""
    t = Tree()
    stack: list[int] = []
    pos = 0
    fresh = False  # the last token opened the element on top of the stack
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            raise ValueError(f"unreadable XML at offset {pos}")
        pos = m.end()
        closing, name, empty, chars = m.groups()
        if chars is not None:
            if fresh and chars.strip():
                t.texts[stack[-1]] = _unescape(chars.strip())
            elif chars.strip():
                raise ValueError(f"text outside an element's head at offset {m.start()}")
            continue
        fresh = False
        if closing:
            if not stack or t.labels[stack[-1]] != name:
                raise ValueError(f"unbalanced </{name}> at offset {m.start()}")
            stack.pop()
            continue
        if not stack and t.size():
            raise ValueError("more than one root element")
        n = t.add(name, stack[-1] if stack else -1)
        if not empty:
            stack.append(n)
            fresh = True
    if pos != len(text) or stack or not t.size():
        raise ValueError("truncated XML")
    return t


def write_xml(t: Tree) -> str:
    out: list[str] = []
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        n, done = stack.pop()
        label = t.labels[n]
        if done:
            out.append(f"</{label}>")
            continue
        text = t.texts[n].replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        if not t.children[n]:
            out.append(f"<{label}>{text}</{label}>" if text else f"<{label}/>")
            continue
        out.append(f"<{label}>{text}")
        stack.append((n, True))
        for c in reversed(t.children[n]):
            stack.append((c, False))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# queries


@dataclass
class QNode:
    label: str
    const: Optional[str] = None
    kids: list[tuple[str, "QNode"]] = field(default_factory=list)


@dataclass
class Query:
    """Tree pattern; ``main`` is the chain from the root (the document
    label) to the output node.  Main-branch nodes carry no constant."""

    main: list[QNode]

    @property
    def root(self) -> QNode:
        return self.main[0]

    def axis_above(self, i: int) -> str:
        parent, node = self.main[i - 1], self.main[i]
        return next(a for a, k in parent.kids if k is node)

    def copy(self) -> "Query":
        index: dict[int, QNode] = {}

        def dup(n: QNode) -> QNode:
            c = QNode(n.label, n.const, [(a, dup(k)) for a, k in n.kids])
            index[id(n)] = c
            return c

        dup(self.root)
        return Query([index[id(n)] for n in self.main])

    def labels(self) -> set[str]:
        out, stack = set(), [self.root]
        while stack:
            n = stack.pop()
            out.add(n.label)
            stack.extend(k for _, k in n.kids)
        return out

    def text(self) -> str:
        if len(self.root.kids) != 1:
            raise ValueError("the XP dialect has no predicates on the document root")
        parts = [f'doc("{self.root.label}")']
        for i in range(1, len(self.main)):
            node = self.main[i]
            preds = [(a, k) for a, k in node.kids if i + 1 == len(self.main) or k is not self.main[i + 1]]
            parts.append(self.axis_above(i) + node.label + "".join(_pred_text(a, k) for a, k in preds))
        return "".join(parts)


def _pred_text(axis: str, n: QNode) -> str:
    body = ".//" if axis == DESC else ""
    while True:
        if n.const is not None or len(n.kids) != 1:
            body += n.label + "".join(_pred_text(a, k) for a, k in n.kids)
            if n.const is not None:
                body += f'="{n.const}"'
            return f"[{body}]"
        body += n.label
        (axis, n), = n.kids
        body += axis


_LEX = re.compile(r'\s*(doc\("[^"]*"\)|//|/|\.//|\[|\]|="[^"]*"|[A-Za-z_][A-Za-z0-9_-]*)')


def parse_query(text: str) -> Query:
    toks, pos = [], 0
    while pos < len(text.rstrip()):
        m = _LEX.match(text, pos)
        if not m:
            raise ValueError(f"cannot read query at offset {pos}: {text!r}")
        toks.append(m.group(1))
        pos = m.end()
    toks.append("")
    i = 0

    def take() -> str:
        nonlocal i
        i += 1
        return toks[i - 1]

    def label() -> str:
        tok = take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_-]*", tok):
            raise ValueError(f"expected a label, got {tok!r} in {text!r}")
        return tok

    def step() -> QNode:
        node = QNode(label())
        while toks[i] == "[":
            take()
            axis = DESC if toks[i] == ".//" else CHILD
            if axis == DESC:
                take()
            head = cur = step()
            while toks[i] in (CHILD, DESC):
                a = take()
                nxt = step()
                cur.kids.append((a, nxt))
                cur = nxt
            if toks[i].startswith('="'):
                cur.const = take()[2:-1]
            if take() != "]":
                raise ValueError(f"expected ']' in {text!r}")
            node.kids.append((axis, head))
        return node

    head = take()
    if not head.startswith('doc("'):
        raise ValueError(f"expected doc(...) in {text!r}")
    main = [QNode(head[5:-2])]
    while toks[i] in (CHILD, DESC):
        axis = take()
        node = step()
        main[-1].kids.append((axis, node))
        main.append(node)
    if toks[i] != "" or len(main) < 2:
        raise ValueError(f"trailing or missing steps in {text!r}")
    return Query(main)


# ---------------------------------------------------------------------------
# evaluation


def _satisfying(n: QNode, t: Tree, by_label: dict[str, list[int]], memo: dict[int, set[int]]) -> set[int]:
    """Document nodes where the subpattern rooted at ``n`` embeds."""
    if id(n) in memo:
        return memo[id(n)]
    here = {x for x in by_label.get(n.label, ()) if n.const is None or t.texts[x] == n.const}
    for axis, kid in n.kids:
        if not here:
            break
        below = _satisfying(kid, t, by_label, memo)
        if axis == CHILD:
            ok = {t.parent[y] for y in below if t.parent[y] >= 0}
        else:
            ok = set()
            for y in below:
                x = t.parent[y]
                while x >= 0 and x not in ok:
                    ok.add(x)
                    x = t.parent[x]
        here &= ok
    memo[id(n)] = here
    return here


def evaluate(q: Query, t: Tree) -> set[int]:
    """Images of the output node under all embeddings of ``q`` into ``t``."""
    by_label: dict[str, list[int]] = {}
    for x, lab in enumerate(t.labels):
        by_label.setdefault(lab, []).append(x)
    memo: dict[int, set[int]] = {}
    reach = {0} & _satisfying(q.root, t, by_label, memo)
    for i in range(1, len(q.main)):
        if not reach:
            return set()
        node = q.main[i]
        pool = _satisfying(node, t, by_label, memo)
        if q.axis_above(i) == CHILD:
            reach = {c for x in reach for c in t.children[x] if c in pool}
        else:
            nxt = set()
            for y in pool:
                x = t.parent[y]
                while x >= 0:
                    if x in reach:
                        nxt.add(y)
                        break
                    x = t.parent[x]
            reach = nxt
    return reach


def canonical_model(q: Query, fresh: str) -> tuple[Tree, int]:
    """The query read as a document, every ``//`` edge expanded through one
    node labelled ``fresh``; returns the tree and the output's image."""
    if fresh in q.labels():
        raise ValueError(f"label {fresh!r} is not fresh for {q.text()}")
    t = Tree()
    image: dict[int, int] = {}
    stack = [(q.root, -1, CHILD)]
    while stack:
        n, at, axis = stack.pop()
        if axis == DESC:
            at = t.add(fresh, at)
        image[id(n)] = t.add(n.label, at, n.const or "")
        for a, k in reversed(n.kids):
            stack.append((k, image[id(n)], a))
    return t, image[id(q.main[-1])]
