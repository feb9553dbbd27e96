"""Parsing and printing for the three query dialects.

The base dialect XP has absolute paths with child (/) and descendant (//)
steps and bracket predicates, optionally comparing against a text constant.
XPCAP adds a single level of intersection between absolute paths, followed
by at most one relative continuation.  XPINT allows intersections and
continuations to nest arbitrarily.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union


class Dialect(Enum):
    XP = "xp"
    XPCAP = "xpcap"
    XPINT = "xpint"

    @classmethod
    def parse(cls, name: str) -> "Dialect":
        key = name.strip().lower().replace("-", "").replace("_", "")
        for d in cls:
            if d.value == key:
                return d
        raise ValueError(f"unknown dialect {name!r}")


# Dialect inclusion order: XP < XPCAP < XPINT.
_DIALECT_RANK = {Dialect.XP: 0, Dialect.XPCAP: 1, Dialect.XPINT: 2}

CHILD = "/"
DESC = "//"

LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")


class XPathSyntaxError(ValueError):
    """Malformed expression text."""

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"at position {position}: expected {expected}")


class DialectError(ValueError):
    """Expression uses a construct outside the requested dialect."""


@dataclass(frozen=True)
class Pred:
    """Bracket predicate: a relative path plus an optional text constant.

    The leading axis is carried by ``steps[0].axis`` (CHILD for ``[p]``,
    DESC for ``[.//p]``).
    """

    steps: tuple["Step", ...]
    const: Optional[str] = None


@dataclass(frozen=True)
class Step:
    label: str
    axis: str = CHILD  # axis of the edge *above* this step
    preds: tuple[Pred, ...] = ()


@dataclass(frozen=True)
class Path:
    """A (possibly absolute) path.  ``doc`` is the document name, if any."""

    doc: Optional[str]
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class Intersect:
    branches: tuple["Expr", ...]


@dataclass(frozen=True)
class Compensated:
    """A parenthesized expression followed by a relative continuation."""

    base: "Expr"
    steps: tuple[Step, ...]


Expr = Union[Path, Intersect, Compensated]


def dialect_of(expr: Expr) -> Dialect:
    """Smallest dialect admitting ``expr``."""
    if isinstance(expr, Path):
        return Dialect.XP
    if isinstance(expr, Intersect):
        if all(isinstance(b, Path) for b in expr.branches):
            return Dialect.XPCAP
        return Dialect.XPINT
    if isinstance(expr, Compensated):
        if isinstance(expr.base, Path):
            return Dialect.XPCAP
        if isinstance(expr.base, Intersect) and all(
            isinstance(b, Path) for b in expr.base.branches
        ):
            return Dialect.XPCAP
        return Dialect.XPINT
    raise TypeError(type(expr))


def check_dialect(expr: Expr, dialect: Dialect) -> None:
    found = dialect_of(expr)
    if _DIALECT_RANK[found] > _DIALECT_RANK[dialect]:
        raise DialectError(
            f"expression requires {found.value} but {dialect.value} was requested"
        )


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    # -- low level ---------------------------------------------------------

    def error(self, expected: str) -> XPathSyntaxError:
        return XPathSyntaxError(self.pos, expected)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, s: str) -> bool:
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def eat(self, s: str) -> None:
        if not self.peek(s):
            raise self.error(repr(s))
        self.pos += len(s)

    def try_eat(self, s: str) -> bool:
        if self.peek(s):
            self.pos += len(s)
            return True
        return False

    def eat_axis(self) -> str:
        # '//' must be tried before '/'.
        if self.try_eat(DESC):
            return DESC
        if self.try_eat(CHILD):
            return CHILD
        raise self.error("'/' or '//'")

    def eat_label(self) -> str:
        self.skip_ws()
        m = LABEL_RE.match(self.text, self.pos)
        if not m:
            raise self.error("label")
        self.pos = m.end()
        return m.group()

    def eat_const(self) -> str:
        self.eat('"')
        end = self.text.find('"', self.pos)
        if end < 0:
            raise self.error("closing '\"'")
        value = self.text[self.pos : end]
        self.pos = end + 1
        return value

    # -- grammar -----------------------------------------------------------

    def parse_expr(self) -> Expr:
        """jpath: term (& cpath)*, where terms may be parenthesized and
        carry a relative continuation."""
        branches = [self.parse_term()]
        while self.try_eat("&") or self.try_eat("∩"):
            branches.append(self.parse_term())
        if len(branches) == 1:
            return branches[0]
        return _flatten(Intersect(tuple(branches)))

    def parse_term(self) -> Expr:
        if self.peek("("):
            self.eat("(")
            inner = self.parse_expr()
            self.eat(")")
            self.skip_ws()
            if self.peek(CHILD):  # covers '//' as well
                axis = self.eat_axis()
                steps = self.parse_rpath(axis)
                return _normalize_comp(Compensated(inner, steps))
            return inner
        return self.parse_apath()

    def parse_apath(self) -> Path:
        self.skip_ws()
        start = self.pos
        if not self.try_eat("doc"):
            raise self.error("'doc(' or '('")
        self.eat("(")
        name = self.eat_const()
        self.eat(")")
        if self.pos == start:
            raise self.error("'doc'")
        axis = self.eat_axis()
        steps = self.parse_rpath(axis)
        return Path(name, steps)

    def parse_rpath(self, first_axis: str) -> tuple[Step, ...]:
        steps = [self.parse_step(first_axis)]
        while True:
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "/":
                axis = self.eat_axis()
                steps.append(self.parse_step(axis))
            else:
                break
        return tuple(steps)

    def parse_step(self, axis: str) -> Step:
        label = self.eat_label()
        preds = []
        while self.peek("["):
            preds.append(self.parse_pred())
        return Step(label, axis, tuple(preds))

    def parse_pred(self) -> Pred:
        self.eat("[")
        if self.try_eat(".//"):
            axis = DESC
        else:
            axis = CHILD
        steps = self.parse_rpath(axis)
        const = None
        if self.try_eat("="):
            const = self.eat_const()
        self.eat("]")
        return Pred(steps, const)


def _flatten(expr: Intersect) -> Intersect:
    # Intersection is associative; nested bare intersections are flattened
    # so parse/print reaches a fixed point after one pass.
    out: list[Expr] = []
    for b in expr.branches:
        if isinstance(b, Intersect):
            out.extend(b.branches)
        else:
            out.append(b)
    return Intersect(tuple(out))


def _normalize_comp(expr: Compensated) -> Expr:
    # (apath)/rpath is just a longer apath.
    if isinstance(expr.base, Path):
        return Path(expr.base.doc, expr.base.steps + expr.steps)
    if isinstance(expr.base, Compensated):
        inner = expr.base
        return _normalize_comp(Compensated(inner.base, inner.steps + expr.steps))
    return expr


def parse(text: str, dialect: Dialect = Dialect.XPINT) -> Expr:
    """Parse ``text``, enforcing the requested dialect."""
    p = _Parser(text)
    expr = p.parse_expr()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("end of input")
    check_dialect(expr, dialect)
    return expr


def print_expr(expr: Expr) -> str:
    """Canonical text for an expression; inverse of :func:`parse`."""
    if isinstance(expr, Path):
        head = f'doc("{expr.doc}")' if expr.doc is not None else ""
        return head + _steps_text(expr.steps)
    if isinstance(expr, Intersect):
        # a compensated branch keeps its parentheses
        return " & ".join(print_expr(b) for b in expr.branches)
    if isinstance(expr, Compensated):
        return f"({print_expr(expr.base)})" + _steps_text(expr.steps)
    raise TypeError(type(expr))


def _steps_text(steps: tuple[Step, ...]) -> str:
    out = []
    for s in steps:
        out.append(s.axis + s.label + "".join(_pred_text(p) for p in s.preds))
    return "".join(out)


def _pred_text(pred: Pred) -> str:
    first = pred.steps[0]
    lead = ".//" if first.axis == DESC else ""
    body = first.label + "".join(_pred_text(p) for p in first.preds)
    body += _steps_text(pred.steps[1:])
    eq = f'="{pred.const}"' if pred.const is not None else ""
    return f"[{lead}{body}{eq}]"
