"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately naive re-implementations (exhaustive
enumeration) kept independent of the library code paths they check.
"""

from __future__ import annotations

import itertools
import random
import signal
from collections import deque
from contextlib import contextmanager

import pytest

from xpviews import EMPTY, Pattern, ViewSet, tree_from_text
from xpviews.syntax import CHILD, DESC
from xpviews.containment import root_mapping_out_images
from xpviews.pattern import compensate_pattern, main_branch
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


def random_mb_dag(rng: random.Random, mb_len: int = 4, labels: tuple[str, ...] = ("a", "b")) -> Pattern:
    """A DAG pattern of ``mb_len`` main-branch nodes after the root, each
    below a random earlier one, plus random forward edges and predicates.
    Unlike the DAGs of ``dag_intersect``, a node may sit below several
    parents by /-edges."""
    p = Pattern()
    mb = [p.add_node(rng.choice(labels)) for _ in range(mb_len + 1)]
    p.root, p.out = mb[0], mb[-1]
    for j in range(1, len(mb)):
        p.add_edge(mb[rng.randrange(j)], mb[j], rng.choice((CHILD, DESC)))
    for _ in range(rng.randint(1, mb_len)):
        i, j = sorted(rng.sample(range(len(mb)), 2))
        p.add_edge(mb[i], mb[j], rng.choice((CHILD, DESC)))
    for i in range(mb_len):  # every node leads on to the output
        if not any(a == mb[i] for a, _, _ in p.edges):
            p.add_edge(mb[i], mb[rng.randrange(i + 1, len(mb))], DESC)
    for n in mb:
        if rng.random() < 0.3:
            _random_pred(rng, p, n, labels, 2)
    return p


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


def termination_sweep():
    """Acceptance criterion 6's fresh sweep: intersections of two to four
    random tree patterns of main branch 2 to 5 that share an output
    label."""
    from xpviews.pattern import dag_intersect

    rng = random.Random(66)
    for _ in range(100):
        out_label = rng.choice("ab")
        parts = [
            random_tree_pattern(rng, mb_len=rng.randint(2, 5), out_label=out_label)
            for _ in range(rng.randint(2, 4))
        ]
        d = dag_intersect(parts)
        if d is not EMPTY:
            yield d


def es_rewrite_instances(seed: int, count: int = 300):
    """Acceptance criterion 5's rewriting instances: an extended-skeleton
    query of main branch 2 to 5 with at most 8 lossless prefixes, and 1 to
    4 views, each random or a generalization of the query."""
    from xpviews.pattern import lossless_prefixes
    from xpviews.workload import _generalize

    labels = ("a", "b", "c", "d")
    rng = random.Random(seed)
    made = 0
    while made < count:
        q = random_es_pattern(rng, mb_len=rng.randint(2, 5), labels=labels)
        if len(lossless_prefixes(q)) > 8 + 1:
            continue
        views = ViewSet()
        for i in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                v = random_tree_pattern(rng, mb_len=rng.randint(1, 4), labels=labels)
            else:
                v = _generalize(rng, q) or random_tree_pattern(rng, mb_len=2, labels=labels)
            views.define(f"v{i}", v)
        made += 1
        yield q, views


def minimal_containment_draws(seed: int):
    """Acceptance criterion 8's draws, without end: a query of main branch
    2 or 3 over labels a-c, and 2 or 3 views, most of them generalizations
    of the query."""
    from xpviews.workload import _generalize

    labels = ("a", "b", "c")
    rng = random.Random(seed)
    while True:
        q = random_tree_pattern(rng, mb_len=rng.randint(2, 3), labels=labels)
        views = ViewSet()
        for i in range(rng.randint(2, 3)):
            v = (
                _generalize(rng, q)
                if rng.random() < 0.7
                else random_tree_pattern(rng, mb_len=rng.randint(1, 2), labels=labels)
            ) or random_tree_pattern(rng, mb_len=1, labels=labels)
            views.define(f"v{i}", v)
        yield q, views


# ---------------------------------------------------------------------------
# time limits


class Alarm(Exception):
    pass


@contextmanager
def alarm(seconds: int):
    """Abort the block with ``Alarm`` after ``seconds`` of wall time."""

    def ring(signum, frame):
        raise Alarm(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, ring)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# independent oracles


def strictly_below(t, d: int, a: int) -> bool:
    """Whether document node ``d`` lies strictly below ``a``, by climbing
    parents."""
    x = t.parent[d]
    while x is not None and x != a:
        x = t.parent[x]
    return x is not None


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
                    if k == DESC and not strictly_below(t, x, assign[a]):
                        ok = False
                        break
            for b, k in p.out_edges(n):
                if b in assign:
                    if k == CHILD and t.parent[assign[b]] != x:
                        ok = False
                        break
                    if k == DESC and not strictly_below(t, assign[b], x):
                        ok = False
                        break
            if ok:
                assign[n] = x
                extend(i + 1, assign)
                del assign[n]

    extend(0, {})
    return results


def _brute_search(src: Pattern, dst: Pattern, pins: list[tuple[int, int]]) -> bool:
    """Whether ``src`` maps into ``dst`` with each pinned source node on its
    pinned image, by exhaustive assignment in id order."""
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
        if any(a == n and x != b for a, b in pins):
            return False
        for a, b, k in src.edges:
            if b == n and a in assign and not linked(assign[a], x, k):
                return False
            if a == n and b in assign and not linked(x, assign[b], k):
                return False
        return True

    def search(i: int, assign: dict[int, int]) -> bool:
        if i == len(order):
            return True
        n = order[i]
        for x in sorted(dst.nodes):
            if fits(n, x, assign):
                assign[n] = x
                if search(i + 1, assign):
                    return True
                del assign[n]
        return False

    return search(0, {})


def brute_mapping(src: Pattern, dst: Pattern, kind: str) -> bool:
    """``has_mapping`` by exhaustive search: a mapping of any ``kind`` pins
    nothing, a root mapping the root, a containment mapping the root and
    the output."""
    from xpviews.containment import CONTAINMENT, MAPPING

    if src is EMPTY or dst is EMPTY:
        return False
    pins = [] if kind == MAPPING else [(src.root, dst.root)]
    if kind == CONTAINMENT:
        pins.append((src.out, dst.out))
    return _brute_search(src, dst, pins)


def pinned_out_images(src: Pattern, dst: Pattern) -> list[int]:
    """Images of OUT(src) under root-mappings into ``dst``: one exhaustive
    search per main-branch node of ``dst``, pinned as the output's image."""
    return [
        x for x in sorted(dst.mb_nodes()) if _brute_search(src, dst, [(src.root, dst.root), (src.out, x)])
    ]


# Feasibility sets and arc consistency decided one node, or one pair of
# nodes, at a time: oracles for ``containment._feasible`` and the set-level
# steps ``up``/``under`` of patterns and documents.


def _edge_ok(dst: Pattern, x: int, k: str, targets: set[int]) -> bool:
    """Whether an edge of kind ``k`` from ``x`` can end in ``targets``."""
    if k == CHILD:
        return any(y in targets for y, kk in dst.out_edges(x) if kk == CHILD)
    return not dst.descendants(x).isdisjoint(targets)


def candidates_by_node(src: Pattern, dst: Pattern, pin: dict[int, int], allowed=None):
    """``containment._candidates``, testing each same-label node of ``dst``
    against every edge of the source node."""
    src_mbn = src.mb_nodes()
    dst_mbn = dst.mb_nodes()
    cand: dict[int, set[int]] = {}
    for a in reversed(src.topo_order()):
        req = src.test(a)
        on_mb = a in src_mbn
        pool = {
            x
            for x in dst.label_index().get(src.label(a), ())
            if (req is None or dst.test(x) == req)
            and (not on_mb or x in dst_mbn)
            and (allowed is None or a not in allowed or x in allowed[a])
            and (a not in pin or x == pin[a])
            and all(_edge_ok(dst, x, k, cand[b]) for b, k in src.out_edges(a))
        }
        if not pool:
            return None
        cand[a] = pool
    return cand


def linked(dst: Pattern):
    """``related(x, y, k)`` for images in a pattern: a source edge of kind
    ``k`` needs a /-edge of ``dst`` from ``x`` to ``y``, or any path."""
    return lambda x, y, k: (x, y, CHILD) in dst.edges if k == CHILD else dst.reaches(x, y)


def doc_related(t):
    """``related(x, y, k)`` for images in a document: ``y`` a child of
    ``x``, or strictly below it."""
    return lambda x, y, k: t.parent[y] == x if k == CHILD else strictly_below(t, y, x)


def doc_candidates_by_node(p: Pattern, t, starts):
    """``documents._candidate_sets``, testing each node of the pool
    against every edge of the pattern node."""
    related = doc_related(t)
    cand: dict[int, set[int]] = {}
    for a in reversed(p.topo_order()):
        req = p.test(a)
        pool = starts if a == p.root else [x for x in t.labels if t.labels[x] == p.label(a)]
        pool = {
            x
            for x in pool
            if (req is None or t.texts[x] == req)
            and all(any(related(x, y, k) for y in cand[b]) for b, k in p.out_edges(a))
        }
        if not pool:
            return None
        cand[a] = pool
    return cand


def arc_consistent_by_pairs(p: Pattern, dom: dict[int, set[int]], related) -> bool:
    """``containment._arc_consistent`` with each edge narrowed pair by
    pair through ``related(x, y, k)``, in the same order of edges."""
    mbn = p.mb_nodes()
    if not all(dom[n] for n in mbn):
        return False
    edges = sorted(e for e in p.edges if e[0] in mbn and e[1] in mbn)
    todo, queued = deque(edges), set(edges)
    while todo:
        e = todo.popleft()
        queued.discard(e)
        a, b, k = e
        xs = {x for x in dom[a] if any(related(x, y, k) for y in dom[b])}
        ys = {y for y in dom[b] if any(related(x, y, k) for x in xs)}
        for n, kept in ((a, xs), (b, ys)):
            if len(kept) < len(dom[n]):
                if not kept:
                    return False
                dom[n] = kept
                again = [f for f in edges if n in f[:2] and f != e and f not in queued]
                queued.update(again)
                todo.extend(again)
    return True


def canonical_model(p: Pattern, z: str = "zz_fresh"):
    """Tree obtained from ``p`` by expanding each //-edge into /z/ steps."""
    tree, _ = canonical_model_with_output(p, z)
    return tree


def canonical_model_with_output(p: Pattern, z: str = "zz_fresh"):
    """``canonical_model`` and the image of ``p``'s output in it."""
    from xpviews.documents import XmlTree

    t = XmlTree()
    images: dict[int, int] = {}
    images[p.root] = t.add_node(p.label(p.root), None, p.test(p.root) or "")
    for n in p.topo_order():
        for b, k in p.out_edges(n):
            at = images[n]
            if k == DESC:
                at = t.add_node(z, at)
            images[b] = t.add_node(p.label(b), at, p.test(b) or "")
    return t, images[p.out]


def contains_by_canonical_model(p1: Pattern, p2: Pattern) -> bool:
    """p2 ⊑ p1 for trees: evaluate p1 on the canonical model of p2."""
    from xpviews.documents import eval_tree_pattern

    t, out_img = canonical_model_with_output(p2)
    return out_img in eval_tree_pattern(p1, t)


def dag_contained_in_dag(d1, d2) -> bool:
    """d1 ⊑ d2 by the raw interleavings of ``d1``, with no rule fixpoint
    first: each must take a containment mapping from ``d2``."""
    from xpviews.containment import CONTAINMENT, has_mapping
    from xpviews.interleaving import interleavings, is_satisfiable

    if d1 is EMPTY:
        return True
    if d2 is EMPTY:
        return not is_satisfiable(d1)
    return all(has_mapping(d2, i.pattern, CONTAINMENT) for i in interleavings(d1))


def equivalent_by_minimization(p1, p2) -> bool:
    """Equivalence as it was decided before containment both ways: equal
    ``canon_key``s after ``minimize`` for two trees, raw interleavings both
    ways otherwise."""
    from xpviews.containment import minimize
    from xpviews.pattern import canon_key

    if p1 is not EMPTY and p2 is not EMPTY and p1.is_tree() and p2.is_tree():
        return canon_key(minimize(p1)) == canon_key(minimize(p2))
    return dag_contained_in_dag(p1, p2) and dag_contained_in_dag(p2, p1)


# ---------------------------------------------------------------------------
# rewriting oracles: every view mapped, every (view, image) pair decided on


def r1_forced_pair_by_nodes(d: Pattern):
    """R1's pair found node by node, least node first: its same-label
    /-children, then its same-label /-parents, by least label, the two
    least ids."""
    for n in sorted(d.mb_nodes()):
        for edges in (d.mb_out_edges(n), d.mb_in_edges(n)):
            by_label: dict[str, list[int]] = {}
            for x, k in edges:
                if k == CHILD:
                    by_label.setdefault(d.label(x), []).append(x)
            for lab in sorted(by_label):
                if len(by_label[lab]) > 1:
                    a, b = sorted(by_label[lab])[:2]
                    return a, b
    return None


def apply_rules_ungated(d):
    """The rule fixpoint with no shortcut: a tree goes through the loop,
    every scan tries every rule in ``RULE_ORDER`` until one fires, and R1's
    pair is found node by node (``r1_forced_pair_by_nodes``)."""
    from unittest import mock

    from xpviews import rules

    with mock.patch.object(rules, "_r1_forced_pair", r1_forced_pair_by_nodes):
        return _ungated_loop(d)


def _ungated_loop(d):
    from xpviews.rules import RULE_ORDER, _Engine, immediately_unsatisfiable

    if d is EMPTY:
        return EMPTY, []
    eng = _Engine(d)
    eng.saturate_r1()
    if eng.dead or immediately_unsatisfiable(eng.w):
        return EMPTY, eng.trace
    changed = True
    while changed:
        changed = False
        for rule in RULE_ORDER:
            if eng.try_rule(rule):
                if eng.dead:
                    return EMPTY, eng.trace
                eng.saturate_r1()
                if eng.dead:
                    return EMPTY, eng.trace
                changed = True
                break
    eng.w.validate()
    return eng.w, eng.trace


def nested_rewrite_by_equivalence(q: Pattern, views: ViewSet):
    """``nested_rewrite`` deciding the candidate the plain way: its whole
    unfolding must be equivalent to the query, by containment both ways."""
    from xpviews.rewrite import build_rewrite_candidate, equivalent

    cand = build_rewrite_candidate(q, views)
    if cand is None:
        return None
    return cand if equivalent(cand.unfold(), q) else None


def view_pairs(views: ViewSet, p: Pattern) -> list[tuple[str, int]]:
    """(view, image) pairs of a prefix: every view root-mapped into it, in
    name order, its output images ascending."""
    return [(name, b) for name, v in views.items() for b in root_mapping_out_images(v, p)]


def _embeds(sig: tuple, target: tuple) -> bool:
    """Whether a main-branch signature embeds in order into the ``target``
    one: same root label, a / step onto the next step of the same label
    and axis, a // step onto any later step of the same label.  The screen
    the rewriter ran over every view before its signature trie."""
    if sig[0] != target[0]:
        return False
    at = [0]  # the positions the steps so far can end on, ascending
    for step in sig[1:]:
        if step[1] == CHILD:
            at = [j + 1 for j in at if j + 1 < len(target) and target[j + 1] == step]
        else:
            at = [j for j in range(at[0] + 1, len(target)) if target[j][0] == step[0]]
        if not at:
            return False
    return True


def embedding_ends(sig: tuple, target: tuple) -> set[int]:
    """The target positions a signature's last step ends on, over every
    embedding, by enumerating the increasing position tuples."""
    if sig[0] != target[0]:
        return set()
    ends = set()
    for pos in itertools.combinations(range(1, len(target)), len(sig) - 1):
        path = (0,) + pos
        if all(
            (j == i + 1 and target[j] == step) if step[1] == CHILD else target[j][0] == step[0]
            for i, j, step in zip(path, path[1:], sig[1:])
        ):
            ends.add(path[-1])
    return ends


def best_comp(v: Pattern, p: Pattern) -> Pattern:
    """The view compensated at its highest mapping image in ``p``; it is
    contained in every other compensated version."""
    images = root_mapping_out_images(v, p)
    if not images:
        raise ValueError("view does not map into the prefix")
    depth = {n: i for i, n in enumerate(main_branch(p))}
    top = min(images, key=lambda n: depth[n])
    return compensate_pattern(v, p, top)


def all_pairs_rewrite(q: Pattern, views: ViewSet, mode: str) -> tuple:
    """(status, plan text, prefix index) of the prefix-driven search that
    decides each prefix on the rule fixpoint of all its pairs, with no
    screen and no least pairs."""
    from xpviews.pattern import compensate_expr, lossless_prefixes, unfold_expr
    from xpviews.rewrite import _contained, _plan_expr, _skeleton_views
    from xpviews.rules import apply_rules
    from xpviews.syntax import print_expr

    dag_views = _skeleton_views(views) if classify(q) is FragmentClass.EXTENDED_SKELETON else views
    for p in lossless_prefixes(q):
        pairs = view_pairs(views, p)
        if not pairs:
            continue
        expr = _plan_expr(pairs, p)
        if _contained(apply_rules(unfold_expr(expr, dag_views))[0], p, mode)[0]:
            return "rewritten", print_expr(compensate_expr(expr, q, p.out)), main_branch(q).index(p.out)
    return "noRewriting", None, None


def graft_models(p: Pattern, parts):
    """A document below one root labelled as ``p``'s: the canonical models
    of ``p``'s interleavings (at most eight) and of ``parts``, each without
    its own root.  ``p`` has answers in it when it is satisfiable."""
    from xpviews.documents import XmlTree
    from xpviews.interleaving import interleavings

    t = XmlTree()
    top = t.add_node(p.label(p.root), None)
    models = [canonical_model(i.pattern) for _, i in zip(range(8), interleavings(p))]
    for m in models + [canonical_model(q) for q in parts]:
        stack = [(c, top) for c in m.children[m.root]]
        while stack:
            n, at = stack.pop()
            nid = t.add_node(m.labels[n], at, m.texts[n])
            stack.extend((c, nid) for c in m.children[n])
    return t


def brute_eval(p: Pattern, t) -> set[int]:
    if p is EMPTY:
        return set()
    return {e[p.out] for e in brute_embeddings(p, t)}


def materialize_all_by_embedding(views: ViewSet, t) -> dict:
    """The view cache filled as the direct evaluator sees it: each view's
    answers by ``eval_tree_pattern`` (``_embed`` for tree views), and one
    store built from its definition.  The store holds every node inside
    some answer's subtree, with the base document's label, text and
    children; a node's parent is its base parent when that is held too."""
    from xpviews import eval_tree_pattern
    from xpviews.documents import ViewDocument, XmlTree

    store = XmlTree()
    roots = {name: tuple(sorted(eval_tree_pattern(v, t))) for name, v in views.items()}
    stack = [a for rs in roots.values() for a in rs]
    held = set()
    while stack:
        x = stack.pop()
        if x not in held:
            held.add(x)
            stack.extend(t.children[x])
    for x in held:
        store.labels[x] = t.labels[x]
        store.texts[x] = t.texts[x]
        store.children[x] = list(t.children[x])
        store.parent[x] = t.parent[x] if t.parent[x] in held else None
    return {name: ViewDocument(name, store, rs) for name, rs in roots.items()}


def selective_workload():
    """Criterion 7's selective case: a document whose query labels come with
    plenty of non-matching noise, so direct evaluation pays for the whole
    label class; the query, two views, and the query's plan over them."""
    from xpviews import EFFICIENT, rewrite_detailed
    from xpviews.documents import XmlTree

    t_xml = XmlTree()
    root = t_xml.add_node("L", None)
    for blk in range(400):
        sec = t_xml.add_node("sec", root)
        if blk % 100 == 0:
            t_xml.add_node("mark", sec)
        for i in range(40):
            fig = t_xml.add_node("fig", sec)
            t_xml.add_node("leaf", fig)
    q = tree_from_text('doc("L")//sec[mark]//fig')
    views = ViewSet.from_texts(
        {
            "vsec": 'doc("L")//sec[mark]',
            "vfig": 'doc("L")//sec[mark]//fig',
        }
    )
    out = rewrite_detailed(q, views, EFFICIENT)
    assert out.plan is not None
    return t_xml, q, views, out.plan


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


# ---------------------------------------------------------------------------
# side conditions of the rules, by trial collapse on a copy


def trial_collapse_unsat(d: Pattern, pairs=()) -> bool:
    """Whether collapsing ``pairs`` of main-branch nodes, then saturating
    the forced rule (same-label /-children, or /-parents, of one node
    merge), exposes unsatisfiability: a merge of comparable nodes, two
    /-paths with shared endpoints and different lengths, or a node with
    /-parents of different labels.  Works on its own copy of the main
    branch's edges, one merge at a time."""
    mbn = set(d.mb_nodes())
    edges = {(a, b, k) for a, b, k in d.edges if a in mbn and b in mbn}

    def below(x: int) -> set[int]:
        seen: set[int] = set()
        stack = [x]
        while stack:
            y = stack.pop()
            for a, b, _ in edges:
                if a == y and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return seen

    def merge(keep: int, gone: int) -> bool:
        nonlocal edges
        if gone in below(keep) or keep in below(gone):
            return False
        edges = {(keep if a == gone else a, keep if b == gone else b, k) for a, b, k in edges}
        mbn.discard(gone)
        return True

    alias: dict[int, int] = {}
    for keep, gone in pairs:
        while keep in alias:
            keep = alias[keep]
        while gone in alias:
            gone = alias[gone]
        if keep != gone:
            if not merge(keep, gone):
                return True
            alias[gone] = keep

    def forced_pair():
        for n in sorted(mbn):
            for side in (0, 1):
                seen: dict[str, int] = {}
                for e in sorted(edges):
                    if e[2] != CHILD or e[side] != n:
                        continue
                    other = e[1 - side]
                    lab = d.label(other)
                    if lab in seen and seen[lab] != other:
                        return seen[lab], other
                    seen[lab] = other
        return None

    while (pair := forced_pair()) is not None:
        if not merge(*pair):
            return True

    lengths: dict[int, dict[int, set[int]]] = {}

    def slash_lengths(x: int) -> dict[int, set[int]]:
        if x not in lengths:
            row = {x: {0}}
            for a, b, k in edges:
                if a == x and k == CHILD:
                    for y, ls in slash_lengths(b).items():
                        row.setdefault(y, set()).update(l + 1 for l in ls)
            lengths[x] = row
        return lengths[x]

    if any(len(ls) > 1 for n in mbn for ls in slash_lengths(n).values()):
        return True
    return any(
        len({d.label(a) for a, b, k in edges if b == n and k == CHILD}) > 1 for n in mbn
    )


def trial_collapsible(d: Pattern, n1: int, n2: int) -> bool:
    """``collapsible`` as a trial collapse: equal labels, incomparable
    nodes, /-runs that agree label-wise going down and going up, and a
    collapse that ``trial_collapse_unsat`` accepts."""
    if n1 == n2:
        return True
    if d.label(n1) != d.label(n2):
        return False
    if d.reaches(n1, n2) or d.reaches(n2, n1):
        return False
    mbn = d.mb_nodes()

    def run(n: int, down: bool) -> list[str]:
        labels = []
        while True:
            nxt = [
                b if down else a
                for a, b, k in d.edges
                if k == CHILD and (a if down else b) == n and (b if down else a) in mbn
            ]
            if len(nxt) != 1:
                return labels
            n = nxt[0]
            labels.append(d.label(n))

    for down in (True, False):
        if any(x != y for x, y in zip(run(n1, down), run(n2, down))):
            return False
    return not trial_collapse_unsat(d, [(n1, n2)])


# ---------------------------------------------------------------------------
# mappings of linear paths into /-runs, by recursion


def chain_maps_oracle(path, run_labels, end) -> list[tuple[int, ...]]:
    """Every mapping of a chain onto the cells of a /-run, in the order
    found.  ``path`` lists (label, axis) pairs, the first axis leading in
    from the node above the run (/ pins the chain's start to the first
    cell); ``end`` leads from the chain's last node to the node below the
    run (/ pins it to the last cell)."""
    m = len(run_labels)
    results: list[tuple[int, ...]] = []

    def rec(i: int, prev_pos: int, acc: list[int]) -> None:
        if i == len(path):
            if end == CHILD and acc[-1] != m - 1:
                return
            results.append(tuple(acc))
            return
        label, axis = path[i]
        exact = prev_pos + 1 if axis == CHILD else None
        for pos in range(prev_pos + 1, m):
            if exact is not None and pos != exact:
                continue
            if label != run_labels[pos]:
                continue
            acc.append(pos)
            rec(i + 1, pos, acc)
            acc.pop()

    rec(0, -1, [])
    return results


def linear_maps_oracle(seq, run_labels) -> bool:
    """Whether a linear pattern, (label, axis) pairs whose first axis is
    ignored, maps anywhere into a /-run of labels."""
    m = len(run_labels)

    def rec(i: int, at: int) -> bool:
        if i == len(seq):
            return True
        label, axis = seq[i]
        if i == 0:
            return any(run_labels[j] == label and rec(i + 1, j) for j in range(m))
        if axis == CHILD:
            j = at + 1
            return j < m and run_labels[j] == label and rec(i + 1, j)
        return any(run_labels[j] == label and rec(i + 1, j) for j in range(at + 1, m))

    return rec(0, -1)
