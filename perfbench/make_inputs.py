"""Make the benchmark's committed inputs anew.

    python3 perfbench/make_inputs.py [--view-cache-seed N] [--large-doc-seed N] [--nested-seed N]

Writes ``perfbench/inputs/<workload>.json``: the parameters of the
workload's document (regenerated by ``refeval.Tree.generate`` at run
time), the query texts and the view definitions.  Queries and views are
sampled by this file's own seeded code; ``xpviews`` is used only as an
oracle that keeps a candidate when it has the property the workload needs
(a view that is useful but not enough alone, a view set that rewrites the
query, a query of the wanted fragment class).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import xpviews as xv  # noqa: E402
from refeval import CHILD, DESC, QNode, Query, Tree, evaluate  # noqa: E402

TEXTS = ("", "", "x", "y")
USELESS_LABELS = [f"zz{i}" for i in range(6)]
MISS_LABEL = "miss"
FRESH_LABEL = "fresh"

# Document shapes; the seeds were picked once for the sizes they give.
DOCS = {
    "view-cache": dict(seed=3, depth=7, fanout=4, labels="abcde"),  # 911 nodes
    "large-doc": dict(seed=1, depth=8, fanout=7, labels="abcdefgh"),  # 85,696 nodes
    "nested": dict(seed=3, depth=7, fanout=4, labels="abcde"),
}


def make_tree(d: dict) -> Tree:
    return Tree.generate(d["seed"], d["depth"], d["fanout"], d["labels"], tuple(d["texts"]), d["root"])



def doc_params(workload: str) -> dict:
    return dict(DOCS[workload], texts=list(TEXTS), root="L")


# ---------------------------------------------------------------------------
# queries


def _descendants(t: Tree, n: int) -> list[int]:
    out, stack = [], list(t.children[n])
    while stack:
        x = stack.pop()
        out.append(x)
        stack.extend(t.children[x])
    return out


def _pred_node(rng: random.Random, t: Tree, x: int) -> QNode:
    """A predicate node for document node ``x``; half the time it also
    tests ``x``'s text, when there is one."""
    const = t.texts[x] if t.texts[x] and rng.random() < 0.5 else None
    return QNode(t.labels[x], const)


def sample_query(rng: random.Random, t: Tree, size: int, category: str) -> Query | None:
    """A query along a root path of ``size`` document nodes, so it is never
    empty; predicates come from real neighbours of the path."""
    depth = {0: 0}
    ends = []
    for n in range(t.size()):
        if n:
            depth[n] = depth[t.parent[n]] + 1
        if depth[n] == size - 1:
            ends.append(n)
    if not ends:
        return None
    path = [rng.choice(ends)]
    while t.parent[path[-1]] >= 0:
        path.append(t.parent[path[-1]])
    path.reverse()
    on_path = set(path)
    main = [QNode(t.labels[path[0]])]
    for x in path[1:]:
        node = QNode(t.labels[x])
        main[-1].kids.append((DESC if rng.random() < 0.4 else CHILD, node))
        main.append(node)
        side = [c for c in t.children[x] if c not in on_path]
        if side and rng.random() < 0.5:
            node.kids.append((CHILD, _pred_node(rng, t, rng.choice(side))))
    deep = _descendants(t, path[-1])
    if deep and rng.random() < 0.3:
        main[-1].kids.append((DESC, QNode(t.labels[rng.choice(deep)])))
    q = Query(main)
    inner = list(range(1, size - 1))
    rng.shuffle(inner)
    if category == "slashslash":
        # a //-predicate hung directly off a non-output main-branch node
        for i in inner:
            deep = [d for d in _descendants(t, path[i]) if d not in on_path]
            if deep:
                main[i].kids.append((DESC, _pred_node(rng, t, rng.choice(deep))))
                break
        else:
            return None
    elif category == "full":
        # a /-predicate labelled like the next main-branch node, with a
        # //-subpredicate below it: the extended-skeleton condition fails
        # below the main branch, not at it
        for i in inner:
            side = [c for c in t.children[path[i]] if c not in on_path and t.labels[c] == main[i + 1].label]
            side = [c for c in side if _descendants(t, c)]
            if side:
                c = rng.choice(side)
                pred = QNode(t.labels[c])
                pred.kids.append((DESC, _pred_node(rng, t, rng.choice(_descendants(t, c)))))
                main[i].kids.append((CHILD, pred))
                break
        else:
            return None
    want = {"es": "es", "slashslash": "xp//", "full": "xp"}[category]
    if xv.classify(xv.tree_from_text(q.text())).value != want:
        return None
    assert evaluate(q, t), q.text()
    return q


# ---------------------------------------------------------------------------
# views


def generalize(rng: random.Random, q: Query) -> Query | None:
    """``q`` with its output raised, main-branch edges relaxed to ``//``
    or predicates dropped; at least one of these."""
    v = q.copy()
    moves = 0
    if len(v.main) > 2 and rng.random() < 0.4:
        cut = rng.randrange(2, len(v.main))
        gone = v.main[cut]
        v.main[cut - 1].kids = [(a, k) for a, k in v.main[cut - 1].kids if k is not gone]
        v.main = v.main[:cut]
        moves += 1
    for i in range(1, len(v.main)):
        parent, node = v.main[i - 1], v.main[i]
        kids = []
        for a, k in parent.kids:
            if k is node and a == CHILD and rng.random() < 0.35:
                a = DESC
                moves += 1
            kids.append((a, k))
        parent.kids = kids
    on_main = {id(n) for n in v.main}
    for node in v.main[1:]:
        kept = [(a, k) for a, k in node.kids if id(k) in on_main or rng.random() >= 0.4]
        moves += len(node.kids) - len(kept)
        node.kids = kept
    return v if moves else None


def useful_views(rng: random.Random, q: Query, count: int, dropped: dict) -> list[str] | None:
    """``count`` generalizations of ``q`` that each root-map into it but
    give no rewriting alone, and together do.

    A candidate on which xpviews raises TypeError is dropped and counted:
    ``canon_key`` compares a missing text test with a present one when two
    sibling subpatterns share a label."""
    qp = xv.tree_from_text(q.text())
    prefixes = xv.lossless_prefixes(qp)
    texts: list[str] = []
    tries = 0
    try:
        while len(texts) < count and tries < 40 * count:
            tries += 1
            v = generalize(rng, q)
            if v is None or v.text() in texts:
                continue
            vp = xv.tree_from_text(v.text())
            if any(xv.equivalent(vp, p) for p in prefixes):
                continue
            if xv.rewrite(qp, xv.ViewSet({"probe": vp}), xv.EFFICIENT) is not None:
                continue
            texts.append(v.text())
        if len(texts) < count:
            return None
        joint = xv.ViewSet.from_texts({f"v{i}": s for i, s in enumerate(texts)})
        if xv.rewrite(qp, joint, xv.EFFICIENT) is None:
            return None
    except TypeError:
        dropped["views"] += 1
        return None
    return texts


def useless_view(rng: random.Random) -> str:
    steps = "".join(
        rng.choice((CHILD, DESC)) + rng.choice(USELESS_LABELS) for _ in range(rng.randint(1, 3))
    )
    return f'doc("L"){steps}'


# ---------------------------------------------------------------------------
# workloads


def make_workload(workload: str, seed: int, categories: list[str], per_category: int, size: int,
                  useful: int, useless: int, shared_views: bool, stream: int | None = None) -> dict:
    """``stream`` keeps the first queries for the timed stream; the views
    of all of them stay in the cache."""
    rng = random.Random(seed)
    dropped = {"views": 0, "operations": 0}
    params = doc_params(workload)
    t = make_tree(params)
    views: dict[str, str] = {}
    by_text: dict[str, str] = {}
    queries = []
    for category in categories:
        made = 0
        while made < per_category:
            q = sample_query(rng, t, size, category)
            if q is None or any(e["text"] == q.text() for e in queries):
                continue
            texts = useful_views(rng, q, useful, dropped)
            if texts is None:
                continue
            texts = texts + [useless_view(rng) for _ in range(useless)]
            names = []
            for i, text in enumerate(texts):
                if shared_views and text in by_text:
                    names.append(by_text[text])
                    continue
                name = f"v{len(views)}" if shared_views else f"q{len(queries)}_{'u' if i < useful else 'x'}{i}"
                views[name] = text
                by_text[text] = name
                names.append(name)
            queries.append({"text": q.text(), "category": category, "views": names})
            made += 1
            print(f"{workload}: {len(queries)} queries, {len(views)} views", file=sys.stderr)
    data = {
        "command": f"python3 perfbench/make_inputs.py --only {workload} --{workload}-seed {seed}",
        "seed": seed,
        "document": params,
        "shared_cache": shared_views,
        "cache_from_queries": len(queries),
        "miss_label": MISS_LABEL,
        "fresh_label": FRESH_LABEL,
        "dropped_for_canon_key_TypeError": dropped,
        "queries": queries[:stream],
        "views": views,
    }
    # Run every operation once; drop the queries on which one raises.
    inp = run.inputs_from_data(workload, data)
    lib = run.library_namespace(xv)
    st = run.setup(lib, inp)
    run.prepare_items(lib, st, inp)
    keep = []
    for item in inp.items:
        try:
            for kind in item.kinds:
                run.OPS[kind](lib, st, item)
            keep.append(queries[item.index])
        except TypeError:
            dropped["operations"] += 1
    data["queries"] = keep
    if not shared_views:
        used = {n for q in keep for n in q["views"]}
        data["views"] = {n: v for n, v in views.items() if n in used}
    print(f"{workload}: kept {len(keep)} queries, dropped {dropped}", file=sys.stderr)
    return data


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--view-cache-seed", type=int, default=1)
    ap.add_argument("--large-doc-seed", type=int, default=2)
    ap.add_argument("--nested-seed", type=int, default=3)
    ap.add_argument("--only", choices=sorted(DOCS), help="make one workload's inputs")
    args = ap.parse_args(argv)
    specs = {
        "view-cache": lambda: make_workload("view-cache", args.view_cache_seed, ["es"], 160, 4, 4, 0, True, 48),
        "large-doc": lambda: make_workload("large-doc", args.large_doc_seed, ["es"], 12, 4, 4, 0, True),
        "nested": lambda: make_workload("nested", args.nested_seed, ["es", "slashslash", "full"], 16, 4, 4, 36, False),
    }
    os.makedirs(os.path.join(HERE, "inputs"), exist_ok=True)
    for workload, make in specs.items():
        if args.only and workload != args.only:
            continue
        data = make()
        with open(os.path.join(HERE, "inputs", f"{workload}.json"), "w") as f:
            json.dump(data, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
