"""Command-line front end.

Machine-readable output goes to stdout, diagnostics to stderr.  Exit
codes: 0 success, 1 negative decision (no rewriting, not contained), 2
input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from .syntax import Dialect, DialectError, XPathSyntaxError, parse, print_expr
from .pattern import (
    CapExceeded,
    ViewSet,
    dag_from_expr,
    pattern_to_json,
    to_text,
    tree_from_text,
)
from .containment import minimize
from .documents import (
    eval_plan,
    eval_tree_pattern,
    materialize_all,
    parse_xml,
    print_xml,
)
from .interleaving import interleavings, union_free_oracle
from .rules import apply_rules
from .rewrite import (
    EFFICIENT,
    FULL,
    all_rewrites,
    contains,
    equivalent,
    nested_rewrite,
    rewrite_detailed,
)
from .workload import GenConfig, bench, generate_workload

OK, NEGATIVE, BAD_INPUT = 0, 1, 2


def _fail(msg: str) -> int:
    print(msg, file=sys.stderr)
    return BAD_INPUT


def _load_views(path: str) -> ViewSet:
    defs = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, expr = line.partition("=")
            defs[name.strip()] = expr.strip()
    return ViewSet.from_texts(defs)


def _read_expr_arg(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:]) as fh:
            return fh.read().strip()
    return arg


def cmd_parse(args) -> int:
    expr = parse(_read_expr_arg(args.expr), Dialect.parse(args.dialect))
    print(print_expr(expr))
    if args.dump_json:
        print(pattern_to_json(dag_from_expr(expr)), file=sys.stderr)
    return OK


def cmd_print(args) -> int:
    expr = parse(_read_expr_arg(args.expr), Dialect.parse(args.dialect))
    print(print_expr(expr))
    return OK


def cmd_contains(args) -> int:
    p1 = tree_from_text(_read_expr_arg(args.container))
    p2 = tree_from_text(_read_expr_arg(args.containee))
    res = contains(p1, p2)
    print("true" if res else "false")
    return OK if res else NEGATIVE


def cmd_equiv(args) -> int:
    p1 = tree_from_text(_read_expr_arg(args.left))
    p2 = tree_from_text(_read_expr_arg(args.right))
    res = equivalent(p1, p2)
    print("true" if res else "false")
    return OK if res else NEGATIVE


def cmd_minimize(args) -> int:
    p = tree_from_text(_read_expr_arg(args.expr))
    print(to_text(minimize(p)))
    return OK


def cmd_interleave(args) -> int:
    expr = parse(_read_expr_arg(args.expr))
    d = dag_from_expr(expr)
    if args.union_free:
        dom = union_free_oracle(d)
        if dom is None:
            print("not union-free")
            return NEGATIVE
        print(to_text(dom))
        return OK
    ils = list(interleavings(d))
    if args.count:
        print(len(ils))
    else:
        for il in ils:
            print(to_text(il.pattern))
    return OK


def cmd_union_free(args) -> int:
    args.union_free = True
    args.count = False
    return cmd_interleave(args)


def cmd_apply_rules(args) -> int:
    expr = parse(_read_expr_arg(args.expr))
    d = dag_from_expr(expr)
    out, trace = apply_rules(d)
    if args.trace:
        for step in trace:
            print(
                json.dumps(
                    {
                        "rule": step.instance.rule,
                        "bindings": {k: v for k, v in step.instance.bindings.items()},
                        "mbnBefore": step.mbn_before,
                        "mbnAfter": step.mbn_after,
                    },
                    default=list,
                )
            )
    print(to_text(out))
    return OK


def cmd_rewrite(args) -> int:
    with open(args.query) as fh:
        q = tree_from_text(fh.read().strip())
    views = _load_views(args.views)
    keys = None
    if args.keys:
        with open(args.keys) as fh:
            keys = [tree_from_text(line.strip()) for line in fh if line.strip()]
    if args.nested:
        graph = nested_rewrite(q, views)
        if graph is None:
            print(json.dumps({"status": "noRewriting"}))
            return NEGATIVE
        print(
            json.dumps({"status": "rewritten", "plan": print_expr(graph.to_expr())})
            if args.out == "json"
            else print_expr(graph.to_expr())
        )
        return OK
    if args.all:
        plans = list(all_rewrites(q, views, max_views=args.max_views))
        if args.out == "json":
            print(json.dumps({"status": "rewritten" if plans else "noRewriting",
                              "plans": [p.text for p in plans]}))
        else:
            for p in plans:
                print(p.text)
        return OK if plans else NEGATIVE
    mode = EFFICIENT if args.efficient else FULL
    outcome = rewrite_detailed(q, views, mode, key_targets=keys)
    if args.out == "json":
        print(
            json.dumps(
                {
                    "status": outcome.status,
                    "plan": outcome.plan.text if outcome.plan else None,
                    "prefixIndex": outcome.prefix_index,
                    "ruleTrace": [s.instance.rule for s in outcome.trace],
                    "timings": outcome.timings,
                    **outcome.counters(),
                }
            )
        )
    else:
        print(outcome.plan.text if outcome.plan else "no rewriting")
    return OK if outcome.plan else NEGATIVE


def cmd_eval(args) -> int:
    with open(args.doc) as fh:
        t = parse_xml(fh.read())
    if args.plan:
        views = _load_views(args.views)
        docs = materialize_all(views, t)
        expr = parse(_read_expr_arg(args.plan))
        res = eval_plan(expr, docs)
    else:
        expr = parse(_read_expr_arg(args.query))
        res = eval_tree_pattern(dag_from_expr(expr), t)
    print(json.dumps({"count": len(res), "nodes": sorted(res)}))
    return OK


def cmd_generate(args) -> int:
    cfg = GenConfig(
        seed=args.seed,
        main_branch_size=args.size,
        category=args.category,
        view_set_size=args.views,
    )
    t, q, views = generate_workload(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "doc.xml"), "w") as fh:
        fh.write(print_xml(t) + "\n")
    with open(os.path.join(args.out_dir, "query.txt"), "w") as fh:
        fh.write(to_text(q) + "\n")
    with open(os.path.join(args.out_dir, "views.txt"), "w") as fh:
        for name, v in views.items():
            fh.write(f"{name} = {to_text(v)}\n")
    print(json.dumps({"dir": args.out_dir, "views": len(views)}))
    return OK


def _bench_configs(args) -> list[GenConfig]:
    seed = int(os.environ.get("REWRITER_SEED", args.seed))
    cfgs = []
    sizes = [int(s) for s in args.view_sizes.split(",")]
    for vs in sizes:
        for i in range(args.cases):
            cfgs.append(
                GenConfig(
                    seed=seed + i,
                    main_branch_size=args.size,
                    category=args.category,
                    view_set_size=vs,
                )
            )
    return cfgs


def cmd_bench(args) -> int:
    if args.config:
        overrides = {}
        with open(args.config) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                k, _, v = line.partition("=")
                overrides[k.strip()] = v.strip()
        for k, v in overrides.items():
            if hasattr(args, k):
                cur = getattr(args, k)
                setattr(args, k, type(cur)(v) if cur is not None else v)
    cfgs = _bench_configs(args)
    if args.parallel > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            reports = list(pool.map(bench, cfgs))
    else:
        reports = [bench(cfg) for cfg in cfgs]
    rows = [r.as_dict() for r in reports]
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue(), end="")
    else:
        cols = list(rows[0])
        widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
        print("  ".join(c.ljust(widths[c]) for c in cols))
        for r in rows:
            print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    return OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xpviews",
        description="Rewrite wildcard-free XPath queries using intersections "
        "of materialized views.  Expressions may be given inline or as "
        "@file.  View documents carry one answer subtree per hit under a "
        "root named after the view; an origid marker records original ids.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="parse and normalize an expression")
    p.add_argument("expr")
    p.add_argument("--dialect", default="xpint")
    p.add_argument("--dump-json", action="store_true")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("print", help="canonical form of an expression")
    p.add_argument("expr")
    p.add_argument("--dialect", default="xpint")
    p.set_defaults(fn=cmd_print)

    p = sub.add_parser("contains", help="does the first query contain the second")
    p.add_argument("container")
    p.add_argument("containee")
    p.set_defaults(fn=cmd_contains)

    p = sub.add_parser("equiv", help="equivalence of two queries")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("minimize", help="drop redundant predicate subtrees")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_minimize)

    p = sub.add_parser("interleave", help="enumerate interleavings of a DAG")
    p.add_argument("expr")
    p.add_argument("--count", action="store_true")
    p.add_argument("--union-free", action="store_true")
    p.set_defaults(fn=cmd_interleave)

    p = sub.add_parser("union-free", help="dominant interleaving if any")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_union_free)

    p = sub.add_parser("apply-rules", help="run the rewrite rules to fixpoint")
    p.add_argument("expr")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_apply_rules)

    p = sub.add_parser("rewrite", help="rewrite a query using views")
    p.add_argument("--query", required=True, help="file with the query")
    p.add_argument("--views", required=True, help="file with name = expr lines")
    p.add_argument("--efficient", action="store_true")
    p.add_argument("--all", action="store_true")
    p.add_argument("--nested", action="store_true")
    p.add_argument("--keys", help="file with key target paths")
    p.add_argument("--max-views", type=int, default=8)
    p.add_argument("--out", choices=["json", "xpath"], default="json")
    p.set_defaults(fn=cmd_rewrite)

    p = sub.add_parser("eval", help="evaluate a query or plan over a document")
    p.add_argument("--doc", required=True)
    p.add_argument("--query")
    p.add_argument("--plan")
    p.add_argument("--views")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("generate", help="emit a synthetic workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=5)
    p.add_argument("--category", default="es")
    p.add_argument("--views", type=int, default=40)
    p.add_argument("--out-dir", default="workload")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("bench", help="rewrite/evaluation benchmark")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=5)
    p.add_argument("--category", default="es")
    p.add_argument("--view-sizes", default="40,80,160,320,640")
    p.add_argument("--cases", type=int, default=3)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.add_argument("--config", help="key=value overrides file")
    p.set_defaults(fn=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (XPathSyntaxError, DialectError, FileNotFoundError, ValueError) as exc:
        return _fail(f"error: {exc}")
    except CapExceeded as exc:
        return _fail(f"cap exceeded: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
