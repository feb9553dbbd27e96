"""Benchmark: answering queries from materialized views, end to end.

    python3 perfbench/run.py --workload view-cache|large-doc|nested \\
        --seed N --seconds S --trace 0|1

One process, one client thread, closed loop: each operation starts when
the previous one has finished.  The program under test is the ``xpviews``
package in ``src/`` next to this directory; it is called as a library.

A round takes one query of the workload and runs these operations on it,
each from the query text:

  hit     parse, ``rewrite_detailed`` in efficient mode, ``eval_plan``
          over the view documents (extended-skeleton queries only)
  miss    parse the query with its first step relabelled, and decide
          that it has no rewriting
  direct  parse, ``eval_tree_pattern`` on the base document
  nested  parse, ``nested_rewrite`` over the query's own views,
          ``to_expr``, ``eval_plan``

``--seed`` orders the stream: rounds take the workload's queries in a
seeded random order, reshuffled after each pass.  An operation's metric
is the geometric mean over the workload's queries of each query's median
time in the run; ``queries_per_s`` is the throughput of one pass that
runs every (query, operation) once at its median time.  The
set-up (parse the document, parse the views, materialize them) runs at
least three times, and until it has taken two seconds; its median is
``setup_s``.  After the timed stream every answer is checked against
``refeval``, which is written apart from ``xpviews``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics (end-to-end ones with
``--trace 0``, per-layer ones with ``--trace 1``).  Details go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import refeval  # noqa: E402

WORKLOADS = ("view-cache", "large-doc", "nested")
KINDS = ("hit", "miss", "direct", "nested")
SETUPS = 3  # at least; more while they take under SETUP_SECONDS in all
SETUP_SECONDS = 2.0
WARMUP_ROUNDS = 3


def load_library():
    """Import ``xpviews`` from ``src/`` of this checkout, and nowhere else."""
    try:
        import xpviews
    except ImportError as exc:
        raise SystemExit(f"cannot import xpviews from {SRC}: {exc}")
    if not os.path.abspath(xpviews.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"xpviews was imported from {xpviews.__file__}, not from {SRC}")
    return xpviews


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Item:
    index: int
    text: str
    category: str
    views: list[str]
    ref: refeval.Query
    miss_text: str
    kinds: tuple[str, ...]
    own_views: object = None  # the query's own ViewSet, once set up
    rewrite_views: object = None  # the ViewSet that hits and misses search


@dataclass
class Inputs:
    workload: str
    doc_text: str
    ref_doc: refeval.Tree
    view_texts: dict[str, str]
    shared_cache: bool
    fresh_label: str
    items: list[Item] = field(default_factory=list)


def load_inputs(workload: str) -> Inputs:
    with open(os.path.join(HERE, "inputs", f"{workload}.json")) as f:
        return inputs_from_data(workload, json.load(f))


def inputs_from_data(workload: str, data: dict) -> Inputs:
    d = data["document"]
    doc = refeval.Tree.generate(d["seed"], d["depth"], d["fanout"], d["labels"], tuple(d["texts"]), d["root"])
    text = refeval.write_xml(doc)
    inp = Inputs(workload, text, refeval.read_xml(text), data["views"], data["shared_cache"], data["fresh_label"])
    miss = data["miss_label"]
    view_labels = set()
    for name, vt in data["views"].items():
        v = refeval.parse_query(vt)
        if len(v.main) < 2:
            raise SystemExit(f"view {name} outputs its root; misses would not be misses")
        view_labels |= v.labels()
    if miss in view_labels or miss in inp.ref_doc.labels:
        raise SystemExit(f"miss label {miss!r} occurs in a view or in the document")
    for i, e in enumerate(data["queries"]):
        q = refeval.parse_query(e["text"])
        m = q.copy()
        m.main[1].label = miss
        kinds = (("hit",) if e["category"] == "es" else ()) + ("miss", "direct", "nested")
        inp.items.append(Item(i, e["text"], e["category"], e["views"], q, m.text(), kinds))
    return inp


# ---------------------------------------------------------------------------
# operations


@dataclass
class State:
    doc: object
    views: object
    docs: dict


def setup(lib, inp: Inputs) -> State:
    """The cache fill: load the document, parse the view definitions and
    materialize every view."""
    doc = lib.parse_xml(inp.doc_text)
    views = lib.ViewSet.from_texts(inp.view_texts)
    docs = lib.materialize_all(views, doc)
    return State(doc, views, docs)


def op_hit(lib, st: State, item: Item):
    q = lib.tree_from_text(item.text)
    out = lib.rewrite_detailed(q, item.rewrite_views, lib.EFFICIENT)
    answers = lib.eval_plan(out.plan.expr, st.docs) if out.plan is not None else None
    return out.status, out.plan.expr if out.plan is not None else None, answers


def op_miss(lib, st: State, item: Item):
    q = lib.tree_from_text(item.miss_text)
    out = lib.rewrite_detailed(q, item.rewrite_views, lib.EFFICIENT)
    return out.status, None, None


def op_direct(lib, st: State, item: Item):
    q = lib.tree_from_text(item.text)
    return "answered", None, lib.eval_tree_pattern(q, st.doc)


def op_nested(lib, st: State, item: Item):
    q = lib.tree_from_text(item.text)
    graph = lib.nested_rewrite(q, item.own_views)
    if graph is None:
        return "noRewriting", None, None
    expr = graph.to_expr()
    return "rewritten", expr, lib.eval_plan(expr, st.docs)


OPS = {"hit": op_hit, "miss": op_miss, "direct": op_direct, "nested": op_nested}
EXPECTED_STATUS = {"hit": "rewritten", "miss": "noRewriting", "direct": "answered", "nested": "rewritten"}


def prepare_items(lib, st: State, inp: Inputs) -> None:
    """Each query's own view set.  Hits and misses use the whole cache when
    the workload shares one; nested rewriting always uses the own set."""
    for item in inp.items:
        item.own_views = lib.ViewSet({n: st.views[n] for n in item.views})
        item.rewrite_views = st.views if inp.shared_cache else item.own_views


# ---------------------------------------------------------------------------
# the timed stream


@dataclass
class Stream:
    sequence: list = field(default_factory=list)  # (round, item index, kind, ms) of timed operations
    rounds_run: list = field(default_factory=list)  # item index of each round
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0


class Recorder:
    """First result of each (query, operation); later results must agree."""

    def __init__(self):
        self.first: dict = {}
        self.disagreements: list[str] = []
        self.errors: set = set()

    def record(self, item: Item, kind: str, result) -> None:
        status, expr, answers = result
        key = (item.index, kind)
        if key not in self.first:
            self.first[key] = result
            return
        status0, _, answers0 = self.first[key]
        if status != status0 or answers != answers0:
            self.disagreements.append(f"{kind} on query {item.index} changed between repeats")


def round_order(seed: int, n: int):
    rng = random.Random(seed)
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        yield from perm


def run_round(lib, st: State, item: Item, rec: Recorder, out: Stream, around=None) -> None:
    for kind in item.kinds:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            if around is None:
                result = OPS[kind](lib, st, item)
            else:
                with around(kind):
                    result = OPS[kind](lib, st, item)
        except Exception:  # an operation that raises is counted as failed
            out.failed += 1
            if (item.index, kind) not in rec.errors:
                rec.errors.add((item.index, kind))
                print(f"{kind} on query {item.index} failed:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        ms = (time.perf_counter() - t0) * 1e3
        out.sequence.append((len(out.rounds_run), item.index, kind, ms))
        rec.record(item, kind, result)
    out.rounds_run.append(item.index)


def run_stream(lib, st: State, inp: Inputs, order, seconds: float, rec: Recorder) -> Stream:
    """Rounds until ``seconds`` have gone and every query has had one."""
    out = Stream()
    unseen = set(range(len(inp.items)))
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or unseen:
        index = next(order)
        unseen.discard(index)
        run_round(lib, st, inp.items[index], rec, out)
    out.wall_s = time.perf_counter() - start
    return out


# ---------------------------------------------------------------------------
# checks against the reference evaluator


def program_positions(t, nodes) -> set:
    out = set()
    for n in nodes:
        path = []
        while t.parent[n] is not None:
            p = t.parent[n]
            path.append(t.children[p].index(n))
            n = p
        out.add(tuple(reversed(path)))
    return out


def plan_view_names(lib, expr) -> list[str]:
    return sorted(set(re.findall(r'doc\("([^"]*)"\)', lib.print_expr(expr))))


def check(lib, st: State, inp: Inputs, rec: Recorder) -> list[str]:
    """Every first result against the reference; returns the problems."""
    problems = list(rec.disagreements)
    ref_answers: dict[int, set] = {}
    models: dict[int, tuple] = {}
    for (index, kind), (status, expr, answers) in sorted(rec.first.items()):
        item = inp.items[index]
        if status != EXPECTED_STATUS[kind]:
            problems.append(f"{kind} on query {index} ({item.text}): {status}, expected {EXPECTED_STATUS[kind]}")
            continue
        if answers is None:
            continue
        if index not in ref_answers:
            ref_answers[index] = inp.ref_doc.positions(refeval.evaluate(item.ref, inp.ref_doc))
        if program_positions(st.doc, answers) != ref_answers[index]:
            problems.append(f"{kind} on query {index} ({item.text}): answers differ from the reference")
        if expr is None:
            continue
        # An equivalent plan agrees with the query on every document, the
        # query's canonical model among them.
        if index not in models:
            model, out_node = refeval.canonical_model(item.ref, inp.fresh_label)
            text = refeval.write_xml(model)
            ref_model = refeval.read_xml(text)
            want = ref_model.positions(refeval.evaluate(item.ref, ref_model))
            if model.position(out_node) not in want:
                raise SystemExit(f"reference misses the canonical image of query {index}")
            models[index] = (lib.parse_xml(text), want)
        mdoc, want = models[index]
        names = plan_view_names(lib, expr)
        mdocs = lib.materialize_all(lib.ViewSet({n: st.views[n] for n in names}), mdoc)
        if program_positions(mdoc, lib.eval_plan(expr, mdocs)) != want:
            problems.append(f"{kind} on query {index} ({item.text}): plan {lib.print_expr(expr)} "
                            "differs from the query on its canonical model")
    return problems


# ---------------------------------------------------------------------------
# runs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def library_namespace(xv) -> SimpleNamespace:
    names = ["parse_xml", "materialize_all", "eval_plan", "eval_tree_pattern", "rewrite_detailed",
             "nested_rewrite", "tree_from_text", "ViewSet", "EFFICIENT", "print_expr"]
    return SimpleNamespace(**{n: getattr(xv, n) for n in names})


def timed_setups(lib, inp: Inputs) -> tuple[State, list[float]]:
    samples = []
    st = None
    while len(samples) < SETUPS or sum(samples) < SETUP_SECONDS:
        st = None
        gc.collect()
        t0 = time.perf_counter()
        st = setup(lib, inp)
        samples.append(time.perf_counter() - t0)
    return st, samples


def query_medians(out: Stream, kind: str) -> list[float]:
    """Each query's median time for one operation; a run that reaches
    some queries once more than others still weighs every query once."""
    by_query: dict[int, list[float]] = {}
    for _, index, k, ms in out.sequence:
        if k == kind:
            by_query.setdefault(index, []).append(ms)
    return [statistics.median(v) for v in by_query.values()]


def pass_throughput(out: Stream) -> float:
    """Operations per second over one pass that runs every (query,
    operation) of the stream once, each at its median time in the run.

    A few queries take most of a pass, so plain operations over wall time
    would move with how often the seeded order reaches them before the
    deadline; here every query counts once, slow ones by their time."""
    by_pair: dict[tuple, list[float]] = {}
    for _, index, kind, ms in out.sequence:
        by_pair.setdefault((index, kind), []).append(ms)
    return len(by_pair) / (sum(statistics.median(v) for v in by_pair.values()) / 1e3)


def summarize(out: Stream) -> dict:
    summary = {}
    for kind in KINDS:
        times = [ms for _, _, k, ms in out.sequence if k == kind]
        medians = query_medians(out, kind)
        s = {"operations": len(times), "queries": len(medians)}
        if times:
            s["median_ms"] = statistics.median(times)
            s["geometric_mean_of_query_medians_ms"] = statistics.geometric_mean(medians)
        if len(times) >= 100:
            s["p90_ms"] = statistics.quantiles(times, n=10)[-1]
        summary[kind] = s
    return summary


def run_plain(xv, inp: Inputs, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    lib = library_namespace(xv)
    st, setup_samples = timed_setups(lib, inp)
    prepare_items(lib, st, inp)
    order = round_order(seed, len(inp.items))
    rec = Recorder()
    warm = Stream()
    for _ in range(WARMUP_ROUNDS):
        run_round(lib, st, inp.items[next(order)], rec, warm)
    out = run_stream(lib, st, inp, order, seconds, rec)
    problems = check(lib, st, inp, rec)
    medians = {k: query_medians(out, k) for k in KINDS}
    missing = [k for k in KINDS if not medians[k]]
    if missing:
        problems.append(f"no timed {', '.join(missing)} operation completed")
    # Per-query times spread over three orders of magnitude, and few queries
    # lie near the middle: a median across queries jumps from one query to
    # its neighbour, the geometric mean moves a little with every query.
    metrics = {"setup_s": (statistics.median(setup_samples), "s")}
    for kind in KINDS:
        metrics[kind + "_ms"] = (statistics.geometric_mean(medians[kind] or [1.0]), "ms")
    metrics["queries_per_s"] = (pass_throughput(out), "1/s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    details = {
        "setup_samples_s": setup_samples,
        "rounds": len(out.rounds_run),
        "stream_wall_s": out.wall_s,
        "stream_operations_per_s": len(out.sequence) / out.wall_s,
        "operations": summarize(out),
        "sequence_fields": ["round", "query", "operation", "ms"],
        "sequence": out.sequence,
    }
    return metrics, dict(details, attempted=out.attempted + warm.attempted, failed=out.failed + warm.failed), problems


def run_traced(xv, inp: Inputs, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    """One traced set-up, an untraced stream for half the time, then a
    replay of its rounds for the other half, each round once traced and
    once not.  Per-layer figures come from the traced rounds, per round;
    the tracing overhead is the median ratio of each traced operation to
    its untraced twin."""
    import tracing

    tracer = tracing.Tracer()

    def count_view_nodes(counts, docs):
        counts["documents.view_nodes"] += sum(vd.tree.size() for vd in docs.values())

    def count_answers(counts, answers):
        counts["documents.answer_nodes"] += len(answers)

    def count_examined(counts, outcome):
        counts["rewrite.candidates_examined"] += outcome.candidates_examined

    plain = library_namespace(xv)
    lib = SimpleNamespace(**vars(plain))
    lib.parse_xml = tracer.wrap("documents.parse_xml", xv.parse_xml, True)
    lib.materialize_all = tracer.wrap("documents.materialize_all", xv.materialize_all, True, count_view_nodes)
    lib.eval_plan = tracer.wrap("documents.eval_plan", xv.eval_plan, True, count_answers)
    lib.eval_tree_pattern = tracer.wrap("documents.eval_tree_pattern", xv.eval_tree_pattern, True)
    lib.rewrite_detailed = tracer.wrap("rewrite.rewrite_detailed", xv.rewrite_detailed, True, count_examined)
    lib.nested_rewrite = tracer.wrap("rewrite.nested_rewrite", xv.nested_rewrite, True)

    with tracing.patched(tracer):
        gc.collect()
        with tracer.span("setup"):
            st = setup(lib, inp)
        setup_totals = (dict(tracer.totals), dict(tracer.counts))
    prepare_items(plain, st, inp)
    order = round_order(seed, len(inp.items))
    rec = Recorder()
    warm = Stream()
    for _ in range(WARMUP_ROUNDS):
        run_round(plain, st, inp.items[next(order)], rec, warm)
    untraced = run_stream(plain, st, inp, order, seconds / 2, rec)

    def around(kind):
        tracer.operation += 1
        return tracer.span("op." + kind)

    # Each replayed round runs traced and untraced back to back, in turns
    # first, so both see the same machine speed and the same warm caches.
    tracer.reset_totals()
    traced, again = Stream(), Stream()
    deadline = time.perf_counter() + seconds / 2
    for i, index in enumerate(untraced.rounds_run):
        if time.perf_counter() >= deadline:
            break
        for on in ((True, False) if i % 2 == 0 else (False, True)):
            if on:
                with tracing.patched(tracer):
                    run_round(lib, st, inp.items[index], rec, traced, around)
            else:
                run_round(plain, st, inp.items[index], rec, again)
    problems = check(plain, st, inp, rec)

    n = max(len(traced.rounds_run), 1)
    twin = {(r, kind): ms for r, _, kind, ms in again.sequence}
    ratios = [ms / twin[r, kind] for r, _, kind, ms in traced.sequence if (r, kind) in twin]
    overhead = statistics.median(ratios) - 1.0 if ratios else 0.0
    t, c = tracer, tracer.counts
    s_tot, s_cnt = setup_totals

    def setup_ms(name):
        return s_tot.get(name, [0, 0, 0])[1] / 1e6

    per_round = {
        "rules.apply_ms": t.ms("rules.apply_rules"),
        "rules.apply_calls": t.calls("rules.apply_rules"),
        "rules.firings": c["rules.firings"],
        "rules.tree_results": c["rules.tree_results"],
        "containment.root_mapping_ms": t.ms("containment.root_mapping"),
        "containment.root_mapping_calls": t.calls("containment.root_mapping"),
        "containment.root_mapping_images": c["containment.root_mapping.images"],
        "containment.tree_contains_ms": t.ms("containment.tree_contains"),
        "containment.dag_in_tree_ms": t.ms("containment.dag_contained_in_tree"),
        "interleaving.ms": t.ms("interleaving.interleavings"),
        "interleaving.yielded": c["interleaving.interleavings.yielded"],
        "fragments.ms": t.ms("fragments.extended_skeleton") + t.ms("fragments.classify"),
        "fragments.skeleton_calls": t.calls("fragments.extended_skeleton"),
        "pattern.unfold_ms": t.ms("pattern.unfold_expr"),
        "pattern.unfold_nodes": c["pattern.unfold.nodes"],
        "pattern.compensate_ms": t.ms("pattern.compensate_expr"),
        "rewrite.self_ms": t.ms("rewrite.rewrite_detailed", 2),
        "rewrite.candidates_examined": c["rewrite.candidates_examined"],
        "documents.eval_plan_ms": t.ms("documents.eval_plan"),
        "documents.answer_nodes": c["documents.answer_nodes"],
        "documents.eval_direct_ms": t.ms("documents.eval_tree_pattern"),
    }
    metrics = {name: (value / n, "ms/round" if name.endswith("ms") else "count/round")
               for name, value in per_round.items()}
    metrics.update({
        "syntax.parse_ms": (setup_ms("syntax.parse"), "ms"),
        "syntax.parse_calls": (s_tot.get("syntax.parse", [0])[0], "count"),
        "documents.parse_xml_ms": (setup_ms("documents.parse_xml"), "ms"),
        "documents.materialize_ms": (setup_ms("documents.materialize_all"), "ms"),
        "documents.view_nodes": (s_cnt.get("documents.view_nodes", 0), "count"),
        "trace.overhead_pct": (100.0 * overhead, "%"),
    })
    details = {
        "traced_rounds": len(traced.rounds_run),
        "untraced_rounds": len(untraced.rounds_run),
        "overhead_operations": len(ratios),
        "setup_spans": {k: {"calls": v[0], "total_ms": v[1] / 1e6, "self_ms": v[2] / 1e6}
                        for k, v in sorted(s_tot.items())},
        "stream_spans": tracer.summary(),
        "operations_untraced": summarize(untraced),
        "operations_traced": summarize(traced),
        "attempted": sum(x.attempted for x in (warm, untraced, traced, again)),
        "failed": sum(x.failed for x in (warm, untraced, traced, again)),
    }
    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(os.path.join(RESULTS, f"trace-{inp.workload}-seed{seed}.json"),
                 {"workload": inp.workload, "seed": seed, "summary": details["stream_spans"]})
    return metrics, details, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark answering XPath queries from materialized views.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    xv = load_library()
    inp = load_inputs(args.workload)
    run = run_traced if args.trace else run_plain
    metrics, details, problems = run(xv, inp, args.seed, args.seconds)
    for p in problems:
        print("WRONG:", p, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(dict(result, details=details, problems=problems), f, indent=1)
        f.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
