import random

import pytest

from xpviews import (
    EMPTY,
    TreeGenConfig,
    dag_from_expr,
    eval_dag_pattern,
    eval_tree_pattern,
    generate_tree,
    interleavings,
    is_satisfiable,
    normal_form,
    tree_contains,
    tree_from_text,
    union_free_oracle,
)
from xpviews.containment import CONTAINMENT, has_mapping
from xpviews.interleaving import CapExceeded, _placements
from xpviews.pattern import canon_key, dag_intersect, to_text
from xpviews.syntax import parse

from conftest import random_tree_pattern, two_branch_merges

RUNNING_DAG = (
    'doc("L")/lib/paper//section//figure[caption[.//label]]/image'
    ' & doc("L")//paper//section[theorem]//figure/image'
)


def test_running_example_yields_exactly_seven():
    d = dag_from_expr(parse(RUNNING_DAG))
    ils = list(interleavings(d))
    assert len(ils) == 7
    quoted = tree_from_text(
        'doc("L")/lib/paper//paper//section[theorem]//figure[caption[.//label]]/image'
    )
    assert canon_key(quoted) in {canon_key(i.pattern) for i in ils}


def test_tree_pattern_interleaves_to_itself():
    p = tree_from_text('doc("L")/lib//paper//section[theorem]//figure/image')
    ils = list(interleavings(p))
    assert len(ils) == 1
    assert canon_key(ils[0].pattern) == canon_key(p)


def test_enumerator_matches_shuffle_merge_oracle():
    rng = random.Random(4242)
    for _ in range(150):
        out_label = rng.choice("abc")
        p1 = random_tree_pattern(rng, mb_len=rng.randint(1, 4), out_label=out_label)
        p2 = random_tree_pattern(rng, mb_len=rng.randint(1, 4), out_label=out_label)
        d = dag_intersect([p1, p2])
        got = {canon_key(i.pattern) for i in interleavings(d)}
        assert got == two_branch_merges(p1, p2)


def test_two_descendant_chains_against_oracle():
    p1 = tree_from_text('doc("L")//a//b//o')
    p2 = tree_from_text('doc("L")//b//a//o')
    d = dag_intersect([p1, p2])
    got = {canon_key(i.pattern) for i in interleavings(d)}
    assert got == two_branch_merges(p1, p2)
    assert len(got) > 1


def test_satisfiability_book_paper_example():
    d = dag_from_expr(parse('doc("L")//paper//section & doc("L")/book/section'))
    assert not is_satisfiable(d)
    assert list(interleavings(d)) == []


def test_satisfiability_tree_and_slash_conflict():
    p = tree_from_text('doc("L")/a//b[c]')
    assert is_satisfiable(p)
    d = dag_from_expr(parse('doc("L")/a/x/c & doc("L")/b/x/c'))
    assert d is not EMPTY
    assert not is_satisfiable(d)


def test_satisfiability_agrees_with_enumeration():
    rng = random.Random(86)
    for _ in range(200):
        out_label = rng.choice("abc")
        parts = [
            random_tree_pattern(rng, mb_len=rng.randint(1, 4), out_label=out_label)
            for _ in range(rng.randint(2, 3))
        ]
        d = dag_intersect(parts)
        if d is EMPTY:
            continue
        assert is_satisfiable(d) == (next(iter(interleavings(d)), None) is not None)


def test_union_semantics_on_random_trees():
    rng = random.Random(12)
    for trial in range(25):
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
        union = set()
        for p in normal_form(d):
            union |= eval_tree_pattern(p, t)
        assert union == eval_dag_pattern(d, t)


def test_dag_contains_each_interleaving():
    d = dag_from_expr(parse(RUNNING_DAG))
    for il in interleavings(d):
        assert has_mapping(d, il.pattern, CONTAINMENT)


def test_normal_form_is_an_antichain():
    rng = random.Random(66)
    for _ in range(40):
        out_label = rng.choice("abc")
        parts = [
            random_tree_pattern(rng, mb_len=rng.randint(1, 3), out_label=out_label)
            for _ in range(2)
        ]
        d = dag_intersect(parts)
        if d is EMPTY:
            continue
        nf = normal_form(d)
        for i, p in enumerate(nf):
            for j, q in enumerate(nf):
                if i != j:
                    assert not tree_contains(p, q)


def test_union_free_oracle_dominant_single_interleaving():
    d = dag_from_expr(parse('doc("L")//a & doc("L")/a'))
    dom = union_free_oracle(d)
    assert dom is not None
    assert canon_key(dom) == canon_key(tree_from_text('doc("L")/a'))


def test_union_free_oracle_r7_example_dag():
    d = dag_from_expr(
        parse(
            'doc("L")/lib//paper[theorem][caption]//section//figure/image'
            ' & doc("L")/lib//paper[theorem]//section//figure//image'
        )
    )
    dom = union_free_oracle(d)
    assert dom is not None
    want = tree_from_text('doc("L")/lib//paper[theorem][caption]//section//figure/image')
    assert canon_key(dom) == canon_key(want)


def test_union_free_oracle_negative_two_branch():
    d = dag_from_expr(parse('doc("L")//x/y//o & doc("L")//y/z//o'))
    assert union_free_oracle(d) is None


def test_cap_exceeded():
    d = dag_from_expr(
        parse('doc("L")//a//a//a//a & doc("L")//a//a//a//a')
    )
    with pytest.raises(CapExceeded):
        list(interleavings(d, cap=3))


def test_cap_counts_duplicate_placements():
    # five placements collapse to two distinct interleavings: the cap bounds
    # the placements built, so a cap of two is exceeded
    d = dag_from_expr(parse('doc("L")//a//a//a & doc("L")//a//a'))
    distinct = len(list(interleavings(d)))
    assert sum(1 for _ in _placements(d)) > distinct
    with pytest.raises(CapExceeded):
        list(interleavings(d, cap=distinct))
