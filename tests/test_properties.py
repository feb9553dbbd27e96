"""Cross-module properties tying the pattern model to evaluation."""

import random

from xpviews import (
    EFFICIENT,
    EMPTY,
    TreeGenConfig,
    ViewSet,
    dag_contained_in_tree,
    eval_plan,
    eval_tree_pattern,
    generate_tree,
    materialize_all,
    rewrite_detailed,
    tree_from_text,
    unfold_expr,
)
from xpviews.fragments import FragmentClass, are_akin, classify, extended_skeleton
from xpviews.pattern import lossless_prefixes, main_branch
from xpviews.rewrite import _plan_expr, _skeleton_views
from xpviews.syntax import parse
from xpviews.workload import _generalize

from conftest import brute_embeddings, random_es_pattern, random_tree_pattern, view_pairs

Q10 = 'doc("L")/lib//paper//section[theorem]//figure/image'
V10 = {
    "v1": 'doc("L")//paper//section',
    "v2": 'doc("L")//section[theorem]',
    "v3": 'doc("L")/lib//figure/image',
}


def test_lossless_prefixes_do_not_lose_witnesses():
    # every embedding of q lands its prefix node inside the prefix answers
    rng = random.Random(1)
    for trial in range(10):
        t = generate_tree(
            TreeGenConfig(depth=4, fanout=3, labels=("a", "b", "c"), seed=trial)
        )
        q = random_tree_pattern(rng, mb_len=rng.randint(1, 3))
        mb = main_branch(q)
        for idx, p in enumerate(lossless_prefixes(q)):
            answers = eval_tree_pattern(p, t)
            for e in brute_embeddings(q, t):
                assert e[mb[idx]] in answers


def test_plan_intermediate_results_stay_bounded():
    t = generate_tree(
        TreeGenConfig(
            depth=6,
            fanout=3,
            labels=("lib", "paper", "section", "theorem", "figure", "image"),
            seed=3,
        )
    )
    views = ViewSet.from_texts(V10)
    docs = materialize_all(views, t)
    plan = parse('(doc("v1")/v1 & doc("v2")/v2)//figure/image & doc("v3")/v3')
    branch_sizes = [len(eval_plan(b, docs)) for b in plan.branches]
    inter = eval_plan(plan, docs)
    assert len(inter) <= max(branch_sizes + [0])
    # each intersection's output is a set no larger than its largest input
    left = plan.branches[0]
    left_sizes = [len(eval_plan(b, docs)) for b in left.base.branches]
    assert len(eval_plan(left.base, docs)) <= max(left_sizes + [0])


def test_skeleton_reduction_preserves_rewriting_existence():
    # a rewriting of an extended-skeleton query exists with the original
    # views iff one exists with their extended skeletons
    def brute_exists(q, views):
        for p in lossless_prefixes(q):
            pairs = view_pairs(views, p)
            if not pairs:
                continue
            d = unfold_expr(_plan_expr(pairs, p), views)
            if d is not EMPTY and dag_contained_in_tree(d, p):
                return True
        return False

    rng = random.Random(9)
    checked = 0
    for _ in range(60):
        q = random_es_pattern(rng, mb_len=rng.randint(2, 4))
        views = ViewSet()
        for i in range(rng.randint(1, 3)):
            v = _generalize(rng, q) or random_tree_pattern(rng, mb_len=2)
            views.define(f"v{i}", v)
        skel = _skeleton_views(views)
        assert brute_exists(q, views) == brute_exists(q, skel)
        checked += 1
    assert checked == 60


def test_akin_plan_completeness():
    # queries beyond extended skeletons: when the rewriting's unfolded
    # branches are akin, the efficient variant still finds one
    rng = random.Random(12)
    found = 0
    for _ in range(120):
        q = random_tree_pattern(rng, mb_len=rng.randint(2, 4), dd_prob=0.6)
        if classify(q) is FragmentClass.EXTENDED_SKELETON:
            continue
        views = ViewSet()
        for i in range(2):
            v = _generalize(rng, q)
            if v is None:
                break
            views.define(f"v{i}", v)
        if len(views) < 2:
            continue
        if not are_akin([views[n] for n in views]):
            continue
        # existence through the exponential oracle
        exists = False
        for p in lossless_prefixes(q):
            pairs = view_pairs(views, p)
            if not pairs:
                continue
            d = unfold_expr(_plan_expr(pairs, p), views)
            if d is not EMPTY and dag_contained_in_tree(d, p):
                exists = True
                break
        if not exists:
            continue
        found += 1
        out = rewrite_detailed(q, views, EFFICIENT)
        assert out.plan is not None
    assert found >= 5


def test_extended_skeleton_substitution_before_dag_construction():
    # with an ES query, views are replaced by skeletons for the rule phase;
    # the emitted plan still names the original views and stays correct
    q = tree_from_text('doc("L")/a/b//c')
    views = ViewSet.from_texts(
        {
            "v1": 'doc("L")/a[.//zz]/b',
            "v2": 'doc("L")//b//c',
        }
    )
    assert classify(q) is FragmentClass.EXTENDED_SKELETON
    out = rewrite_detailed(q, views, EFFICIENT)
    if out.plan is not None:
        u = out.plan.unfold()
        assert dag_contained_in_tree(u, q)
