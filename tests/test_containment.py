import itertools
import random
import time

import pytest

from xpviews import (
    EMPTY,
    GenConfig,
    apply_rules,
    contains,
    dag_from_expr,
    equivalent,
    generate_workload,
    has_mapping,
    minimize,
    tree_contains,
    tree_from_text,
    unfold_expr,
    ViewSet,
)
from xpviews.containment import (
    CONTAINMENT,
    MAPPING,
    ROOT_MAPPING,
    dag_contained_in_tree,
    root_mapping_out_images,
)
from xpviews.interleaving import first_interleaving, interleavings
from xpviews.pattern import canon_key, compensate_pattern, dag_intersect, lossless_prefixes, main_branch, tp_of_path
from xpviews.syntax import parse

from conftest import (
    alarm,
    brute_mapping,
    contains_by_canonical_model,
    dag_contained_in_dag,
    equivalent_by_minimization,
    random_dag_corpus,
    random_mb_dag,
    random_tree_pattern,
)

V1 = 'doc("L")//paper//section'
V2 = 'doc("L")//section[theorem]'
Q10 = 'doc("L")/lib//paper//section[theorem]//figure/image'


def test_v1_root_maps_into_q_at_section():
    v1, q = tree_from_text(V1), tree_from_text(Q10)
    section = main_branch(q)[3]
    images = root_mapping_out_images(v1, q)
    assert images == [section]


def test_identity_mapping_always_found():
    p = tree_from_text(Q10)
    assert has_mapping(p, p, CONTAINMENT)


@pytest.mark.parametrize("seed", [20240811, 7, 99])
def test_dag_source_mappings_match_exhaustive_search(seed):
    # DAG sources into their own interleavings and branches and into random
    # trees: arc consistency must decide as a plain search does
    rng = random.Random(seed)
    positive = 0
    for _, d, parts in random_dag_corpus(seed, 150):
        interleaved = [i.pattern for _, i in zip(range(4), interleavings(d))]
        trees = [random_tree_pattern(rng, mb_len=rng.randint(1, 4), out_label=d.label(d.out)) for _ in range(2)]
        for target in interleaved + parts + trees:
            for kind in (MAPPING, ROOT_MAPPING, CONTAINMENT):
                got = has_mapping(d, target, kind)
                assert got == brute_mapping(d, target, kind), (seed, kind)
                positive += got
    assert positive > 100


def test_mb_dag_mappings_match_exhaustive_search():
    # main branches that rejoin by /-edges need narrowing both ways along
    # an edge and again after a neighbour narrows
    rng = random.Random(5)
    positive = 0
    for _ in range(1500):
        d = random_mb_dag(rng, mb_len=rng.randint(2, 5))
        target = random_tree_pattern(
            rng, mb_len=rng.randint(2, 7), labels=("a", "b"), pred_prob=0.2, root_label=rng.choice("ab")
        )
        for kind in (MAPPING, ROOT_MAPPING, CONTAINMENT):
            got = has_mapping(d, target, kind)
            assert got == brute_mapping(d, target, kind), kind
            positive += got
    assert positive > 50


def test_dag_source_needs_a_tree_target():
    d = dag_from_expr(parse('doc("L")//a/b & doc("L")/a//b'))
    assert not d.is_tree()
    with pytest.raises(ValueError):
        has_mapping(d, d, CONTAINMENT)


def test_long_predicate_chain_maps_into_itself():
    # deciding must take neither a stack frame per pattern node nor a list
    # scan per candidate image
    p = tree_from_text('doc("L")/a[' + "/".join(["b"] * 1000) + "]")
    assert tree_contains(p, p)


def test_no_containment_between_v1_and_v2():
    v1, v2 = tree_from_text(V1), tree_from_text(V2)
    assert not has_mapping(v1, v2, CONTAINMENT)
    assert not has_mapping(v2, v1, CONTAINMENT)
    assert not tree_contains(v1, v2)
    assert not tree_contains(v2, v1)


def test_figure_image_contains_lib_variant():
    p1 = tree_from_text('doc("L")//figure/image')
    p2 = tree_from_text('doc("L")/lib//figure/image')
    assert tree_contains(p1, p2)
    assert contains_by_canonical_model(p1, p2)
    assert not tree_contains(p2, p1)
    assert not contains_by_canonical_model(p2, p1)


def test_containment_reflexive():
    p = tree_from_text(Q10)
    assert tree_contains(p, p)


def test_mapping_agrees_with_canonical_model_oracle():
    rng = random.Random(101)
    for _ in range(120):
        p1 = random_tree_pattern(rng, mb_len=rng.randint(1, 3))
        p2 = random_tree_pattern(rng, mb_len=rng.randint(1, 3))
        assert tree_contains(p1, p2) == contains_by_canonical_model(p1, p2)
        assert tree_contains(p2, p1) == contains_by_canonical_model(p2, p1)


def test_tree_contained_in_dag_via_containment_mapping():
    views = ViewSet.from_texts({"v1": V1, "v2": V2})
    d = unfold_expr(parse('doc("v1")/v1 & doc("v2")/v2'), views)
    q = tree_from_text('doc("L")//paper//section[theorem]')
    assert contains(d, q)
    weaker = tree_from_text('doc("L")//paper//section')
    assert not contains(d, weaker)


def test_dag_contained_in_tree_cases():
    # compensated v1 & v2 is contained in the matching lossless prefix
    views = ViewSet.from_texts({"v1": V1, "v2": V2})
    q = tree_from_text('doc("L")//paper//section[theorem]//figure/image')
    prefix = lossless_prefixes(q)[2]
    assert prefix.label(prefix.out) == "section"
    v1c = compensate_pattern(views["v1"], prefix, prefix.out)
    v2c = compensate_pattern(views["v2"], prefix, prefix.out)
    d = dag_intersect([v1c, v2c])
    assert dag_contained_in_tree(d, prefix)
    # a tree reduces to plain containment
    p = tree_from_text('doc("L")/a/b')
    assert dag_contained_in_tree(p, tree_from_text('doc("L")//b'))
    assert not dag_contained_in_tree(p, tree_from_text('doc("L")//c'))
    # the empty pattern is contained in everything
    assert dag_contained_in_tree(EMPTY, p)


def test_minimize_duplicate_predicate():
    p = tree_from_text('doc("D")//a[b][b]')
    assert canon_key(minimize(p)) == canon_key(tree_from_text('doc("D")//a[b]'))


def test_minimize_subsumed_predicate():
    p = tree_from_text('doc("D")//a[b/c][b]')
    assert canon_key(minimize(p)) == canon_key(tree_from_text('doc("D")//a[b/c]'))


def test_minimize_keeps_minimal_query():
    q = tree_from_text(Q10)
    m = minimize(q)
    assert canon_key(m) == canon_key(q)
    # oracle: no single predicate subtree is droppable
    mbn = q.mb_nodes()
    for n in sorted(q.nodes):
        if n in mbn:
            continue
        trial = q.clone()
        trial.remove_nodes(q.descendants(n) | {n})
        assert not (
            tree_contains(q, trial) and tree_contains(trial, q)
        ), f"subtree at {n} is droppable"


def test_minimize_admits_mappings_both_ways():
    rng = random.Random(33)
    for _ in range(40):
        p = random_tree_pattern(rng, mb_len=rng.randint(1, 3), pred_prob=0.7)
        m = minimize(p)
        assert has_mapping(p, m, CONTAINMENT)
        assert has_mapping(m, p, CONTAINMENT)


def test_equivalent_is_an_equivalence_relation():
    rng = random.Random(55)
    corpus = [random_tree_pattern(rng, mb_len=rng.randint(1, 3)) for _ in range(18)]
    # reflexivity and symmetry
    for p in corpus:
        assert equivalent(p, p)
    for p, q in itertools.combinations(corpus, 2):
        assert equivalent(p, q) == equivalent(q, p)
    # transitivity on sampled triples
    for p, q, r in itertools.islice(itertools.combinations(corpus, 3), 300):
        if equivalent(p, q) and equivalent(q, r):
            assert equivalent(p, r)


def test_equivalent_modulo_redundancy():
    a = tree_from_text('doc("D")//x[a][a/b]')
    b = tree_from_text('doc("D")//x[a/b]')
    assert equivalent(a, b)
    assert not equivalent(a, tree_from_text('doc("D")//x[a]'))


def test_unsatisfiable_dags_are_equivalent_to_empty():
    # //a/c & //b/c has no interleaving (c has one parent), so it denotes
    # the empty set, as does every corpus DAG the rules reduce to EMPTY
    d = dag_intersect([tree_from_text('doc("L")//a/c'), tree_from_text('doc("L")//b/c')])
    assert d is not EMPTY and first_interleaving(d) is None
    corpus = [dag for _, dag, _ in random_dag_corpus(20240811, 500)]
    unsat = [d] + [dag for dag in corpus if apply_rules(dag)[0] is EMPTY]
    assert len(unsat) == 283
    for dag in unsat:
        assert dag_contained_in_dag(dag, EMPTY)
        assert equivalent(dag, EMPTY) and equivalent(EMPTY, dag)
    # a satisfiable pattern is not empty
    tree = tree_from_text('doc("L")//a/c')
    assert not dag_contained_in_dag(tree, EMPTY) and not equivalent(tree, EMPTY)


def _equivalence_cases():
    """Pairs on which ``equivalent`` is held to ``equivalent_by_minimization``:
    generated views and prefixes against the query's prefixes, random tree
    pairs, each random tree against its minimization, and corpus DAGs
    against their branches and EMPTY, both ways."""
    for seed in range(1, 11):
        for category in ("es", "slashslash", "full"):
            _, q, views = generate_workload(GenConfig(seed=seed, category=category, main_branch_size=4))
            prefixes = lossless_prefixes(q)
            for p in prefixes:
                for other in [v for _, v in views.items()] + prefixes:
                    yield other, p
    rng = random.Random(4242)
    trees = [random_tree_pattern(rng, mb_len=rng.randint(1, 4), pred_prob=0.6) for _ in range(120)]
    for a, b in zip(trees, trees[1:]):
        yield a, b
        yield b, a
    for a in trees:
        m = minimize(a)
        yield a, m
        yield m, a
    for _, d, parts in random_dag_corpus(20240811, 60):
        for b in parts + [EMPTY]:
            yield d, b
            yield b, d


def test_equivalent_agrees_with_minimization_oracle():
    seen = positive = 0
    for p1, p2 in _equivalence_cases():
        got = equivalent(p1, p2)
        assert got == equivalent_by_minimization(p1, p2)
        seen += 1
        positive += got
    assert seen > 6000 and positive > 400


def _shape(p) -> str:
    return "EMPTY" if p is EMPTY else "tree" if p.is_tree() else "DAG"


def _raw_contains(p1, p2) -> bool:
    """p2 ⊑ p1 by the raw interleavings of ``p2`` and an exhaustive search
    for a containment mapping from ``p1`` into each."""
    if p2 is EMPTY:
        return True
    trees = [p2] if p2.is_tree() else [i.pattern for i in interleavings(p2)]
    return all(brute_mapping(p1, t, CONTAINMENT) for t in trees)


def test_contains_on_every_pairing_of_shapes():
    # each corpus DAG with its branches, their first two intersected, EMPTY,
    # an unsatisfiable DAG and a random tree, every ordered pair
    unsat = dag_intersect([tree_from_text('doc("L")//a/c'), tree_from_text('doc("L")//b/c')])
    rng = random.Random(17)
    seen: dict[tuple, set] = {}
    for _, d, parts in random_dag_corpus(99, 40):
        tree = random_tree_pattern(rng, mb_len=rng.randint(1, 3), out_label=d.label(d.out))
        group = [d, *parts, dag_intersect(parts[:2]), EMPTY, unsat, tree]
        for p1, p2 in itertools.product(group, repeat=2):
            got = contains(p1, p2)
            assert got == _raw_contains(p1, p2) == dag_contained_in_dag(p2, p1), (_shape(p1), _shape(p2))
            seen.setdefault((_shape(p1), _shape(p2)), set()).add(got)
    shapes = ("EMPTY", "tree", "DAG")
    assert set(seen) == set(itertools.product(shapes, repeat=2))
    # both answers occur wherever both are possible: a tree is never empty
    for (s1, s2), answers in seen.items():
        assert answers == ({False} if (s1, s2) == ("EMPTY", "tree") else {True} if s2 == "EMPTY" else {True, False})


def test_deep_chain_equivalence_is_fast():
    # the pattern and its copy through tp_of_path are equivalent; comparing
    # minimized forms took seconds at 200 nodes and minutes at 2,000
    p = tree_from_text('doc("L")/a[' + "/".join(["b"] * 300) + "]")
    copy = tp_of_path(p, main_branch(p))
    with alarm(20):
        t0 = time.perf_counter()
        assert equivalent(p, copy)
        elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"equivalent took {elapsed:.2f} s"
