from xpviews import classify, extended_skeleton, tree_from_text
from xpviews.fragments import FragmentClass, added_pred_keeps_es, are_akin, codes_map
from xpviews.pattern import canon_key

ES = FragmentClass.EXTENDED_SKELETON
SS = FragmentClass.SLASH_SLASH
FULL = FragmentClass.FULL


def c(text):
    return classify(tree_from_text(text))


def test_extended_skeleton_positive_examples():
    assert c('doc("D")/a[b//c]/d//e') is ES
    assert c('doc("D")/a[b//c//d]/e//d') is ES


def test_extended_skeleton_negative_examples():
    assert c('doc("D")/a[b//c]/b//d') is not ES
    assert c('doc("D")/a[b//c]//d') is not ES
    assert c('doc("D")/a[.//b]/c//d') is not ES
    assert c('doc("D")/a[.//b]//c') is not ES


def test_slash_only_pattern_is_extended_skeleton():
    assert c('doc("D")/a[b]/c[d]/e') is ES


def test_output_predicates_are_unrestricted():
    assert c('doc("D")/a//e[.//b]') is ES


def test_slashslash_fragment():
    # whole predicates hung by // directly off the main branch
    assert c('doc("D")/a[.//b//c]/c//d') is SS
    assert c('doc("D")/a[.//b]//c') is SS
    # a nested //-subpredicate with a compatible incoming path is beyond
    assert c('doc("D")/a[b//c]/b//d') is FULL


def test_fragment_order():
    # running-example paths are all extended skeletons
    assert c('doc("L")/lib//paper//section[theorem]//figure/image') is ES


def test_extended_skeleton_pruning():
    p = tree_from_text('doc("D")/a[.//b][c]/c//d')
    s = extended_skeleton(p)
    assert canon_key(s) == canon_key(tree_from_text('doc("D")/a[c]/c//d'))
    assert classify(s) is ES
    # idempotent
    assert canon_key(extended_skeleton(s)) == canon_key(s)


def test_extended_skeleton_keeps_compatible_subpredicates():
    p = tree_from_text('doc("D")/a[b//c]/d//e')
    assert canon_key(extended_skeleton(p)) == canon_key(p)


def test_added_predicate_keeps_es_by_incoming_code():
    # below a the main branch reads b/c; a copy of [x/b//c] hangs c off
    # the code x/b, which maps into b/c in neither direction, while the
    # code b of [b//c] maps into it
    p = tree_from_text('doc("D")/a[x/b//c][b//c]/b/c//d')
    a = next(n for n in p.mb_nodes() if p.label(n) == "a")
    preds = {p.label(b): b for b, _ in p.pred_edges(a)}
    assert added_pred_keeps_es(p, a, preds["x"])
    assert not added_pred_keeps_es(p, a, preds["b"])
    assert added_pred_keeps_es(p, p.out, preds["b"])  # output predicates are free


def test_codes_map_substring_semantics():
    assert codes_map((), ("a",))
    assert codes_map(("a", "b"), ("x", "a", "b", "y"))
    assert not codes_map(("a", "b"), ("b", "a"))


def test_akin_examples():
    # the running example's views have different root tokens
    v1 = tree_from_text('doc("L")/lib/paper//section//figure[caption[.//label]]/image')
    v2 = tree_from_text('doc("L")//paper//section[theorem]//figure/image')
    v2p = tree_from_text('doc("L")//figure[.//caption//label]//subfigure/image[ps]')
    assert not are_akin([v1, v2])
    # views whose root token is just the document node are mutually akin
    assert are_akin([v2, v2p])
    assert are_akin([v1, v1.clone()])
    w1 = tree_from_text('doc("L")/lib/a//x')
    w2 = tree_from_text('doc("L")/lib/a//y/x')
    w3 = tree_from_text('doc("L")/lib//x')
    assert are_akin([w1, w2])
    assert not are_akin([w1, w3])


def test_root_token_is_the_main_branch_slash_run_from_the_root():
    # a /-predicate is not part of the root token, and a whole /-branch is
    # one token up to the output
    assert are_akin([tree_from_text('doc("L")/a[b]/c'), tree_from_text('doc("L")/a/c[.//d]')])
    assert are_akin([tree_from_text('doc("L")/a/b/c'), tree_from_text('doc("L")/a/b/c[d]')])
    assert not are_akin([tree_from_text('doc("L")/a/b/c'), tree_from_text('doc("L")/a/b//c')])
    assert not are_akin([tree_from_text('doc("L")/a/b'), tree_from_text('doc("L")/a[b]//b')])
