"""Equivalent rewriting of wildcard-free XPath queries using view
intersections: pattern model, containment, interleavings, the rule-based
normalizer, and the prefix-driven rewriting algorithms."""

from .syntax import Dialect, DialectError, XPathSyntaxError, parse, print_expr
from .pattern import (
    EMPTY,
    CapExceeded,
    NotMainBranch,
    Pattern,
    UnknownView,
    ViewSet,
    compensate_expr,
    compensate_pattern,
    dag_from_expr,
    lossless_prefixes,
    main_branch,
    pattern_from_json,
    pattern_to_json,
    subpattern_at,
    to_text,
    tree_from_ast,
    tree_from_text,
    unfold_expr,
)
from .documents import (
    TreeGenConfig,
    UnsupportedXml,
    ViewDocument,
    XmlTree,
    eval_dag_pattern,
    eval_plan,
    eval_tree_pattern,
    generate_tree,
    materialize_all,
    materialize_view,
    parse_xml,
    print_xml,
)
from .containment import (
    dag_contained_in_tree,
    has_mapping,
    minimize,
    tree_contains,
)
from .interleaving import (
    Interleaving,
    interleavings,
    is_satisfiable,
    normal_form,
    union_free_oracle,
)
from .rules import RuleInstance, TraceStep, apply_rules, collapsible, immediately_unsatisfiable, similar, try_rule
from .fragments import FragmentClass, are_akin, classify, extended_skeleton
from .rewrite import (
    EFFICIENT,
    FULL,
    RewritePlan,
    RewritingGraph,
    all_rewrites,
    build_rewrite_candidate,
    contains,
    equivalent,
    filter_prefixes_by_keys,
    nested_rewrite,
    rewrite,
    rewrite_detailed,
)
from .workload import BenchReport, GenConfig, GenerationTimeout, bench, generate_workload

__all__ = [name for name in dir() if not name.startswith("_")]
