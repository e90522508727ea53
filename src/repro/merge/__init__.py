"""Thread-merging schemes: the paper's core contribution."""

from repro.merge.packet import ExecPacket, MergeRules
from repro.merge.parser import parse_scheme, scheme_name, scheme_tokens
from repro.merge.registry import (
    BASELINES,
    FIG10_GROUPS,
    PAPER_SCHEMES,
    SEMANTIC_EQUIV,
    canonical,
    canonical_root,
    distinct_semantics,
    get_scheme,
    scheme_family,
    semantic_key,
)
from repro.merge.scheme import Leaf, Node, ParCsmt, Scheme

__all__ = [
    "BASELINES",
    "ExecPacket",
    "FIG10_GROUPS",
    "Leaf",
    "MergeRules",
    "Node",
    "PAPER_SCHEMES",
    "ParCsmt",
    "SEMANTIC_EQUIV",
    "Scheme",
    "canonical",
    "canonical_root",
    "distinct_semantics",
    "get_scheme",
    "parse_scheme",
    "scheme_family",
    "scheme_name",
    "scheme_tokens",
    "semantic_key",
]
