"""Scheme-name parser tests: all 16 paper names, error handling, and
the grammar read and written both ways (names <-> cascade tokens)."""

import hashlib

import pytest

from repro.eval.search import mutate_names
from repro.eval.sweep import enumerate_names
from repro.merge import (
    PAPER_SCHEMES,
    SEMANTIC_EQUIV,
    canonical,
    parse_scheme,
    scheme_name,
    scheme_tokens,
)
from repro.merge.registry import distinct_semantics, get_scheme, scheme_family
from repro.merge.scheme import Leaf, Node, ParCsmt


class TestPaperNames:
    @pytest.mark.parametrize("name", PAPER_SCHEMES)
    def test_all_paper_schemes_parse(self, name):
        s = parse_scheme(name)
        assert s.n_ports == 4
        assert s.name == name

    def test_st_is_single_port(self):
        s = parse_scheme("ST")
        assert s.n_ports == 1
        assert isinstance(s.root, Leaf)

    def test_1s_is_two_port_smt(self):
        s = parse_scheme("1S")
        assert s.n_ports == 2
        assert isinstance(s.root, Node)
        assert s.root.merge_kind == "S"

    def test_c4_is_single_parallel_block(self):
        s = parse_scheme("C4")
        assert isinstance(s.root, ParCsmt)
        assert s.root.width == 4

    def test_3scc_structure(self):
        s = parse_scheme("3SCC")
        root = s.root
        assert root.merge_kind == "C"
        assert root.left.merge_kind == "C"
        assert root.left.left.merge_kind == "S"
        assert root.left.left.left.port == 0
        assert isinstance(root.right, Leaf) and root.right.port == 3

    def test_2sc3_structure(self):
        s = parse_scheme("2SC3")
        assert isinstance(s.root, ParCsmt)
        assert s.root.width == 3
        inner = s.root.children[0]
        assert isinstance(inner, Node) and inner.merge_kind == "S"

    def test_2c3s_structure(self):
        s = parse_scheme("2C3S")
        assert s.root.merge_kind == "S"
        assert isinstance(s.root.left, ParCsmt)
        assert s.root.left.width == 3

    def test_tree_2cs_structure(self):
        s = parse_scheme("2CS")
        assert s.root.merge_kind == "S"
        assert s.root.left.merge_kind == "C"
        assert s.root.right.merge_kind == "C"
        assert s.root.right.left.port == 2

    def test_tree_2ss_structure(self):
        s = parse_scheme("2SS")
        assert s.root.merge_kind == "S"
        assert s.root.left.merge_kind == "S"

    def test_cascade_3sss(self):
        s = parse_scheme("3SSS")
        assert s.count_blocks() == {"S": 3, "C": 0, "parC": 0}

    def test_case_insensitive(self):
        assert parse_scheme("3scc").name == "3SCC"


class TestParserErrors:
    def test_rejects_parallel_smt(self):
        with pytest.raises(ValueError, match="parallel SMT"):
            parse_scheme("2CS3")  # S3 would be a 3-input SMT block

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_scheme("XYZ")

    def test_rejects_level_mismatch(self):
        with pytest.raises(ValueError, match="levels"):
            parse_scheme("4SC")

    def test_rejects_port_mismatch(self):
        with pytest.raises(ValueError):
            parse_scheme("2SC", n_threads=5)

    def test_rejects_c1(self):
        with pytest.raises(ValueError):
            parse_scheme("C1")


class TestRegistry:
    def test_fifteen_four_thread_schemes(self):
        # Figure 8 enumerates exactly (a)-(o)
        assert len(PAPER_SCHEMES) == 15
        assert "1S" not in PAPER_SCHEMES

    def test_semantic_equivalents_point_to_cascades(self):
        assert canonical("C4") == "3CCC"
        assert canonical("2SC3") == "3SCC"
        assert canonical("2C3S") == "3CCS"
        assert canonical("3SSS") == "3SSS"

    def test_distinct_semantics_covers_everything(self):
        groups = distinct_semantics()
        covered = [n for names in groups.values() for n in names]
        assert sorted(covered) == sorted(PAPER_SCHEMES)
        assert len(groups) == 12  # 15 schemes, 3 parallel duplicates

    def test_get_scheme_caches(self):
        assert get_scheme("3SSS") is get_scheme("3sss")

    def test_families(self):
        assert scheme_family("C4") == "pure-CSMT"
        assert scheme_family("3CCC") == "pure-CSMT"
        assert scheme_family("3SSS") == "pure-SMT"
        assert scheme_family("1S") == "pure-SMT"
        assert scheme_family("2SC3") == "hybrid"

    def test_equiv_keys_are_paper_schemes(self):
        for k, v in SEMANTIC_EQUIV.items():
            assert k in PAPER_SCHEMES
            assert v in PAPER_SCHEMES


class TestTokens:
    def test_cascade_tokens(self):
        assert scheme_tokens("2SC3", 4) == [("S", 2), ("C", 3)]
        assert scheme_tokens("1S", 2) == [("S", 2)]
        assert scheme_tokens("C4", 4) == [("C", 4)]
        assert scheme_tokens("2SC@3", 3) == [("S", 2), ("C", 2)]

    def test_non_cascades_have_no_tokens(self):
        for name, n in (("ST", 1), ("C2", 2), ("2SC", 4), ("2SC@3", 4),
                        ("3SSS", 3), ("2SX", 4)):
            assert scheme_tokens(name, n) is None, name

    def test_names_fold_and_qualify(self):
        assert scheme_name([("C", 4)], 4) == "C4"
        assert scheme_name([("C", 2)], 2) == "1C"
        assert scheme_name([("S", 2), ("C", 2)], 3) == "2SC@3"
        assert scheme_name([("S", 2), ("C", 2)], 4) is None

    def test_every_cascade_name_round_trips(self):
        for n in range(1, 9):
            for name in enumerate_names(n):
                tokens = scheme_tokens(name, n)
                if tokens is None:  # ST, C2 and the 4-thread trees
                    assert name in ("ST", "C2") or \
                        parse_scheme(name).n_ports == n == 4, name
                    continue
                assert scheme_name(tokens, n) == name

    def test_enumeration_and_mutation_unchanged(self):
        """sha256 over enumerate_names(1..10) and over mutate_names of
        every enumerated name at 2..8 threads: the names the sweep and
        the search generate stay exactly the pinned ones."""
        names = hashlib.sha256()
        for n in range(1, 11):
            names.update(repr(enumerate_names(n)).encode())
        assert names.hexdigest() == (
            "ed6ea6ce536dfee441b1962c1d1ce73c3c2bdfaeaa7bff561632a4fb4a484d20")
        mutants = hashlib.sha256()
        for n in range(2, 9):
            for name in enumerate_names(n):
                mutants.update(repr((name, mutate_names(name, n))).encode())
        assert mutants.hexdigest() == (
            "3b9bdf6799dd7a0dfdb3614da4adb5871605e62d5bdea792e90fef08e01000fc")
