"""Design-space sweep: enumerator, dedup, sharding, merge, CLI."""

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import paper_machine
from repro.eval import (
    RunStore,
    StoreMismatchError,
    enumerate_candidates,
    enumerate_names,
    Session,
    merge_runs,
    open_store,
    shard_cells,
    sweep_cells,
)
from repro.eval.cli import main
from repro.eval.sweep import candidate_table
from repro.merge import (
    PAPER_SCHEMES,
    SEMANTIC_EQUIV,
    canonical_root,
    get_scheme,
    parse_scheme,
    semantic_key,
)
from repro.sim import SimConfig, run_workload
from repro.workloads import WORKLOAD_ORDER, workload_programs

TINY = SimConfig(instr_limit=600, timeslice=300, warmup_instrs=150)

MACHINE = paper_machine()

#: names per thread count the grammar spans (cascades + N=4 trees + CN).
EXPECTED_COUNTS = {1: 1, 2: 3, 3: 5, 4: 17, 5: 34, 6: 89}


@lru_cache(maxsize=None)
def _probe_programs():
    return tuple(workload_programs("LLMH", MACHINE))


@lru_cache(maxsize=None)
def _probe_stats(name: str) -> tuple:
    """Simulated fingerprint of one scheme on the probe workload."""
    r = run_workload(list(_probe_programs()), name, TINY)
    return (r.stats.cycles, r.stats.ops, r.stats.instrs,
            tuple(sorted(r.stats.merged_hist.items())))


# ----------------------------------------------------------------------
# qualified names (the @N parser extension)
# ----------------------------------------------------------------------
class TestQualifiedNames:
    def test_qualifier_disambiguates_3_thread_cascade(self):
        tree = parse_scheme("2SC")
        cascade = parse_scheme("2SC@3")
        assert tree.n_ports == 4
        assert cascade.n_ports == 3
        assert repr(cascade.root) == "C(S(P0,P1),P2)"
        assert cascade.name == "2SC@3"

    def test_qualifier_must_agree_with_requested_count(self):
        assert parse_scheme("2SC@3", 3).n_ports == 3
        with pytest.raises(ValueError, match="declares 3"):
            parse_scheme("2SC@3", 4)

    def test_bad_qualifier_rejected(self):
        with pytest.raises(ValueError, match="qualifier"):
            parse_scheme("2SC@x")
        with pytest.raises(ValueError, match=">= 1"):
            parse_scheme("2SC@0")

    def test_get_scheme_resolves_qualified_names(self):
        s = get_scheme("2cc@3")
        assert s.n_ports == 3 and s.name == "2CC@3"


# ----------------------------------------------------------------------
# the enumerator
# ----------------------------------------------------------------------
class TestEnumerateNames:
    @pytest.mark.parametrize("n,count", sorted(EXPECTED_COUNTS.items()))
    def test_grammar_counts(self, n, count):
        names = enumerate_names(n)
        assert len(names) == count
        assert len(set(names)) == count

    def test_every_name_covers_exactly_n_ports(self):
        for n in range(1, 7):
            for name in enumerate_names(n):
                assert parse_scheme(name).n_ports == n, name

    def test_all_paper_schemes_enumerated_at_4_threads(self):
        names = enumerate_names(4)
        for scheme in PAPER_SCHEMES:
            assert scheme in names, scheme

    def test_beyond_paper_names_present(self):
        """The sweep opens the space beyond the published 16."""
        names = enumerate_names(4)
        assert "2CC3" in names and "2C3C" in names

    def test_no_alias_duplicates(self):
        """1Ck builds the same AST as Ck; only one may be enumerated."""
        reprs = [repr(get_scheme(n).root) for n in enumerate_names(4)]
        assert len(reprs) == len(set(reprs))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_names(0)


class TestEnumerateCandidates:
    def test_registry_equivalences_reproduced(self):
        """The published SEMANTIC_EQUIV table falls out of the general
        parc-lowering rule, plus the two unpublished aliases."""
        groups = {g.canonical: set(g.members)
                  for g in enumerate_candidates(4)}
        assert groups["3CCC"] == {"3CCC", "C4", "2CC3", "2C3C"}
        assert groups["3SCC"] == {"3SCC", "2SC3"}
        assert groups["3CCS"] == {"3CCS", "2C3S"}
        for par, serial in SEMANTIC_EQUIV.items():
            assert par in groups[serial]

    def test_canonical_member_is_parc_free(self):
        for n in range(1, 7):
            for g in enumerate_candidates(n):
                root = get_scheme(g.canonical).root
                assert repr(root) == repr(canonical_root(root)), g

    def test_members_partition_names(self):
        for n in range(2, 6):
            members = [m for g in enumerate_candidates(n) for m in g.members]
            assert sorted(members) == sorted(enumerate_names(n))

    def test_eight_thread_space_has_610_members(self):
        assert sum(len(g.members) for g in enumerate_candidates(8)) == 610

    def test_distinct_canonicals_have_distinct_keys(self):
        keys = [semantic_key(g.canonical) for g in enumerate_candidates(4)]
        assert len(keys) == len(set(keys))


# ----------------------------------------------------------------------
# hypothesis: the satellite properties
# ----------------------------------------------------------------------
@given(data=st.data(), n=st.integers(min_value=1, max_value=6))
def test_every_generated_scheme_roundtrips(data, n):
    """parse(name) -> scheme -> parse(scheme.name) is the identity."""
    name = data.draw(st.sampled_from(enumerate_names(n)))
    scheme = parse_scheme(name)
    again = parse_scheme(scheme.name)
    assert again.name == scheme.name
    assert again.n_ports == scheme.n_ports == n
    assert repr(again.root) == repr(scheme.root)


_MULTI_GROUPS = [g for n in (2, 3, 4) for g in enumerate_candidates(n)
                 if len(g.members) > 1]


@settings(deadline=None)
@given(group=st.sampled_from(_MULTI_GROUPS))
def test_dedup_never_merges_distinct_semantics(group):
    """Every member of a deduplicated group simulates identically on a
    probe workload - so simulating the canonical member only is exact,
    never an approximation."""
    reference = _probe_stats(group.canonical)
    for member in group.members:
        assert _probe_stats(member) == reference, member


@settings(deadline=None)
@given(pair=st.sampled_from([
    (a.canonical, b.canonical)
    for n in (3, 4)
    for i, a in enumerate(enumerate_candidates(n))
    for b in enumerate_candidates(n)[i + 1:i + 2]
]))
def test_distinct_groups_are_distinguishable(pair):
    """Adjacent distinct groups carry distinct keys (the dedup is not
    collapsing everything)."""
    a, b = pair
    assert semantic_key(a) != semantic_key(b)


# ----------------------------------------------------------------------
# engines agree outside the 4-thread registry (new port counts)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["2SC@3", "C3", "2SS@3", "C5"])
def test_engines_bit_identical_on_swept_port_counts(name):
    programs = list(_probe_programs())
    fast = run_workload(programs, name, TINY)
    ref = run_workload(programs, name,
                       SimConfig(instr_limit=600, timeslice=300,
                                 warmup_instrs=150, engine="reference"))
    assert fast.stats.cycles == ref.stats.cycles
    assert fast.stats.ops == ref.stats.ops
    assert fast.stats.merged_hist == ref.stats.merged_hist


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
class TestShardCells:
    CELLS = sweep_cells(3, ["LLLL", "HHHH", "MMMM"])

    def test_shards_partition_the_grid(self):
        full = {c.key for c in self.CELLS}
        parts = [shard_cells(self.CELLS, i, 3) for i in (1, 2, 3)]
        keys = [{c.key for c in p} for p in parts]
        assert set().union(*keys) == full
        for i in range(3):
            for j in range(i + 1, 3):
                assert not keys[i] & keys[j]

    def test_deterministic_under_input_order(self):
        forward = shard_cells(self.CELLS, 1, 2)
        backward = shard_cells(list(reversed(self.CELLS)), 1, 2)
        assert [c.key for c in forward] == [c.key for c in backward]

    def test_single_shard_is_identity(self):
        assert ({c.key for c in shard_cells(self.CELLS, 1, 1)}
                == {c.key for c in self.CELLS})

    def test_bad_shard_args_rejected(self):
        with pytest.raises(ValueError):
            shard_cells(self.CELLS, 0, 2)
        with pytest.raises(ValueError):
            shard_cells(self.CELLS, 3, 2)
        with pytest.raises(ValueError):
            shard_cells(self.CELLS, 1, 0)


# ----------------------------------------------------------------------
# run-store merging
# ----------------------------------------------------------------------
class TestMergeRuns:
    def test_union_of_disjoint_cells(self, tmp_path):
        a = open_store(tmp_path / "a", {"f": 1})
        b = open_store(tmp_path / "b", {"f": 1})
        a.record_cell("x", "k1", 1.0)
        b.record_cell("x", "k2", 2.0)
        b.record_cell("y", "k3", 3.0)
        dest = merge_runs(tmp_path / "m", [a.path, b.path])
        assert dest.load_cells("x") == {"k1": 1.0, "k2": 2.0}
        assert dest.load_cells("y") == {"k3": 3.0}
        assert dest.fingerprint() == {"f": 1}

    def test_conflicting_values_rejected(self, tmp_path):
        a = open_store(tmp_path / "a", {"f": 1})
        b = open_store(tmp_path / "b", {"f": 1})
        a.record_cell("x", "k", 1.0)
        b.record_cell("x", "k", 1.5)
        with pytest.raises(StoreMismatchError, match="conflicting"):
            merge_runs(tmp_path / "m", [a.path, b.path])

    def test_agreeing_duplicates_allowed(self, tmp_path):
        a = open_store(tmp_path / "a", {"f": 1})
        b = open_store(tmp_path / "b", {"f": 1})
        a.record_cell("x", "k", 1.0)
        b.record_cell("x", "k", 1.0)
        dest = merge_runs(tmp_path / "m", [a.path, b.path])
        assert dest.load_cells("x") == {"k": 1.0}

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        open_store(tmp_path / "a", {"f": 1})
        open_store(tmp_path / "b", {"f": 2})
        with pytest.raises(StoreMismatchError, match="different"):
            merge_runs(tmp_path / "m", [tmp_path / "a", tmp_path / "b"])

    def test_non_run_directory_rejected(self, tmp_path):
        with pytest.raises(StoreMismatchError, match="manifest"):
            merge_runs(tmp_path / "m", [tmp_path / "missing"])

    def test_mixed_stamped_and_unstamped_sources_rejected(self, tmp_path):
        open_store(tmp_path / "a", {"f": 1})
        open_store(tmp_path / "b")  # no fingerprint
        with pytest.raises(StoreMismatchError, match="no config"):
            merge_runs(tmp_path / "m", [tmp_path / "a", tmp_path / "b"])

    def test_unstamped_sources_into_stamped_dest_rejected(self, tmp_path):
        open_store(tmp_path / "m", {"f": 1})
        open_store(tmp_path / "a")
        with pytest.raises(StoreMismatchError, match="cannot be verified"):
            merge_runs(tmp_path / "m", [tmp_path / "a"])

    def test_rejected_merge_leaves_destination_untouched(self, tmp_path):
        """Validation is two-phase: a conflict in the last source must
        not leave cells from earlier sources in the destination."""
        a = open_store(tmp_path / "a", {"f": 1})
        b = open_store(tmp_path / "b", {"f": 1})
        a.record_cell("x", "k1", 1.0)
        b.record_cell("x", "k1", 2.0)  # conflicts with a
        b.record_cell("y", "k2", 3.0)
        with pytest.raises(StoreMismatchError, match="conflicting"):
            merge_runs(tmp_path / "m", [a.path, b.path])
        dest = RunStore(str(tmp_path / "m"))
        assert dest.experiments_with_cells() == []


# ----------------------------------------------------------------------
# the sweep itself
# ----------------------------------------------------------------------
class TestRunSweep:
    WORKLOADS = ["LLLL", "HHHH"]

    @staticmethod
    def sweep(threads, workloads, store=None, **kw):
        """One ``Session.sweep``; returns the artifact and its grid."""
        session = Session(machine=MACHINE, config=TINY, store=store)
        return session.sweep(threads, workloads, **kw), session.last_grid

    def test_sharded_campaign_equals_single_machine(self, tmp_path):
        """The acceptance path: two shards into separate run dirs,
        merged, resumed — identical artifact, zero new simulations."""
        full, grid = self.sweep(2, self.WORKLOADS)
        shards = []
        for i in (1, 2):
            path = str(tmp_path / f"s{i}")
            result, g = self.sweep(2, self.WORKLOADS, store=path,
                                   shard=(i, 2))
            assert result.meta["cells_in_shard"] == len(g.values)
            shards.append((path, g))
        assert (shards[0][1].executed + shards[1][1].executed
                == grid.executed)
        merged = merge_runs(tmp_path / "m", [p for p, _g in shards])
        resumed, rgrid = self.sweep(2, self.WORKLOADS, store=merged)
        assert rgrid.executed == 0
        assert rgrid.reused == grid.executed
        assert resumed.to_json() == full.to_json()

    def test_every_member_is_a_design_point(self):
        result, _ = self.sweep(2, self.WORKLOADS)
        schemes = {row[0] for row in result.rows}
        assert schemes == set(enumerate_names(2))

    def test_group_members_share_ipc_but_not_cost(self):
        result, _ = self.sweep(3, self.WORKLOADS)
        rows = {row[0]: row for row in result.rows}
        assert rows["2CC@3"][1] == rows["C3"][1]          # same IPC
        assert rows["2CC@3"][2] != rows["C3"][2]          # distinct cost

    def test_frontier_members_marked_and_non_dominated(self):
        result, _ = self.sweep(2, self.WORKLOADS)
        frontier = {p["scheme"] for p in result.meta["frontier"]}
        marked = {row[0] for row in result.rows if row[4] == "*"}
        assert marked == frontier

    def test_budget_recommendation_within_budget(self):
        result, _ = self.sweep(3, self.WORKLOADS, budget_transistors=5_000)
        pick = result.meta["recommendation"]
        assert pick is not None
        assert pick["transistors"] <= 5_000
        assert any(pick["scheme"] == p["scheme"]
                   for p in result.meta["frontier"])

    def test_impossible_budget_reports_none(self):
        result, _ = self.sweep(2, self.WORKLOADS, budget_transistors=1)
        assert result.meta["recommendation"] is None
        assert any("no scheme qualifies" in n for n in result.notes)

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="unknown workloads"):
            self.sweep(2, ["NOPE"])

    def test_default_workloads_are_all_nine(self):
        cells = sweep_cells(2)
        assert len(cells) == 2 * len(WORKLOAD_ORDER)

    def test_candidate_table_lists_all(self):
        table = candidate_table(4, MACHINE)
        assert table.meta["n_schemes"] == 17
        assert table.meta["n_semantics"] == 12


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestSweepCli:
    def test_list_candidates_runs_without_simulation(self, capsys):
        assert main(["sweep", "--threads", "4", "--list"]) == 0
        out = capsys.readouterr().out
        assert "17 schemes, 12 distinct semantics" in out
        for scheme in PAPER_SCHEMES:
            assert scheme in out

    def test_sweep_end_to_end_with_store(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(["sweep", "--threads", "2", "--workloads", "LLLL",
                     "--scale", "0.03", "--out", run_dir]) == 0
        out = capsys.readouterr().out
        assert "frontier" in out
        saved = json.load(open(f"{run_dir}/sweep2.json"))
        assert saved["meta"]["threads"] == 2
        # resume: zero new simulations, identical artifact
        assert main(["sweep", "--threads", "2", "--workloads", "LLLL",
                     "--scale", "0.03", "--resume", run_dir]) == 0
        assert "cells: 0 simulated" in capsys.readouterr().out
        assert json.load(open(f"{run_dir}/sweep2.json")) == saved

    def test_shard_flow_matches_unsharded(self, tmp_path, capsys):
        args = ["sweep", "--threads", "2", "--workloads", "LLLL,HHHH",
                "--scale", "0.03"]
        assert main([*args, "--out", str(tmp_path / "full")]) == 0
        assert main([*args, "--shard", "1/2",
                     "--out", str(tmp_path / "s1")]) == 0
        assert main([*args, "--shard", "2/2",
                     "--out", str(tmp_path / "s2")]) == 0
        assert main(["merge", str(tmp_path / "m"),
                     str(tmp_path / "s1"), str(tmp_path / "s2")]) == 0
        assert main([*args, "--resume", str(tmp_path / "m")]) == 0
        capsys.readouterr()
        full = json.load(open(tmp_path / "full" / "sweep2.json"))
        merged = json.load(open(tmp_path / "m" / "sweep2.json"))
        assert full == merged

    def test_shard_run_saves_no_final_artifact(self, tmp_path, capsys):
        assert main(["sweep", "--threads", "2", "--workloads", "LLLL",
                     "--scale", "0.03", "--shard", "1/2",
                     "--out", str(tmp_path / "s1")]) == 0
        assert "merge the shard run directories" in capsys.readouterr().out
        assert not (tmp_path / "s1" / "sweep2.json").exists()

    def test_bad_shard_spec_errors(self, tmp_path, capsys):
        assert main(["sweep", "--shard", "3/2",
                     "--out", str(tmp_path / "x")]) == 1
        assert "shard" in capsys.readouterr().err

    def test_shard_without_run_directory_errors(self, capsys):
        """A shard's only output is its recorded cells; simulating one
        without a store would silently discard the work."""
        assert main(["sweep", "--threads", "2", "--shard", "1/2"]) == 1
        assert "--shard requires a run directory" in capsys.readouterr().err

    def test_threads_out_of_range_errors(self, capsys):
        assert main(["sweep", "--threads", "9"]) == 1
        assert "--threads" in capsys.readouterr().err

    def test_unknown_workload_errors(self, capsys):
        assert main(["sweep", "--workloads", "LLLL,NOPE"]) == 1
        assert "NOPE" in capsys.readouterr().err

    def test_unknown_subcommand_errors(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    def test_merge_requires_sources(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["merge", str(tmp_path / "m")])

    def test_out_resume_conflict_errors(self, tmp_path, capsys):
        assert main(["sweep", "--threads", "2",
                     "--out", str(tmp_path / "a"),
                     "--resume", str(tmp_path / "b")]) == 1
        assert "conflicts" in capsys.readouterr().err
