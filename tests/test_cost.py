"""Cost-model tests: every calibration fact from DESIGN.md (C1-C8)."""

import pytest

from repro.cost import (
    PAPER_COST_POINTS,
    csmt_parallel,
    csmt_serial,
    scheme_cost,
    smt_serial,
)
from repro.cost.gates import CostParams, GateLib, clog2, or_tree
from repro.merge import PAPER_SCHEMES, get_scheme


def _sc(name):
    return scheme_cost(get_scheme(name))


class TestGateLib:
    def test_clog2(self):
        assert clog2(1) == 0
        assert clog2(2) == 1
        assert clog2(5) == 3

    def test_or_tree(self):
        lib = GateLib()
        assert or_tree(lib, 1) == (0, 0)
        assert or_tree(lib, 4) == (18, 2)

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError):
            csmt_serial(1)
        with pytest.raises(ValueError):
            smt_serial(0)


class TestFig5Shapes:
    """C1-C3 of DESIGN.md."""

    def test_csmt_serial_linear_growth(self):
        t = [csmt_serial(n).transistors for n in range(2, 9)]
        diffs = [b - a for a, b in zip(t, t[1:])]
        assert max(diffs) - min(diffs) <= 10  # near-constant increments

    def test_csmt_parallel_exponential_growth(self):
        t = [csmt_parallel(n).transistors for n in range(3, 9)]
        ratios = [b / a for a, b in zip(t, t[1:])]
        assert all(r > 1.9 for r in ratios)

    def test_smt_linear_with_large_constant(self):
        smt2 = smt_serial(2).transistors
        csmt2 = csmt_serial(2).transistors
        assert smt2 > 20 * csmt2  # the paper's "substantially higher"
        t = [smt_serial(n).transistors for n in range(2, 9)]
        diffs = [b - a for a, b in zip(t, t[1:])]
        assert max(diffs) < 1.5 * min(diffs)

    def test_parallel_crosses_smt_between_5_and_8(self):
        crossings = [n for n in range(5, 9)
                     if csmt_parallel(n).transistors >
                     smt_serial(n).transistors]
        assert crossings  # crossover exists
        assert min(crossings) >= 6  # not before 6 threads
        assert csmt_parallel(4).transistors < smt_serial(4).transistors
        assert csmt_parallel(8).transistors > smt_serial(8).transistors

    def test_every_curve_point_positive(self):
        for fn in (csmt_serial, csmt_parallel, smt_serial):
            assert all(fn(n).transistors > 0 for n in range(2, 9)), fn

    def test_csmt_delays_far_below_smt(self):
        for n in range(2, 9):
            assert csmt_serial(n).gate_delays < smt_serial(n).gate_delays
            assert csmt_parallel(n).gate_delays < smt_serial(n).gate_delays

    def test_parallel_delay_flat(self):
        d = [csmt_parallel(n).gate_delays for n in range(2, 9)]
        assert d[-1] <= d[0] + 8

    def test_parallel_equals_serial_at_two_threads(self):
        assert csmt_parallel(2).transistors == csmt_serial(2).transistors
        assert csmt_parallel(2).gate_delays == csmt_serial(2).gate_delays


class TestFig9Transistors:
    """C4, C5, C8."""

    def test_pure_csmt_cheapest(self):
        pure = {n for n in PAPER_SCHEMES
                if get_scheme(n).count_blocks()["S"] == 0}
        dear = min(_sc(n).transistors for n in PAPER_SCHEMES if n not in pure)
        for n in pure:
            assert _sc(n).transistors < dear / 3
            assert _sc(n).transistors < _sc("1S").transistors / 3

    def test_single_smt_block_near_1s(self):
        """'little difference' between 1S and single-S schemes."""
        base = _sc("1S").transistors
        for name in ("3SCC", "3CSC", "3CCS", "2SC3", "2C3S", "2CS"):
            assert base <= _sc(name).transistors <= 1.25 * base, name

    def test_cost_ordered_by_smt_block_count(self):
        def bucket(names):
            return [_sc(n).transistors for n in names]

        singles = bucket(["3SCC", "3CSC", "3CCS", "2SC3", "2C3S", "2CS"])
        doubles = bucket(["2SC", "3SSC", "3SCS", "3CSS"])
        triples = bucket(["2SS", "3SSS"])
        assert max(singles) < min(doubles) < max(doubles) < min(triples)

    def test_3sss_and_2ss_most_expensive(self):
        costs = {n: _sc(n).transistors for n in PAPER_SCHEMES}
        top2 = sorted(costs, key=costs.get)[-2:]
        assert set(top2) == {"2SS", "3SSS"}
        assert costs["3SSS"] == max(*costs.values(), _sc("1S").transistors)
        # Figure 11: the last ~10% of IPC costs ~3x the transistors
        assert costs["3SSS"] > 2.5 * costs["2SC3"]
        for name in ("1S", "2SC3", "3SSS", "C4"):
            assert _sc(name).transistors > 0, name

    def test_block_counts_reported(self):
        c = _sc("2SC3")
        assert c.n_smt_blocks == 1 and c.n_csmt_blocks == 1


class TestFig9Delays:
    """C6, C7 - the Section 4.2 delay claims."""

    def test_2sc3_3scc_2sc_close_to_1s(self):
        base = _sc("1S").gate_delays
        for name in ("2SC3", "3SCC", "2SC"):
            assert abs(_sc(name).gate_delays - base) <= 2, name

    def test_late_smt_slower_than_early_smt(self):
        """3CSC and 3CCS exceed 3SCC/2SC3: routing cannot overlap."""
        early = max(_sc("3SCC").gate_delays, _sc("2SC3").gate_delays)
        assert _sc("3CSC").gate_delays > early
        assert _sc("3CCS").gate_delays > early

    def test_3ssc_fastest_double_smt(self):
        assert _sc("3SSC").gate_delays < _sc("3SCS").gate_delays
        assert _sc("3SSC").gate_delays < _sc("3CSS").gate_delays

    def test_3sss_slowest(self):
        worst = max(_sc(n).gate_delays for n in (*PAPER_SCHEMES, "1S")
                    if n != "3SSS")
        assert _sc("3SSS").gate_delays >= worst

    def test_pure_csmt_fastest(self):
        pure_max = max(_sc(n).gate_delays for n in ("C4", "3CCC", "2CC"))
        others = min(_sc(n).gate_delays for n in PAPER_SCHEMES
                     if n not in ("C4", "3CCC", "2CC"))
        assert pure_max <= others

    def test_c4_faster_than_serial_cascade(self):
        assert _sc("C4").gate_delays < _sc("3CCC").gate_delays


class TestParams:
    def test_custom_params_scale_costs(self):
        fat = CostParams(smt_routing_gen=2000)
        a = scheme_cost(get_scheme("1S"), params=fat)
        b = scheme_cost(get_scheme("1S"))
        assert a.transistors > b.transistors

    def test_cluster_count_scales_costs(self):
        a = scheme_cost(get_scheme("3CCC"), m_clusters=8)
        b = scheme_cost(get_scheme("3CCC"), m_clusters=4)
        assert a.transistors > b.transistors

    def test_as_row(self):
        name, t, d = _sc("1S").as_row()
        assert name == "1S" and t > 0 and d > 0


class TestFit:
    """``CostParams.fit``: regression over the Figure 5a anchors."""

    def test_pins_fitted_constants(self):
        """The default fit is deterministic; pin its output so any
        change to the anchors or the solver is a visible diff."""
        fitted = CostParams.fit()
        assert (fitted.smt_count_check,
                fitted.smt_routing_gen,
                fitted.smt_width_growth) == (159, 875, 60)

    def test_fit_confirms_stock_reconstruction(self):
        """Only s = count_check + routing_gen and width_growth are
        identifiable from Figure 5a; the regressed values must stay
        within a couple percent of the hand-calibrated constants."""
        stock, fitted = CostParams(), CostParams.fit()
        s_stock = stock.smt_count_check + stock.smt_routing_gen
        s_fit = fitted.smt_count_check + fitted.smt_routing_gen
        assert abs(s_fit - s_stock) <= 0.02 * s_stock
        assert fitted.smt_width_growth == stock.smt_width_growth

    def test_fitted_params_reproduce_anchors(self):
        fitted = CostParams.fit()
        for n, t in PAPER_COST_POINTS:
            model = smt_serial(n, params=fitted).transistors
            assert abs(model - t) <= 0.05 * t, (n, model, t)

    def test_base_carries_unfitted_constants(self):
        base = CostParams(smt_sel_delay=11, csmt_level_delay=7)
        fitted = CostParams.fit(base=base)
        assert fitted.smt_sel_delay == 11
        assert fitted.csmt_level_delay == 7
        assert fitted.smt_count_check == 159  # fit still ran

    def test_degenerate_anchor_sets_rejected(self):
        with pytest.raises(ValueError, match=">= 2 anchor"):
            CostParams.fit(points=[(4, 13_100)])
        with pytest.raises(ValueError, match=">= 2"):
            CostParams.fit(points=[(1, 100), (4, 13_100)])

    def test_degenerate_width_growth_rejected(self):
        """Anchors implying a flat or shrinking width-growth term would
        make the calibrated model non-monotone in thread count; the fit
        refuses instead of shipping it (m=4: s=1000 but wg < 0)."""
        with pytest.raises(ValueError, match="width-growth"):
            CostParams.fit(points=[(2, 4_000), (4, 11_000)])
        # a positive raw fit that *rounds* below 1 is just as degenerate
        with pytest.raises(ValueError, match="width-growth"):
            CostParams.fit(points=[(2, 4_000), (4, 12_004)])

    def test_single_thread_count_keeps_base_width_growth(self):
        """All anchors at one n make width_growth unobservable: the
        fit keeps the base value instead of dividing by zero."""
        fitted = CostParams.fit(points=[(4, 13_100), (4, 13_300)])
        assert fitted.smt_width_growth == CostParams().smt_width_growth
        assert fitted.smt_count_check + fitted.smt_routing_gen > 0
