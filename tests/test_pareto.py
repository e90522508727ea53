"""Pareto / recommendation utilities (the Section 5.2 walk, mechanized)."""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cost import CostParams, scheme_cost
from repro.eval.pareto import (
    DesignPoint,
    _dedupe_ties,
    design_points,
    frontier_neighborhood,
    named_scheme_cost,
    pareto_frontier,
    recommend,
)
from repro.eval.sweep import enumerate_candidates, enumerate_names
from repro.merge import get_scheme

#: full-scale fig10 averages (results/fig10.json) - fixed inputs keep
#: these tests fast and deterministic.
AVG_IPC = {
    "1S": 3.34,
    "2CC": 3.80,
    "C4,3CCC": 3.92,
    "2SC": 4.43,
    "2SC3,3SCC": 4.57,
    "3CSC": 4.78,
    "2C3S,3CCS": 4.79,
    "2CS": 4.92,
    "3SSC": 5.15,
    "3SCS": 5.19,
    "3CSS": 5.34,
    "2SS": 5.41,
    "3SSS": 5.58,
}


@pytest.fixture(scope="module")
def points():
    return design_points(AVG_IPC)


class TestDesignPoints:
    def test_all_schemes_joined(self, points):
        assert len(points) == 16  # 15 + 1S

    def test_grouped_labels_flatten(self, points):
        by = {p.scheme: p for p in points}
        assert by["C4"].ipc == by["3CCC"].ipc == 3.92
        assert by["C4"].transistors != by["3CCC"].transistors

    def test_dominance(self):
        a = DesignPoint("a", 5.0, 100, 10)
        b = DesignPoint("b", 4.0, 200, 12)
        assert a.dominates(b)
        assert not b.dominates(a)

    def test_no_self_dominance(self):
        a = DesignPoint("a", 5.0, 100, 10)
        assert not a.dominates(DesignPoint("b", 5.0, 100, 10))


class TestFrontier:
    def test_frontier_is_non_dominated(self, points):
        front = pareto_frontier(points)
        for p in front:
            assert not any(q.dominates(p) for q in points)

    def test_paper_sweet_spots_on_frontier(self, points):
        names = {p.scheme for p in pareto_frontier(points)}
        # Section 5.2: 3CCC/2CC if even 1S is unaffordable; 2SC3/3SCC at
        # 1S cost; 3SSS for peak performance
        assert "2SC3" in names or "3SCC" in names
        assert "3SSS" in names
        assert names & {"2CC", "3CCC", "C4"}

    def test_dominated_trees_off_frontier(self, points):
        names = {p.scheme for p in pareto_frontier(points)}
        # 2SC: two SMT blocks for less IPC than cheaper 3CSC/2CS
        assert "2SC" not in names

    def test_sorted_by_cost(self, points):
        front = pareto_frontier(points)
        costs = [p.transistors for p in front]
        assert costs == sorted(costs)


class TestTieDedup:
    def test_exact_duplicates_fold_to_lexicographic_first(self):
        tied = [DesignPoint("b", 5.0, 100, 10),
                DesignPoint("a", 5.0, 100, 10),
                DesignPoint("c", 5.0, 100, 10)]
        front = pareto_frontier(tied)
        assert len(front) == 1
        assert front[0].scheme == "a"
        assert front[0].aliases == ("b", "c")

    def test_distinct_coordinates_not_folded(self):
        points = [DesignPoint("a", 5.0, 100, 10),
                  DesignPoint("b", 6.0, 200, 10)]
        front = pareto_frontier(points)
        assert {p.scheme for p in front} == {"a", "b"}
        assert all(p.aliases == () for p in front)

    def test_dominated_duplicates_drop_together(self):
        points = [DesignPoint("a", 5.0, 100, 10),
                  DesignPoint("x", 4.0, 200, 12),
                  DesignPoint("y", 4.0, 200, 12)]
        front = pareto_frontier(points)
        assert [p.scheme for p in front] == ["a"]

    def test_aliases_excluded_from_equality(self):
        plain = DesignPoint("a", 5.0, 100, 10)
        folded = DesignPoint("a", 5.0, 100, 10, aliases=("b",))
        assert plain == folded
        assert plain in pareto_frontier([plain, DesignPoint("b", 5.0, 100,
                                                            10)])


#: arbitrary design planes; tight value ranges force frequent ties and
#: duplicates, the edge cases dominance reasoning gets wrong.
_POINTS = st.lists(
    st.builds(
        DesignPoint,
        scheme=st.sampled_from([f"s{i}" for i in range(6)]),
        ipc=st.floats(min_value=0.0, max_value=8.0, allow_nan=False,
                      allow_infinity=False),
        transistors=st.integers(min_value=0, max_value=50),
        gate_delays=st.integers(min_value=0, max_value=10),
    ),
    min_size=1, max_size=32,
)

_BUDGET = st.one_of(st.none(), st.integers(min_value=0, max_value=60))


def _coords(p):
    return (p.ipc, p.transistors, p.gate_delays)


class TestFrontierProperties:
    @given(points=_POINTS)
    def test_frontier_contains_no_dominated_point(self, points):
        front = pareto_frontier(points)
        for p in front:
            assert not any(q.dominates(p) for q in points)

    @given(points=_POINTS)
    def test_every_off_frontier_point_is_dominated_or_folded(self, points):
        """Completeness: whatever the fast scan dropped really is
        dominated by some frontier member — or is an exact coordinate
        tie folded into one (recorded among its aliases)."""
        front = pareto_frontier(points)
        for p in points:
            if p in front:
                continue
            twin = next((q for q in front if _coords(q) == _coords(p)), None)
            if twin is not None:
                assert twin.scheme < p.scheme
                assert p.scheme in twin.aliases
            else:
                assert any(q.dominates(p) for q in front), p

    @given(points=_POINTS)
    def test_matches_naive_all_pairs_frontier(self, points):
        """The fast scan equals the naive frontier after the same tie
        dedup: one representative (lexicographically-first scheme) per
        exact coordinate."""
        naive = [p for p in points
                 if not any(q.dominates(p) for q in points)]
        deduped = {}
        for p in naive:
            best = deduped.get(_coords(p))
            if best is None or p.scheme < best.scheme:
                deduped[_coords(p)] = p
        assert sorted(pareto_frontier(points),
                      key=lambda p: (p.transistors, -p.ipc, p.gate_delays,
                                     p.scheme)) \
            == sorted(deduped.values(),
                      key=lambda p: (p.transistors, -p.ipc, p.gate_delays,
                                     p.scheme))

    @given(points=_POINTS)
    def test_aliases_cover_every_folded_tie(self, points):
        """Every input scheme appears on the frontier, among some
        frontier member's aliases, or is dominated."""
        front = pareto_frontier(points)
        reachable = {p.scheme for p in front}
        reachable.update(a for p in front for a in p.aliases)
        for p in points:
            if p.scheme not in reachable:
                assert any(q.dominates(p) for q in front), p

    @given(points=_POINTS)
    def test_frontier_is_idempotent(self, points):
        """Re-running the frontier over itself changes nothing (the tie
        dedup folds aliases without losing them)."""
        front = pareto_frontier(points)
        again = pareto_frontier(front)
        assert again == front
        assert [p.aliases for p in again] == [p.aliases for p in front]


def _front_scan(points):
    """The frontier by checking each point, in (transistors,
    gate_delays, -ipc) order, against every frontier member so far."""
    ordered = sorted(_dedupe_ties(points),
                     key=lambda p: (p.transistors, p.gate_delays, -p.ipc))
    front = []
    for p in ordered:
        if not any(q.dominates(p) for q in front):
            front.append(p)
    return sorted(front, key=lambda p: (p.transistors, -p.ipc))


#: planes with NaN, infinite and negative IPCs and few distinct
#: coordinates, so equal-(transistors, ipc) points are common.
_ODD_POINTS = st.lists(
    st.builds(
        DesignPoint,
        scheme=st.sampled_from([f"s{i}" for i in range(6)]),
        ipc=st.one_of(st.sampled_from([float("nan"), -1.0, -0.0, 0.0,
                                       2.0, float("-inf")]),
                      st.floats()),
        transistors=st.integers(min_value=0, max_value=4),
        gate_delays=st.integers(min_value=0, max_value=3),
    ),
    min_size=1, max_size=24,
)


class TestFrontierEqualsFrontScan:
    @given(points=st.one_of(_POINTS, _ODD_POINTS))
    def test_same_list_order_and_aliases(self, points):
        """The prefix-max sweep returns what the front scan returns,
        and never calls ``DesignPoint.dominates``."""
        want = _front_scan(points)
        with mock.patch.object(DesignPoint, "dominates",
                               side_effect=AssertionError("called")):
            got = pareto_frontier(points)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.scheme, g.transistors, g.gate_delays, g.aliases) \
                == (w.scheme, w.transistors, w.gate_delays, w.aliases)
            assert g.ipc is w.ipc or g.ipc == w.ipc

    def test_nan_and_negative_ipc(self):
        nan = DesignPoint("n", float("nan"), 5, 1)
        low = DesignPoint("l", -2.0, 1, 1)
        worse = DesignPoint("w", -3.0, 5, 2)
        tied = DesignPoint("t", -2.0, 1, 0)
        front = pareto_frontier([nan, low, worse, tied])
        # a NaN IPC neither dominates nor is dominated; an equal-IPC
        # point with fewer gate delays dominates ``low``
        assert [p.scheme for p in front] == ["t", "n"]
        assert [p.scheme for p in _front_scan([nan, low, worse, tied])] \
            == ["t", "n"]


#: the eps values the guided search uses (0.05 is its default), plus
#: arbitrary non-negative ones, infinity included.
_EPS = st.one_of(st.just(0.0), st.just(0.05),
                 st.floats(min_value=0.0, allow_nan=False))


def _naive_neighborhood(points, eps):
    """The eps-neighborhood by comparing every pair of deduplicated
    points."""
    deduped = _dedupe_ties(points)
    out = [p for p in deduped
           if not any(q.transistors <= p.transistors
                      and q.gate_delays <= p.gate_delays
                      and q.ipc > p.ipc * (1 + eps)
                      for q in deduped if q is not p)]
    return sorted(out, key=lambda p: (p.transistors, -p.ipc))


def _with_aliases(points):
    return [(p, p.aliases) for p in points]


class TestNeighborhoodProperties:
    @given(points=_POINTS, eps=_EPS)
    def test_matches_naive_all_pairs_neighborhood(self, points, eps):
        """Same members, same order, same aliases as all pairs."""
        assert _with_aliases(frontier_neighborhood(points, eps)) \
            == _with_aliases(_naive_neighborhood(points, eps))

    @given(points=_POINTS, eps=_EPS)
    def test_contains_the_frontier(self, points, eps):
        hood = frontier_neighborhood(points, eps)
        assert all(p in hood for p in pareto_frontier(points))

    def test_negative_eps_is_refused(self, points):
        with pytest.raises(ValueError, match="eps must be >= 0"):
            frontier_neighborhood(points, -0.01)

    def test_negative_ipc_does_not_dominate_itself(self):
        """``-1.0 > -1.0 * 1.5``: the sweep's prefix max holds the point
        itself, which must not count as its own dominator."""
        alone = DesignPoint("a", -1.0, 10, 1)
        assert frontier_neighborhood([alone], 0.5) == [alone]
        beaten = DesignPoint("b", -1.2, 5, 1)
        assert frontier_neighborhood([alone, beaten], 0.5) == [beaten]


class TestNamedSchemeCost:
    @pytest.mark.parametrize("m_clusters", [2, 4, 8])
    @pytest.mark.parametrize("params", [None, CostParams.fit()],
                             ids=["default", "fitted"])
    def test_memo_equals_a_fresh_walk(self, m_clusters, params):
        fresh_params = CostParams() if params is None else params
        for name in enumerate_names(8):
            fresh = scheme_cost(get_scheme(name), m_clusters, fresh_params)
            memo = named_scheme_cost(name, m_clusters, params)
            assert (memo.transistors, memo.gate_delays) \
                == (fresh.transistors, fresh.gate_delays), name
            assert memo == fresh

    def test_one_entry_per_name_and_params(self):
        memo = named_scheme_cost("2SC3")
        assert named_scheme_cost("2sc3", 4, CostParams()) is memo
        assert named_scheme_cost("2SC3", 4, CostParams.fit()) != memo

    def test_semantic_groups_do_not_share_a_cost(self):
        """Members of one semantic group simulate alike but can differ
        in hardware, so a cost memo keyed by semantics would be wrong."""
        mixed = [g for g in enumerate_candidates(8)
                 if len({(named_scheme_cost(m).transistors,
                          named_scheme_cost(m).gate_delays)
                         for m in g.members}) > 1]
        assert mixed


class TestRecommendProperties:
    @given(points=_POINTS, max_t=_BUDGET, max_d=_BUDGET)
    def test_recommendation_on_frontier_and_within_budget(
            self, points, max_t, max_d):
        pick = recommend(points, max_transistors=max_t,
                         max_gate_delays=max_d)
        if pick is None:
            assert not [
                p for p in points
                if (max_t is None or p.transistors <= max_t)
                and (max_d is None or p.gate_delays <= max_d)
            ]
            return
        assert max_t is None or pick.transistors <= max_t
        assert max_d is None or pick.gate_delays <= max_d
        assert pick in pareto_frontier(points)

    @given(points=_POINTS, max_t=_BUDGET, max_d=_BUDGET)
    def test_recommendation_is_best_feasible_ipc(self, points, max_t, max_d):
        pick = recommend(points, max_transistors=max_t,
                         max_gate_delays=max_d)
        if pick is None:
            return
        feasible = [
            p for p in points
            if (max_t is None or p.transistors <= max_t)
            and (max_d is None or p.gate_delays <= max_d)
        ]
        assert pick.ipc == max(p.ipc for p in feasible)


class TestRecommend:
    def test_unlimited_budget_gives_3sss(self, points):
        assert recommend(points).scheme == "3SSS"

    def test_1s_budget_gives_2sc3_class(self, points):
        by = {p.scheme: p for p in points}
        budget = round(by["1S"].transistors * 1.1)
        pick = recommend(points, max_transistors=budget)
        assert pick.scheme in ("2SC3", "3SCC")
        assert pick.ipc > by["1S"].ipc

    def test_tiny_budget_gives_pure_csmt(self, points):
        pick = recommend(points, max_transistors=1_000)
        assert pick.scheme in ("C4", "3CCC", "2CC")

    def test_delay_budget(self, points):
        pick = recommend(points, max_gate_delays=14)
        assert pick.scheme in ("2SC3", "2SC", "1S")
        assert pick.ipc >= 4.4

    def test_impossible_budget(self, points):
        assert recommend(points, max_transistors=10) is None

    def test_combined_budget(self, points):
        pick = recommend(points, max_transistors=5_000, max_gate_delays=20)
        assert pick.scheme in ("2SC3", "3SCC")
