"""Scheme AST semantics: priority, pass-through, commit losses,
parallel/serial functional equivalence, the plan's walk equivalence."""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch import paper_machine
from repro.merge import PAPER_SCHEMES, get_scheme
from repro.merge.packet import ExecPacket, MergeRules
from repro.merge.scheme import DispatchTable, Leaf, Node, ParCsmt, Scheme
from repro.sim.cache import PerfectCache
from repro.sim.core import MTCore
from tests.conftest import mop_from_counts, packet

MACHINE = paper_machine()
RULES = MergeRules(MACHINE)
TREES = ("2CC", "2CS", "2SC", "2SS")


def _narrow(port, cluster=0):
    return packet(MACHINE, {cluster: (1, 0, 0, 0)}, port)


def _full(port):
    return packet(MACHINE, {c: (4, 0, 0, 0) for c in range(4)}, port)


class TestNodeSemantics:
    def test_pass_through_left_none(self):
        n = Node("C", Leaf(0), Leaf(1))
        p = _narrow(1)
        assert n.eval([None, p], RULES) is p

    def test_pass_through_right_none(self):
        n = Node("S", Leaf(0), Leaf(1))
        p = _narrow(0)
        assert n.eval([p, None], RULES) is p

    def test_all_none(self):
        n = Node("S", Leaf(0), Leaf(1))
        assert n.eval([None, None], RULES) is None

    def test_merge_failure_keeps_left(self):
        n = Node("C", Leaf(0), Leaf(1))
        a, b = _narrow(0, 0), _narrow(1, 0)  # same cluster
        out = n.eval([a, b], RULES)
        assert out is a

    def test_merge_success_combines(self):
        n = Node("C", Leaf(0), Leaf(1))
        a, b = _narrow(0, 0), _narrow(1, 1)
        out = n.eval([a, b], RULES)
        assert out.ports == (0, 1)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            Node("X", Leaf(0), Leaf(1))

    def test_parc_needs_two_children(self):
        with pytest.raises(ValueError):
            ParCsmt([Leaf(0)])


class TestSchemeValidation:
    def test_ports_must_be_dense(self):
        with pytest.raises(ValueError):
            Scheme("bad", Node("S", Leaf(0), Leaf(2)))

    def test_ports_must_be_unique(self):
        with pytest.raises(ValueError):
            Scheme("bad", Node("S", Leaf(0), Leaf(0)))

    def test_count_blocks(self):
        s = get_scheme("3SCC")
        assert s.count_blocks() == {"S": 1, "C": 2, "parC": 0}
        s = get_scheme("2SC3")
        assert s.count_blocks() == {"S": 1, "C": 0, "parC": 1}


class TestTreeCommitLoss:
    """Section 4.1: a tree pair-node commits to its merged output even
    when that loses a merge a cascade would have found."""

    def test_2cc_loses_vs_3ccc(self):
        # T0 uses clusters {0,1}; T1 stalled; T2 {2}, T3 {3}:
        # pair(T2,T3) -> {2,3}; root merges with T0 -> all four issue.
        # But when T2 uses {1,2}: pair(T2,T3) = {1,2,3} conflicts with T0,
        # so the tree issues only T0... while the cascade merges T0+T3.
        t0 = packet(MACHINE, {0: (1, 0, 0, 0), 1: (1, 0, 0, 0)}, 0)
        t2 = packet(MACHINE, {1: (1, 0, 0, 0), 2: (1, 0, 0, 0)}, 2)
        t3 = packet(MACHINE, {3: (1, 0, 0, 0)}, 3)
        ports = [t0, None, t2, t3]
        tree = get_scheme("2CC").select(ports, RULES)
        cascade = get_scheme("3CCC").select(ports, RULES)
        assert tree.ports == (0,)           # committed pair blocked it
        assert set(cascade.ports) == {0, 3}  # cascade still adds T3

    def test_2sc_root_needs_disjoint_merged_pairs(self):
        # both pairs SMT-merge fine, but the merged pairs overlap on
        # cluster 0, so the C root issues only the left pair: the reason
        # 2SC performs barely better than 1S (Section 5.2)
        t = [_narrow(p, 0) for p in range(4)]
        out = get_scheme("2SC").select(t, RULES)
        assert set(out.ports) == {0, 1}


class TestFunctionalEquivalence:
    """Parallel CSMT blocks select exactly like their serial cascades
    (paper Section 3: 'functionally equivalent')."""

    @staticmethod
    @st.composite
    def port_sets(draw):
        ports = []
        for p in range(4):
            if draw(st.booleans()):
                ports.append(None)
                continue
            clusters = {}
            for c in range(4):
                if draw(st.booleans()):
                    clusters[c] = (draw(st.integers(1, 2)), 0, 0, 0)
            if not clusters:
                clusters = {draw(st.integers(0, 3)): (1, 0, 0, 0)}
            ports.append(packet(MACHINE, clusters, p))
        return ports

    @given(port_sets())
    def test_c4_equals_3ccc(self, ports):
        a = get_scheme("C4").select(ports, RULES)
        b = get_scheme("3CCC").select(ports, RULES)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.ports == b.ports

    @given(port_sets())
    def test_2sc3_equals_3scc(self, ports):
        a = get_scheme("2SC3").select(ports, RULES)
        b = get_scheme("3SCC").select(ports, RULES)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.ports == b.ports

    @given(port_sets())
    def test_2c3s_equals_3ccs(self, ports):
        a = get_scheme("2C3S").select(ports, RULES)
        b = get_scheme("3CCS").select(ports, RULES)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.ports == b.ports

    @given(port_sets())
    def test_selection_always_includes_leading_valid_port(self, ports):
        """The highest-priority ready thread always issues under any
        cascade scheme (no starvation within a cycle)."""
        for name in ("3SSS", "3CCC", "3SCC", "C4"):
            out = get_scheme(name).select(ports, RULES)
            first = next((i for i, p in enumerate(ports) if p is not None),
                         None)
            if first is None:
                assert out is None
            else:
                assert first in out.ports

    @given(port_sets())
    def test_selected_set_is_pairwise_mergeable(self, ports):
        """Whatever a scheme selects must satisfy the machine caps: the
        final packet is a legal VLIW issue group."""
        from repro.isa import high_mask, pack_caps, packed_fits

        high = high_mask(4)
        caps_high = pack_caps(MACHINE.caps, 4) | high
        for name in ("3SSS", "3CCC", "2CS", "2SC", "C4", "2SC3"):
            out = get_scheme(name).select(ports, RULES)
            if out is not None:
                assert packed_fits(out.packed, caps_high, high)

    @given(port_sets())
    def test_csmt_scheme_output_is_cluster_disjoint(self, ports):
        """Pure-CSMT selections must use each cluster at most once: the
        merged mask's popcount equals the sum of the members'."""
        out = get_scheme("3CCC").select(ports, RULES)
        if out is None:
            return
        member_bits = sum(
            bin(p.mask).count("1")
            for i, p in enumerate(ports)
            if p is not None and i in out.ports
        )
        assert bin(out.mask).count("1") == member_bits


def _random_parc_scheme(draw):
    """A random scheme whose root is a parallel CSMT over 2-4 children
    (leaves or S-pairs), covering ports densely."""
    shapes = draw(st.sampled_from([
        (1, 1), (1, 1, 1), (1, 1, 1, 1), (2, 1), (1, 2), (2, 2),
        (2, 1, 1), (1, 1, 2),
    ]))
    port = 0
    children = []
    for width in shapes:
        if width == 1:
            children.append(Leaf(port))
            port += 1
        else:
            children.append(Node("S", Leaf(port), Leaf(port + 1)))
            port += 2
    return ParCsmt(children), port


def _left_deep_cascade(children):
    """The serial-cascade equivalent of a parallel CSMT block."""
    acc = children[0]
    for ch in children[1:]:
        acc = Node("C", acc, ch)
    return acc


def _ports_for(draw, n_ports):
    ports = []
    for p in range(n_ports):
        if draw(st.booleans()):
            ports.append(None)
            continue
        clusters = {}
        for c in range(4):
            if draw(st.booleans()):
                clusters[c] = (draw(st.integers(1, 2)), 0, 0, 0)
        if not clusters:
            clusters = {draw(st.integers(0, 3)): (1, 0, 0, 0)}
        ports.append(packet(MACHINE, clusters, p))
    return ports


class TestParallelSerialProperty:
    """Satellite property: ANY parallel CSMT block selects identically
    to its equivalent left-deep C cascade on random packet sets."""

    @staticmethod
    @st.composite
    def parc_case(draw):
        root, n_ports = _random_parc_scheme(draw)
        return root, _ports_for(draw, n_ports)

    @given(parc_case())
    def test_parc_equals_left_deep_cascade(self, case):
        root, ports = case
        cascade = _left_deep_cascade(root.children)
        a = root.eval(ports, RULES)
        b = cascade.eval(ports, RULES)
        assert (a is None) == (b is None)
        if a is not None:
            assert (a.mask, a.packed, a.n_ops, a.ports) == \
                (b.mask, b.packed, b.n_ops, b.ports)


def _walk_schemes():
    """Half the draws from every scheme the sweeps name at 2..8 threads,
    half from the balanced trees, ``ST``, ``1S`` and a 16-port cascade
    of mixed joints."""
    from repro.eval.sweep import enumerate_names
    from repro.merge.parser import parse_scheme

    names = [name for n in range(2, 9) for name in enumerate_names(n)]
    few = ["ST", "1S", *TREES, parse_scheme("15" + "SC" * 7 + "S")]
    return st.one_of(st.sampled_from(names), st.sampled_from(few))


class _IssueLog:
    """A data cache that always hits and logs the addresses it sees."""

    miss_penalty = 0

    def __init__(self):
        self.order = []

    def access(self, addr: int) -> bool:
        self.order.append(addr)
        return True


def _walk(scheme, mops) -> tuple | None:
    """Run the fast engine's walk for one cycle with ``mops[p]`` pending
    on port ``p`` (``None``: the port's thread is stalled) and return
    the ports it issued, in issue order: each pending record touches the
    data cache once, at its port's number."""
    log = _IssueLog()
    core = MTCore(MACHINE, scheme, PerfectCache(), log, engine="fast")
    threads = []
    for p, mop in enumerate(mops):
        ready = mop is not None
        threads.append(SimpleNamespace(
            stream=SimpleNamespace(_buf=[], _pos=0), packet=None,
            pending=(mop, False, (p,), None) if ready else None,
            stall_until=0 if ready else 1, issued_instrs=0, issued_ops=0,
            icache_misses=0, dcache_misses=0, taken_branches=0))
    core.set_contexts(threads)
    core.run(1)
    return tuple(log.order) or None


class TestCompiledPlanProperty:
    """Satellite property: the fast engine's walk over the ready ports
    must issue exactly the ports ``root.eval`` merges, in its order, on
    random ready subsets and words."""

    @staticmethod
    def _draw_mops(draw, n_ports, ready=None):
        """A random word on each port; ``ready`` (default: a coin per
        port) names the ports that have one."""
        mops = []
        for p in range(n_ports):
            clusters = draw(st.dictionaries(
                st.integers(0, 3), st.tuples(
                    st.integers(0, 3), st.integers(0, 1), st.just(0),
                    st.just(0)), min_size=ready is not None, max_size=4))
            if ready is None:
                on = draw(st.booleans())
            else:
                on = p in ready
                if on and not any(map(any, clusters.values())):
                    clusters = {0: (1, 0, 0, 0)}
            on = on and any(map(any, clusters.values()))
            mops.append(mop_from_counts(MACHINE, clusters) if on else None)
        return mops

    @staticmethod
    @st.composite
    def walk_case(draw):
        scheme = draw(_walk_schemes())
        if isinstance(scheme, str):
            scheme = get_scheme(scheme)
        return scheme, TestCompiledPlanProperty._draw_mops(
            draw, scheme.n_ports)

    @staticmethod
    @st.composite
    def registry_case(draw):
        scheme = get_scheme(draw(st.sampled_from(["ST", "1S"]
                                                 + PAPER_SCHEMES)))
        return scheme, TestCompiledPlanProperty._draw_mops(
            draw, scheme.n_ports)

    @staticmethod
    @st.composite
    def pair_case(draw):
        """A registry scheme with exactly two ready ports."""
        scheme = get_scheme(draw(st.sampled_from(PAPER_SCHEMES)))
        ready = draw(st.sets(st.integers(0, scheme.n_ports - 1),
                             min_size=2, max_size=2))
        return scheme, TestCompiledPlanProperty._draw_mops(
            draw, scheme.n_ports, ready)

    @staticmethod
    def _assert_walk_matches_eval(scheme, mops):
        ports = [None if m is None else ExecPacket.from_mop(m, p)
                 for p, m in enumerate(mops)]
        expect = scheme.root.eval(ports, RULES)
        assert _walk(scheme, mops) == (None if expect is None
                                       else expect.ports)

    @given(walk_case())
    def test_walk_matches_eval(self, case):
        self._assert_walk_matches_eval(*case)

    @given(registry_case())
    def test_specialized_function_matches_eval(self, case):
        """The plan each registry scheme compiles to issues what
        ``root.eval`` merges."""
        self._assert_walk_matches_eval(*case)

    @given(pair_case())
    def test_pair_table_matches_eval(self, case):
        """Cycles with exactly two ready ports, for every registry
        scheme: both merge kinds at every joint a pair can meet."""
        scheme, mops = case
        assert sum(m is not None for m in mops) == 2
        self._assert_walk_matches_eval(scheme, mops)

    @pytest.mark.parametrize("name", TREES)
    def test_tree_walk_matches_eval_on_every_word_pattern(self, name):
        """Every pattern of a few words over a tree's four ports: the
        root takes the right pair's whole word or none of it, so a
        right-pair port must not issue before that test."""
        import itertools

        scheme = get_scheme(name)
        pool = [None] + [mop_from_counts(MACHINE, c) for c in (
            {0: (1, 0, 0, 0)}, {0: (3, 0, 0, 0)}, {1: (2, 0, 0, 0)},
            {0: (2, 0, 0, 0), 1: (2, 0, 0, 0)}, {1: (0, 1, 0, 0)})]
        for mops in itertools.product(pool, repeat=4):
            ports = [None if m is None else ExecPacket.from_mop(m, p)
                     for p, m in enumerate(mops)]
            expect = scheme.root.eval(ports, RULES)
            assert _walk(scheme, mops) == (None if expect is None
                                           else expect.ports), mops

    @pytest.mark.parametrize("root", [
        Node("S", Leaf(1), Leaf(0)),
        ParCsmt([Leaf(0), Node("S", Leaf(1), Leaf(2)), Leaf(3)]),
        Node("C", Node("S", Leaf(0), Node("C", Leaf(1), Leaf(2))),
             Leaf(3)),
    ])
    def test_shapes_without_a_walk_are_refused(self, root):
        with pytest.raises(ValueError, match="no walk"):
            Scheme("odd", root).compile(RULES)

    def test_plan_cached_per_rules(self):
        scheme = get_scheme("2SC3")
        assert scheme.compile(RULES) is scheme.compile(RULES)
        assert scheme.compile(MergeRules(MACHINE)) is scheme.compile(RULES)


def _dispatch_schemes() -> list:
    """Every rotation schedule: a cyclic one for 1..8 ports (a few
    cascade shapes each) and the wired balanced trees."""
    from repro.eval.sweep import enumerate_names

    names = ["ST"]
    for n in range(2, 9):
        enum = enumerate_names(n)
        names += sorted({enum[0], enum[len(enum) // 2], enum[-2]})
    return names + ["2CC", "2CS", "2SC", "2SS"]


class TestDispatchTable:
    """The ready-mask dispatch table against a brute-force port scan."""

    @pytest.mark.parametrize("name", _dispatch_schemes())
    def test_every_rotation_and_mask_matches_scan(self, name):
        scheme = get_scheme(name)
        perms = scheme.port_permutations()
        assert scheme.dispatch().perms is perms
        n = scheme.n_ports
        table = DispatchTable(perms)
        for rot, perm in enumerate(perms):
            for mask in range(1, 1 << n):
                # brute force: scan the ports in order, keep the ones
                # whose bound context is ready
                ports = tuple(p for p in range(n) if mask & (1 << perm[p]))
                entry = table[(rot << n) | mask]
                assert entry == table.entry(rot, mask)
                assert entry == (len(ports), perm, ports)
                assert entry[1] is perm
        assert len(table) == len(perms) * ((1 << n) - 1)

    def test_schemes_share_one_table_per_rotation_schedule(self):
        assert get_scheme("3CCC").dispatch() is get_scheme("3SSS").dispatch()
        assert get_scheme("2SS").dispatch() is get_scheme("2CC").dispatch()
        assert get_scheme("2SS").dispatch() is not \
            get_scheme("3SSS").dispatch()

    def test_table_fills_on_demand(self):
        """A 16-port table starts empty: entries appear only on lookup."""
        scheme = Scheme("cascade16", _left_deep_cascade(
            [Leaf(p) for p in range(16)]))
        table = scheme.dispatch()
        table.clear()
        entry = table[(3 << 16) | 0b1011]
        assert entry[0] == 3 and len(table) == 1
