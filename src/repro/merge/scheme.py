"""Merging-scheme ASTs and their per-cycle selection semantics.

A scheme is a tree over leaf ports ``P0..P(n-1)`` built from three node
kinds (paper, Section 4.1):

* ``Node('S', l, r)``  - a 2-input SMT merge-control block,
* ``Node('C', l, r)``  - a 2-input CSMT merge-control block,
* ``ParCsmt([c...])``  - a k-input *parallel* CSMT block (the paper's
  C3/C4 subscripts).  Functionally equivalent to the left-deep ``C``
  cascade of its inputs (paper, Section 3) - the difference is hardware
  cost, which :mod:`repro.cost` models.

Selection semantics per cycle: a node whose one input is invalid (thread
stalled / no instruction) passes the other through; with two valid inputs
it emits the merged packet on success, otherwise its **left** input - the
higher-priority side, which in a cascade carries the leading thread.
This models hardware that commits each level's decision and never
backtracks (the source of the tree schemes' loss the paper describes).
"""

from __future__ import annotations

from repro.merge.packet import ExecPacket, MergeRules

__all__ = ["DispatchTable", "Leaf", "Node", "ParCsmt", "Scheme", "SchemePlan"]


class SchemePlan:
    """A scheme's selection as one walk over its ports in port order.

    Merge blocks pass an invalid input through and keep their left
    (higher-priority) input when a merge fails, and a parallel CSMT
    block is its left-deep serial cascade (paper, Section 3).  So a
    cascade selects in one pass: the first ready port starts the word,
    and each later one joins it if its *joint* - the block where it
    meets the ports before it - accepts, and is dropped otherwise.  A
    balanced tree is two such chains, its wired pairs, whose words meet
    at the root.

    ``joints[p]`` is ``True`` when port ``p`` joins by the SMT rule
    (per-cluster operation sums within the caps, ``(caps_high -
    packed) & high == high``), ``False`` by the CSMT rule (disjoint
    cluster masks) and ``None`` when it starts a chain.  Ports
    ``split..n-1`` form a tree's right chain, merged into the left
    chain's word by the root's rule (``root_smt``); a cascade has
    ``split == n`` and ``root_smt is None``.  The fast engine walks the
    plan inline (property tests in ``tests/test_merge_scheme.py`` hold
    its selection equal to ``root.eval``).
    """

    __slots__ = ("joints", "split", "root_smt", "caps_high", "high")

    def __init__(self, joints: tuple, split: int, root_smt: bool | None,
                 rules: MergeRules):
        self.joints = joints
        self.split = split
        self.root_smt = root_smt
        self.caps_high = rules.caps_high
        self.high = rules.high


class DispatchTable(dict):
    """Ready-context dispatch under one rotation schedule, filled on demand.

    Keys are ``(rot << n) | mask``: ``rot`` indexes the rotation schedule
    (``perms[rot][p]`` is the context slot bound to port ``p``) and bit
    ``c`` of ``mask`` marks context slot ``c`` ready.  Each entry is a
    triple ``(k, perm, ready)``: the number of ready ports, the port
    binding of that rotation step, and the ready ports in port order -
    the order a :class:`SchemePlan` walks them in.

    Nothing in an entry depends on the merge tree, so every scheme with
    the same rotation schedule shares one table (:meth:`Scheme.dispatch`).
    An eager table would hold ``len(perms) * 2**n`` entries (about a
    million for the 16-port schemes the grammar accepts), so entries are
    built by :meth:`entry` on first lookup and the table only ever holds
    the ``(rot, mask)`` combinations simulations actually reached.
    """

    __slots__ = ("perms", "n")

    def __init__(self, perms: tuple):
        super().__init__()
        self.perms = perms
        self.n = len(perms[0])

    def __missing__(self, key: int) -> tuple:
        n = self.n
        entry = self[key] = self.entry(key >> n, key & ((1 << n) - 1))
        return entry

    def entry(self, rot: int, mask: int) -> tuple:
        """Build the entry for rotation step ``rot`` and ready ``mask``."""
        perm = self.perms[rot]
        ready = tuple(p for p, c in enumerate(perm) if mask >> c & 1)
        return (len(ready), perm, ready)


#: (port count, balanced tree?) -> the DispatchTable of that rotation
#: schedule, shared by every scheme using it.
_DISPATCH: dict = {}


def _chain(node, links: list) -> bool:
    """Append a left-deep chain's ``(port, joint)`` links in leaf order;
    False if ``node`` is no chain (a right input is itself a merge)."""
    if node.kind == "leaf":
        links.append((node.port, None))
        return True
    if node.kind == "node":
        head, tail = node.left, [(node.right, node.merge_kind == "S")]
    else:  # parallel CSMT == left-deep serial cascade (paper, Section 3)
        head, tail = node.children[0], [(c, False) for c in node.children[1:]]
    if not _chain(head, links) or any(c.kind != "leaf" for c, _ in tail):
        return False
    links += [(c.port, is_smt) for c, is_smt in tail]
    return True


class Leaf:
    """A thread input port."""

    __slots__ = ("port",)
    kind = "leaf"

    def __init__(self, port: int):
        self.port = port

    def eval(self, ports, rules):
        return ports[self.port]

    def leaves(self):
        return (self.port,)

    def __repr__(self) -> str:
        return f"P{self.port}"


class Node:
    """A 2-input merge block (kind 'S' or 'C')."""

    __slots__ = ("merge_kind", "left", "right")
    kind = "node"

    def __init__(self, merge_kind: str, left, right):
        if merge_kind not in ("S", "C"):
            raise ValueError(f"merge kind must be 'S' or 'C', got {merge_kind!r}")
        self.merge_kind = merge_kind
        self.left = left
        self.right = right

    def eval(self, ports, rules: MergeRules):
        a = self.left.eval(ports, rules)
        b = self.right.eval(ports, rules)
        if a is None:
            return b
        if b is None:
            return a
        merged = rules.try_merge(self.merge_kind, a, b)
        return merged if merged is not None else a

    def leaves(self):
        return self.left.leaves() + self.right.leaves()

    def __repr__(self) -> str:
        return f"{self.merge_kind}({self.left!r},{self.right!r})"


class ParCsmt:
    """A k-input parallel CSMT block (functionally a left-deep C cascade)."""

    __slots__ = ("children",)
    kind = "parc"

    def __init__(self, children):
        if len(children) < 2:
            raise ValueError("parallel CSMT block needs >= 2 inputs")
        self.children = tuple(children)

    def eval(self, ports, rules: MergeRules):
        acc = None
        for ch in self.children:
            p = ch.eval(ports, rules)
            if p is None:
                continue
            if acc is None:
                acc = p
                continue
            merged = rules.try_csmt(acc, p)
            if merged is not None:
                acc = merged
        return acc

    def leaves(self):
        out = ()
        for ch in self.children:
            out += ch.leaves()
        return out

    @property
    def width(self) -> int:
        return len(self.children)

    def __repr__(self) -> str:
        return "C%d(%s)" % (len(self.children), ",".join(repr(c) for c in self.children))


class Scheme:
    """A named merging scheme bound to a port count.

    ``select`` is the per-cycle entry point: given one optional
    :class:`ExecPacket` per port it returns the packet that issues this
    cycle (or None when every thread is stalled).

    ``port_permutations`` gives the leading-thread rotation schedule the
    core cycles through for fairness.  Cascades rotate the thread-to-port
    binding freely (input order *is* priority).  Balanced trees are wired:
    pairs are fixed in silicon, so only structure-preserving permutations
    rotate (swap within pairs / swap the pairs) - re-pairing threads every
    cycle would overstate tree schemes substantially.
    """

    def __init__(self, name: str, root):
        self.name = name
        self.root = root
        ls = root.leaves()
        if sorted(ls) != list(range(len(ls))):
            raise ValueError(
                f"scheme {name!r} must cover ports 0..{len(ls) - 1} exactly "
                f"once, got {ls}"
            )
        self.n_ports = len(ls)
        # the schedule depends only on the port count and the wiring
        key = (self.n_ports, self._is_balanced_tree())
        table = _DISPATCH.get(key)
        if table is None:
            table = _DISPATCH[key] = DispatchTable(self._rotation_schedule())
        self._dispatch = table
        self._perms = table.perms
        self._plans: dict = {}

    def select(self, ports, rules: MergeRules) -> ExecPacket | None:
        return self.root.eval(ports, rules)

    def compile(self, rules: MergeRules) -> SchemePlan:
        """Lower the AST once into its :class:`SchemePlan` walk.

        Plans are cached per merge-rule constants (one machine's caps =
        one plan), so repeated calls from the simulator are free.
        """
        key = (rules.caps_high, rules.high)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = SchemePlan(*self._lower(), rules)
        return plan

    def _lower(self) -> tuple:
        """``(joints, split, root_smt)`` of the scheme's walk: one chain
        for a cascade, one per wired pair for a balanced tree - every
        scheme the grammar names, with its leaves in port order."""
        root = self.root
        links: list = []
        if self._is_balanced_tree():
            _chain(root.left, links)
            _chain(root.right, links)
            split, root_smt = 2, root.merge_kind == "S"
        elif _chain(root, links):
            split, root_smt = self.n_ports, None
        else:
            links = []
        if [p for p, _ in links] != list(range(self.n_ports)):
            raise ValueError(
                f"scheme {self.name!r}: {root!r} is neither a cascade nor "
                f"a balanced tree over ports in order, so it has no walk")
        return tuple(j for _, j in links), split, root_smt

    def _is_balanced_tree(self) -> bool:
        r = self.root
        return (
            r.kind == "node"
            and getattr(r.left, "kind", None) == "node"
            and getattr(r.right, "kind", None) == "node"
            and all(ch.kind == "leaf"
                    for ch in (r.left.left, r.left.right,
                               r.right.left, r.right.right))
        )

    def _rotation_schedule(self):
        n = self.n_ports
        if n == 1:
            return ((0,),)
        if self._is_balanced_tree():
            # automorphisms of the {P0,P1}{P2,P3} wiring that cycle the
            # leading thread through all four contexts
            return ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        return tuple(
            tuple((p + r) % n for p in range(n)) for r in range(n)
        )

    def port_permutations(self):
        """Rotation schedule: ``perm[p]`` = context bound to port ``p``."""
        return self._perms

    def dispatch(self) -> DispatchTable:
        """The :class:`DispatchTable` shared by every scheme with this
        rotation schedule."""
        return self._dispatch

    def diagram(self) -> str:
        """ASCII rendering of the merge tree (Figure 8 style)::

            C ── C ── S ── P0
            |    |    └ P1
            |    └ P2
            └ P3
        """
        lines: list[str] = []

        def walk(node, prefix: str, tail: str) -> None:
            if node.kind == "leaf":
                lines.append(f"{prefix}{tail}P{node.port}")
                return
            if node.kind == "parc":
                label = f"C{len(node.children)}"
                kids = node.children
            else:
                label = node.merge_kind
                kids = (node.left, node.right)
            lines.append(f"{prefix}{tail}{label}")
            child_prefix = prefix + ("|  " if tail == "+- " else "   ")
            for i, ch in enumerate(kids):
                walk(ch, child_prefix if tail else prefix,
                     "+- " if i < len(kids) - 1 else "`- ")

        walk(self.root, "", "")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # structural queries (used by the cost model and reports)
    # ------------------------------------------------------------------
    def count_blocks(self) -> dict:
        """Number of S blocks, 2-input C blocks and parallel C blocks."""
        counts = {"S": 0, "C": 0, "parC": 0}

        def walk(node):
            if node.kind == "node":
                counts[node.merge_kind] += 1
                walk(node.left)
                walk(node.right)
            elif node.kind == "parc":
                counts["parC"] += 1
                for ch in node.children:
                    walk(ch)

        walk(self.root)
        return counts

    def __repr__(self) -> str:
        return f"<Scheme {self.name}: {self.root!r}>"
