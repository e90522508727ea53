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

# Compiled-plan opcodes: push a port's packet / merge the top two stack
# entries with the SMT or CSMT rule.
OP_PORT, OP_SMT, OP_CSMT = 0, 1, 2


class SchemePlan:
    """A scheme AST lowered to a flat postorder instruction list.

    ``steps`` is a tuple of ``(opcode, port)`` pairs: ``OP_PORT`` pushes
    ``ports[port]``; ``OP_SMT``/``OP_CSMT`` pop the two top stack entries
    (right above left) and push the merge outcome under exactly the
    semantics of :meth:`Node.eval` — pass-through when one side is
    invalid, the merged packet on success, the **left** (higher-priority)
    input on failure.  Parallel CSMT blocks are lowered to their
    functionally identical left-deep cascades.

    The steps are never interpreted at run time; they are compiled into
    the two fast paths below, each bit-identical to ``root.eval`` on
    every input (see the property tests in
    ``tests/test_merge_scheme.py``).

    :attr:`select_ports` unrolls the postorder steps at compile time
    into one straight-line Python function over flat ``(mask, packed)``
    pairs (mask ``-1`` marks an invalid port) returning the selected
    port indices.  The fast engine calls it whenever three or more
    ports are ready — no packets, no stack, the machine's cap constants
    inlined as literals.

    :attr:`pair_table` precomputes the two-valid-ports case: with exactly
    two valid leaves every other merge block passes through, so the
    selection collapses to one predicate at their lowest common ancestor.
    ``pair_table[(i, j)]`` (scan order ``i < j``) holds
    ``(is_smt, first_port, second_port, sel_first, sel_both)`` — evaluate
    the ancestor's predicate on the two packets and pick one of the two
    precomputed selections.
    """

    __slots__ = ("scheme_name", "steps", "select_ports", "pair_table")

    def __init__(self, scheme_name: str, steps: tuple, rules: MergeRules):
        self.scheme_name = scheme_name
        self.steps = steps
        self.select_ports = _specialize(steps, rules)
        self.pair_table = _pair_table(steps)

    def __repr__(self) -> str:
        return (f"<SchemePlan {self.scheme_name}: "
                f"{len(self.steps)} steps>")


def _specialize(steps: tuple, rules: MergeRules):
    """Unroll a postorder plan into one generated Python function.

    The returned function takes ``m0, p0, m1, p1, ...`` — one
    ``(mask, packed)`` pair per port, mask ``-1`` for an invalid port —
    and returns the tuple of selected port indices in priority order
    (``None`` when every port is invalid).  Each merge step becomes a
    literal transcription of :meth:`Node.eval`'s semantics on the SWAR
    summaries, with the cap constants inlined.
    """
    n_ports = sum(1 for op, _ in steps if op == OP_PORT)
    args = ", ".join(f"m{i}, p{i}" for i in range(n_ports))
    lines = [f"def _select_ports({args}):"]
    emit = lines.append
    stack: list[tuple[str, str, str]] = []
    tmp = 0
    for op, port in steps:
        if op == OP_PORT:
            stack.append((f"m{port}", f"p{port}", f"({port},)"))
            continue
        bm, bp, bs = stack.pop()
        am, ap, asel = stack.pop()
        rm, rp, rs = f"rm{tmp}", f"rp{tmp}", f"rs{tmp}"
        tmp += 1
        emit(f"    if {am} < 0:")
        emit(f"        {rm} = {bm}; {rp} = {bp}; {rs} = {bs}")
        emit(f"    elif {bm} < 0:")
        emit(f"        {rm} = {am}; {rp} = {ap}; {rs} = {asel}")
        if op == OP_CSMT:
            emit(f"    elif {am} & {bm}:")
            emit(f"        {rm} = {am}; {rp} = {ap}; {rs} = {asel}")
            emit("    else:")
            emit(f"        {rm} = {am} | {bm}; {rp} = {ap} + {bp}; "
                 f"{rs} = {asel} + {bs}")
        else:
            emit("    else:")
            emit(f"        _t = {ap} + {bp}")
            emit(f"        if ({rules.caps_high} - _t) & {rules.high} "
                 f"== {rules.high}:")
            emit(f"            {rm} = {am} | {bm}; {rp} = _t; "
                 f"{rs} = {asel} + {bs}")
            emit("        else:")
            emit(f"            {rm} = {am}; {rp} = {ap}; {rs} = {asel}")
        stack.append((rm, rp, rs))
    root_m, _root_p, root_s = stack[0]
    emit(f"    return {root_s} if {root_m} >= 0 else None")
    namespace: dict = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - self-generated source
    return namespace["_select_ports"]


def _pair_table(steps: tuple) -> dict:
    """Collapse every two-valid-ports case to one precomputed predicate.

    With exactly two valid leaves, every merge step sees at most one
    valid input — and passes it through — except the single step where
    both meet (their lowest common ancestor in the original AST).  The
    selection is therefore ``sel_both`` if that step's predicate accepts
    the pair and ``sel_first`` (its left, higher-priority side) if not.
    Found symbolically: run the plan on tokens for the pair and record
    the one step that combines two valid operands.
    """
    n_ports = sum(1 for op, _ in steps if op == OP_PORT)
    table: dict = {}
    for i in range(n_ports):
        for j in range(n_ports):
            if i == j:
                continue
            stack: list = []
            meet = None
            for op, port in steps:
                if op == OP_PORT:
                    stack.append((port,) if port in (i, j) else None)
                    continue
                b = stack.pop()
                a = stack.pop()
                if a is None:
                    stack.append(b)
                elif b is None:
                    stack.append(a)
                else:
                    meet = (op, a, b)
                    stack.append(a + b)
            op, first, second = meet
            table[i, j] = (op == OP_SMT, first[0], second[0],
                           first, first + second)
    return table


class DispatchTable(dict):
    """Ready-context dispatch under one rotation schedule, filled on demand.

    Keys are ``(rot << n) | mask``: ``rot`` indexes the rotation schedule
    (``perms[rot][p]`` is the context slot bound to port ``p``) and bit
    ``c`` of ``mask`` marks context slot ``c`` ready.  Each entry is a
    triple ``(k, perm, ready)``: the number of ready ports, the port
    binding of that rotation step, and the ready ports in port order —

    * ``k == 1``: ``ready = (p,)``, which every merge block passes
      through, so it is already the selection;
    * ``k == 2``: ``ready = (i, j)``, the key of the pair's
      :attr:`SchemePlan.pair_table` entry;
    * ``k >= 3``: ``ready = ((2 * p, perm[p]), ...)``: the argument
      offset of each ready port's ``(mask, packed)`` pair in
      :attr:`SchemePlan.select_ports` and the context bound there.

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
        if len(ready) >= 3:
            return (len(ready), perm, tuple((p + p, perm[p]) for p in ready))
        return (len(ready), perm, ready)


#: (port count, balanced tree?) -> the DispatchTable of that rotation
#: schedule, shared by every scheme using it.
_DISPATCH: dict = {}


def _lower(node, steps: list) -> None:
    """Postorder-lower one AST node onto ``steps``."""
    if node.kind == "leaf":
        steps.append((OP_PORT, node.port))
    elif node.kind == "node":
        _lower(node.left, steps)
        _lower(node.right, steps)
        steps.append((OP_SMT if node.merge_kind == "S" else OP_CSMT, -1))
    else:  # parallel CSMT == left-deep serial cascade (paper, Section 3)
        _lower(node.children[0], steps)
        for child in node.children[1:]:
            _lower(child, steps)
            steps.append((OP_CSMT, -1))


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
        """Lower the AST once into a flat :class:`SchemePlan`.

        Plans are cached per merge-rule constants (one machine's caps =
        one plan), so repeated calls from the simulator are free.
        """
        key = (rules.caps_high, rules.high)
        plan = self._plans.get(key)
        if plan is None:
            steps: list = []
            _lower(self.root, steps)
            plan = SchemePlan(self.name, tuple(steps), rules)
            self._plans[key] = plan
        return plan

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
