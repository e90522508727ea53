"""Parser for the paper's scheme naming convention.

Grammar (paper, Section 4.1):

* ``ST``     - single-thread baseline (no merging; one port).
* ``1S``     - 2-thread SMT (one S block over P0, P1).
* ``Ck``     - one k-input parallel CSMT block, e.g. ``C4``.
* ``<n><tokens>`` where ``n`` is the number of cascade levels and each
  token is ``S``, ``C`` or ``Ck``:

  - **cascade** interpretation: the first token merges P0,P1 (or P0..Pk-1
    for ``Ck``); each later token merges the accumulated packet with the
    next port(s).  Example: ``3SCC`` = C(C(S(P0,P1),P2),P3); ``2SC3`` =
    C3(S(P0,P1),P2,P3).
  - **balanced-tree** interpretation (two plain tokens whose cascade
    reading leaves ports uncovered): first token merges (P0,P1) and
    (P2,P3) in parallel groups, second merges the two results.  Example:
    ``2CS`` = S(C(P0,P1), C(P2,P3)).

  The reading that covers exactly ``n_threads`` ports is chosen; every
  paper name resolves unambiguously (``2SS`` is a tree - its cascade
  reading covers only 3 ports - while ``2SC3`` is a cascade).

* ``<name>@<t>`` - explicit thread-count qualifier.  Outside the paper's
  4-thread convention some names are ambiguous (``2SC`` is the 4-thread
  tree by default but also a valid 3-thread cascade); the qualifier pins
  the port count, so ``2SC@3`` always parses as the cascade
  C(S(P0,P1),P2).

The module owns the grammar in both directions: :func:`parse_scheme`
reads a name into a merge tree, :func:`scheme_tokens` reads it into its
cascade tokens, and :func:`scheme_name` writes tokens back as a name,
``@N``-qualified whenever the bare name would resolve to a different
port count.  The design-space enumerator (:mod:`repro.eval.sweep`) and
the search's mutator (:mod:`repro.eval.search`) name schemes only
through :func:`scheme_name` and :data:`TREE_NAMES`.
"""

from __future__ import annotations

import re

from repro.merge.scheme import Leaf, Node, ParCsmt, Scheme

__all__ = ["TREE_NAMES", "parse_scheme", "scheme_name", "scheme_tokens"]

#: the Figure 8 balanced trees, which read as trees only at four threads.
TREE_NAMES = tuple(f"2{k1}{k2}" for k1 in "SC" for k2 in "SC")

_TOKEN_RE = re.compile(r"([SC])(\d*)")
_LEVELS_RE = re.compile(r"(\d+)([SC0-9]+)")
_PAR_RE = re.compile(r"C(\d+)")


def _tokenize(body: str):
    """Split e.g. 'SC3' into [('S', 2), ('C', 3)] (width per token)."""
    tokens = []
    pos = 0
    while pos < len(body):
        m = _TOKEN_RE.match(body, pos)
        if not m:
            raise ValueError(f"bad scheme token at {body[pos:]!r}")
        kind, width = m.group(1), m.group(2)
        w = int(width) if width else 2
        if w < 2:
            raise ValueError(f"block width must be >= 2 in {body!r}")
        if kind == "S" and w != 2:
            raise ValueError("parallel SMT blocks are not implementable "
                             "(paper, Section 4.1); only S2 exists")
        tokens.append((kind, w))
        pos = m.end()
    return tokens


def _level_tokens(name: str, up: str):
    """Tokens of an ``<n><tokens>`` name; raises ValueError if malformed."""
    m = _LEVELS_RE.fullmatch(up)
    if not m:
        raise ValueError(f"cannot parse scheme name {name!r}")
    levels, tokens = int(m.group(1)), _tokenize(m.group(2))
    if len(tokens) != levels:
        raise ValueError(
            f"{name}: {levels} levels declared but {len(tokens)} merge "
            f"tokens given"
        )
    return tokens


def _token_str(kind: str, width: int) -> str:
    return "S" if kind == "S" else ("C" if width == 2 else f"C{width}")


def _block(kind: str, inputs: list):
    """Build a merge node of the right flavour over ``inputs``."""
    if kind == "C" and len(inputs) > 2:
        return ParCsmt(inputs)
    node = inputs[0]
    for nxt in inputs[1:]:
        node = Node(kind, node, nxt)
    return node


def _cascade(tokens, n_threads: int):
    """Cascade interpretation; returns root or None if port count differs."""
    first_kind, first_w = tokens[0]
    used = first_w
    if used > n_threads:
        return None
    root = _block(first_kind, [Leaf(i) for i in range(first_w)])
    for kind, w in tokens[1:]:
        extra = w - 1
        if used + extra > n_threads:
            return None
        inputs = [root] + [Leaf(used + i) for i in range(extra)]
        root = _block(kind, inputs)
        used += extra
    return root if used == n_threads else None


def _tree(tokens, n_threads: int):
    """Balanced-tree interpretation for two plain 2-input tokens."""
    if len(tokens) != 2 or n_threads != 4:
        return None
    (k1, w1), (k2, w2) = tokens
    if w1 != 2 or w2 != 2:
        return None
    left = Node(k1, Leaf(0), Leaf(1))
    right = Node(k1, Leaf(2), Leaf(3))
    return Node(k2, left, right)


def parse_scheme(name: str, n_threads: int | None = None) -> Scheme:
    """Parse a paper scheme name into a :class:`Scheme`.

    ``n_threads`` is the port count the scheme must cover.  When omitted,
    the paper's 4-thread convention is tried first (so ``2CS`` is the
    Figure 8 tree, not a 3-thread cascade), then the cascade's natural
    port count - which lets wider designs like ``7SCCCCCC`` or ``2SC7``
    parse without an explicit count.  ``1S`` implies 2 ports, ``ST`` 1.
    A ``@t`` suffix (e.g. ``2SC@3``) fixes the count in the name itself;
    it must agree with ``n_threads`` when both are given.
    """
    name = name.strip()
    if "@" in name:
        base, _, tail = name.partition("@")
        try:
            declared = int(tail)
        except ValueError:
            raise ValueError(
                f"bad thread-count qualifier in {name!r}; expected e.g. "
                f"'2SC@3'"
            ) from None
        if declared < 1:
            raise ValueError(f"{name}: thread count must be >= 1")
        if n_threads is not None and n_threads != declared:
            raise ValueError(
                f"{name}: qualifier declares {declared} threads but "
                f"{n_threads} were requested"
            )
        inner = parse_scheme(base, declared)
        return Scheme(f"{base.strip().upper()}@{declared}", inner.root)
    up = name.upper()
    if up == "ST":
        return Scheme("ST", Leaf(0))
    if up == "1S":
        return Scheme("1S", Node("S", Leaf(0), Leaf(1)))
    m = _PAR_RE.fullmatch(up)
    if m:
        w = int(m.group(1))
        if w < 2:
            raise ValueError(f"{name}: parallel block needs >= 2 threads")
        return Scheme(up, ParCsmt([Leaf(i) for i in range(w)]))
    tokens = _level_tokens(name, up)
    natural = tokens[0][1] + sum(w - 1 for _k, w in tokens[1:])
    candidates = (n_threads,) if n_threads is not None else (4, natural)
    for nt in candidates:
        root = _cascade(tokens, nt)
        if root is None:
            root = _tree(tokens, nt)
        if root is not None:
            return Scheme(up, root)
    raise ValueError(
        f"{name}: no interpretation covers "
        f"{n_threads if n_threads is not None else candidates} threads"
    )


def scheme_tokens(name: str, n_threads: int) -> list | None:
    """The cascade tokens ``name`` reads as at ``n_threads`` ports.

    Returns ``[(kind, width), ...]`` in cascade order, the inverse of
    :func:`scheme_name`: ``1S`` reads as ``[("S", 2)]`` and ``Ck`` (k >
    2) as ``[("C", k)]``, the block ``1Ck`` also builds.  Returns None
    when the name is no cascade at ``n_threads`` ports: ``ST``, the
    parallel ``C2``, the 4-thread trees, a ``@t`` qualifier naming
    another count, or a name that does not parse.
    """
    base, _, qual = name.strip().upper().partition("@")
    if qual and not (qual.isdigit() and int(qual) == n_threads):
        return None
    m = _PAR_RE.fullmatch(base)
    if m:
        width = int(m.group(1))
        return [("C", width)] if width == n_threads > 2 else None
    try:
        tokens = _level_tokens(name, base)
    except ValueError:
        return None
    return tokens if _cascade(tokens, n_threads) is not None else None


def scheme_name(tokens, n_threads: int) -> str | None:
    """The name of a cascade token sequence at ``n_threads`` ports.

    A lone ``C`` token wider than 2 folds to its ``Ck`` special form;
    the name gains an ``@N`` qualifier when the bare name's default
    reading (see :func:`parse_scheme`) covers a different port count.
    Returns None when no name reads back as ``tokens`` at
    ``n_threads`` ports (the tokens do not cover exactly that many);
    malformed tokens raise ValueError.
    """
    tokens = list(tokens)
    if len(tokens) == 1 and tokens[0][0] == "C" and tokens[0][1] > 2:
        name = f"C{tokens[0][1]}"
    else:
        name = f"{len(tokens)}" + "".join(_token_str(k, w) for k, w in tokens)
    if parse_scheme(name).n_ports != n_threads:
        name = f"{name}@{n_threads}"
    return name if scheme_tokens(name, n_threads) == tokens else None
