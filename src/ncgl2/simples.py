"""Combinatorial classification of the simple comodules.

Every simple comodule is a tensor product of blocks S^k V, T^t V, and
determinant lines R^i, read off from the weight word lam by a greedy
rewriting of its delta^{-1}-linked runs of d's.  The pipeline:

  1. `split_segments`: cut lam at every delta power other than -1; each
     segment is a chain of d-runs z = (z_0, ..., z_m) joined by single
     delta^{-1}'s, and the powers between segments become R^i factors.
  2. `delta_grouping`: inside a segment, maximal chains of gaps whose shared
     runs have length 1 become T-blocks (a chain of t-1 gaps eats one d from
     each run it touches and yields T^t); leftover d's stay as S-blocks.
  3. `classify`: unit transfers T^t, S^k -> T^(t-1), R^(-1), S^(k+1) are
     applied greedily while the transfer is onto, empty blocks are
     collapsed, the result is checked against the adjacency table and
     normalized to the canonical representative of its
     exchange-isomorphism orbit.

The adjacency table says which tensor products of neighbouring blocks stay
simple.  Its one home is `transfer_flags(a, b)`: whether moving one unit
from T^a into a neighbouring S^b is one-to-one, and whether it is onto.
`_neighbour_pairs`, its one reader here, gives each T^a and S^b (in either
order) the flags of their move: side by side from T^a into S^b, across an
R^-1 from S^b into T^a; `_move` makes it, and no other code moves a unit.
Every pair's move must be one-to-one; T next to T and S next to S are
free.  The greedy transfers are the onto side-by-side moves, and the
exchange isomorphisms the moves that are both.

`sl2_rank_oracle` certifies the table independently: it differentiates
polynomial bimodules and reports the injectivity and surjectivity of the
transfer operator, and the sl2 check suite compares them with
`transfer_flags` itself, the table the classifier reads.

>>> from .weights import parse_lambda
>>> classify(parse_lambda("d.Di.d^2")).render()
'T2 * S1'
>>> classify(parse_lambda("d.Di.d^2")).dim
6
>>> classify(parse_lambda("d^2")).render()
'S2'
"""

from __future__ import annotations

from itertools import product

from .weights import LambdaWord
from .comodules import VerificationError, image_character
from . import linalg
from .linalg import accumulate
from .standard import Factor, canonical_map, factor_char, factor_dim

__all__ = [
    "BlockExpression",
    "ClassifierError",
    "split_segments",
    "delta_grouping",
    "classify",
    "classify_crosscheck",
    "validate_adjacency",
    "transfer_flags",
    "sl2_rank_oracle",
    "sl2_commutation_check",
]


class ClassifierError(VerificationError):
    """Raised when a classifier invariant fails (an internal contradiction)."""


class BlockExpression:
    """A tensor word in the blocks S^k V, T^t V, R^i.

    Its factors are a factor word of `standard`: (kind, exponent) pairs with
    kind in {"S", "T", "R"}, denoting the tensor product of the named
    comodules in order; standard.factor_comodule builds it.
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple((str(k), int(e)) for k, e in factors)

    @property
    def dim(self) -> int:
        return factor_dim(self.factors)

    def render(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for kind, exp in self.factors:
            if kind == "S":
                parts.append(f"S{exp}")
            elif kind == "T":
                parts.append(f"T{exp}")
            elif exp == 1:
                parts.append("R")
            elif exp == -1:
                parts.append("Ri")
            else:
                parts.append(f"R^{exp}")
        return " * ".join(parts)

    def rinv_count(self) -> int:
        return sum(1 for kind, exp in self.factors if kind == "R" and exp == -1)

    def __eq__(self, other):
        return isinstance(other, BlockExpression) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"BlockExpression({self.render()!r})"


# ---------------------------------------------------------------------------
# segment combinatorics


def split_segments(lam: LambdaWord):
    """Cut lam into delta^{-1}-linked segments.

    Returns (lead, segments, connectors, trail), a partition of
    lam.atoms(): a delta atom at either end is the lead or the trail (0
    when absent), and every other delta atom but delta^{-1} cuts a
    segment and is its connector.  `segments` is a list of tuples of
    d-run lengths.
    """
    atoms = list(lam.atoms())
    lead = atoms.pop(0)[1] if atoms and atoms[0][0] == "delta" else 0
    trail = atoms.pop()[1] if atoms and atoms[-1][0] == "delta" else 0
    runs: list[list[int]] = [[]]
    connectors: list[int] = []
    for kind, value in atoms:
        if kind == "d":
            runs[-1].append(value)
        elif value != -1:
            connectors.append(value)
            runs.append([])
    return lead, [tuple(run) for run in runs if run], connectors, trail


def delta_grouping(z: tuple[int, ...]) -> BlockExpression:
    """The symmetrized block grouping of one segment.

    Gaps whose shared run has length 1 chain together; a chain of g gaps
    absorbs one d from each of the g+1 runs it touches and becomes T^{g+1}.
    Each run keeps its leftover d's as an S-block (omitted when empty).  The
    product of (t_i + 1) over the T-blocks times 2^(leftover d count) equals
    the dimension of the standard comodule of the segment.

    >>> delta_grouping((1, 2)).render()
    'T2 * S1'
    >>> delta_grouping((2,)).render()
    'S2'
    """
    m = len(z) - 1
    if m == 0:
        return BlockExpression([("S", z[0])])
    chains: list[list[int]] = [[1]]
    for gap in range(2, m + 1):
        if z[gap - 1] == 1:
            chains[-1].append(gap)
        else:
            chains.append([gap])
    factors: list[Factor] = []
    if z[0] - 1 > 0:
        factors.append(("S", z[0] - 1))
    for c, chain in enumerate(chains):
        factors.append(("T", len(chain) + 1))
        if c + 1 < len(chains):
            shared = z[chain[-1]]
            if shared - 2 > 0:
                factors.append(("S", shared - 2))
    if z[m] - 1 > 0:
        factors.append(("S", z[m] - 1))
    return BlockExpression(factors)


# ---------------------------------------------------------------------------
# the greedy classifier


def _classify_segment(z: tuple[int, ...]) -> list[Factor]:
    """Greedy normal form of one segment, as a factor list (S/T/R only).

    Starting from the grouping, with an S^0 put between adjacent T-blocks, a
    unit moves at the leftmost side-by-side pair whose move is onto, until no
    such pair is left; the R^-1 that a move puts between its pair keeps that
    pair from moving again.
    """
    factors: tuple[Factor, ...] = ()
    for block in delta_grouping(z).factors:
        if factors and factors[-1][0] == block[0] == "T":
            factors += (("S", 0),)
        factors += (block,)
    while True:
        for i, j, a, _, (_, onto) in _neighbour_pairs(factors):
            if j == i + 1 and a >= 1 and onto:
                factors = _move(factors, i, j)
                break
        else:
            return _collapse_empty(factors)


def _collapse_empty(factors: tuple[Factor, ...]) -> list[Factor]:
    """Remove T^0 (which is R, cancelling its two R^-1 flanks) and S^0, in
    one pass that checks the factors kept so far and the next one."""
    out: list[Factor] = []
    for k, factor in enumerate(factors):
        following = factors[k + 1] if k + 1 < len(factors) else ("", 0)
        if factor == ("T", 0):
            if not out or out[-1] != ("R", -1) or following != ("R", -1):
                raise ClassifierError(
                    f"empty T-block not flanked by two R^-1 factors in {out + list(factors[k:])}"
                )
            out.pop()  # the right R^-1 flank is kept when it comes next
        elif factor == ("S", 0):
            if (out and out[-1][0] == "R") or following[0] == "R":
                raise ClassifierError(
                    f"empty S-block touching an R factor in {out + list(factors[k:])}"
                )
        else:
            out.append(factor)
    return out


def transfer_flags(a: int, b: int) -> tuple[bool, bool]:
    """Whether moving one unit from T^a into a neighbouring S^b is one-to-one
    (a >= b + 1) and whether it is onto (a <= b + 1): the adjacency table.

    Across an R^-1 the unit moves from S^b into T^a, whose flags are
    transfer_flags(b, a).  `sl2_rank_oracle` certifies the table: its left
    flags at (a, b) and its right flags at (b, a) are these.

    >>> transfer_flags(2, 1), transfer_flags(1, 3)
    ((True, True), (False, True))
    """
    return a >= b + 1, a <= b + 1


def _neighbour_pairs(factors):
    """(i, j, a, b, flags) for each T^a and S^b, in either order, at i and j,
    with the flags of the move the pair can make: side by side (j = i + 1)
    from T^a into S^b, transfer_flags(a, b), and across one R^-1 (j = i + 2)
    from S^b into T^a, transfer_flags(b, a)."""
    for i in range(len(factors) - 1):
        j = i + 2 if factors[i + 1] == ("R", -1) else i + 1
        if j < len(factors) and {factors[i][0], factors[j][0]} == {"S", "T"}:
            (kind, x), (_, y) = factors[i], factors[j]
            a, b = (x, y) if kind == "T" else (y, x)
            yield i, j, a, b, transfer_flags(a, b) if j == i + 1 else transfer_flags(b, a)


def _move(factors: tuple[Factor, ...], i: int, j: int) -> tuple[Factor, ...]:
    """Move one unit between the T and S at i and j: side by side from T
    into S, T^a, S^b -> T^(a-1), R^-1, S^(b+1), and back across the R^-1."""
    step, middle = (-1, (("R", -1),)) if j == i + 1 else (1, ())
    shift = {"T": step, "S": -step}
    (x, e), (y, f) = factors[i], factors[j]
    return factors[:i] + ((x, e + shift[x]),) + middle + ((y, f + shift[y]),) + factors[j + 1 :]


def validate_adjacency(factors) -> None:
    """Check every T/S pair beside each other or across an R^-1 against the
    adjacency table: the move of the pair must be one-to-one.

    Raises ClassifierError on a violation; R^i factors with i != -1 separate
    their neighbours completely and impose no constraint.
    """
    factors = list(factors)
    for i, j, a, b, (one_to_one, _) in _neighbour_pairs(factors):
        if not one_to_one:
            raise ClassifierError(
                f"T^{a} and S^{b} joined by R^-1 need a+1 <= b: {factors}"
                if j == i + 2
                else f"adjacent T^{a} and S^{b} need a >= b+1: {factors}"
            )


def _exchange_neighbours(factors: tuple[Factor, ...]):
    """All factor lists one exchange isomorphism away: the moves that are
    both one-to-one and onto, so that the pair's exponents are one apart,
    and that leave no empty block, so that both exponents are at least 1."""
    return [_move(factors, i, j) for i, j, a, b, flags in _neighbour_pairs(factors) if all(flags) and min(a, b) >= 1]


def _normalize(factors: list[Factor]) -> tuple[Factor, ...]:
    """Canonical representative of the exchange orbit.

    Breadth-first search over the exchange moves; the representative has the
    fewest R^-1 factors, ties broken by the rendered string.  Every member
    of the orbit must itself pass the adjacency table.
    """
    start = tuple(factors)
    seen = {start}
    queue = [start]
    while queue:
        current = queue.pop(0)
        validate_adjacency(current)
        for neighbour in _exchange_neighbours(current):
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append(neighbour)
    def sort_key(fs):
        expr = BlockExpression(fs)
        return (expr.rinv_count(), expr.render())
    return min(seen, key=sort_key)


def classify(lam: LambdaWord) -> BlockExpression:
    """The block expression of the simple comodule L(lam).

    Segments separated by delta powers other than -1 classify independently
    and are joined by R^i factors; inside a segment the greedy unit-transfer
    loop runs on the symmetrized grouping and the result is normalized.

    >>> from .weights import parse_lambda
    >>> classify(parse_lambda("d.Di.d.Di.d^3")).render()
    'T3 * S2'
    >>> classify(parse_lambda("D^2")).render()
    'R^2'
    """
    lead, segments, connectors, trail = split_segments(lam)
    factors: list[Factor] = []
    if lead:
        factors.append(("R", lead))
    for s, z in enumerate(segments):
        if s > 0:
            factors.append(("R", connectors[s - 1]))
        factors.extend(_normalize(_classify_segment(z)))
    if trail:
        factors.append(("R", trail))
    validate_adjacency(factors)
    return BlockExpression(factors)


# ---------------------------------------------------------------------------
# realization and cross-checks


def classify_crosscheck(lam: LambdaWord) -> dict:
    """Compare the combinatorial answer with the linear-algebra construction.

    Returns a report dict; `consistent` requires the block dimension to
    equal dim L(lam), the rank of the canonical map F: Delta(lam) ->
    nabla(lam), and the block character to equal the character of L(lam),
    its image.  Both are read from the ranks of F's weight blocks
    (comodules.image_character): a comodule map preserves torus weights,
    and canonical_map sets entries only between basis vectors of equal
    weight, so F is block diagonal by weight; the rank of
    its block at t is the multiplicity of t in L(lam), and dim L = rank F
    is their sum.  image_character raises VerificationError on an entry of
    F between two different weights.  L(lam) itself is never built;
    comodules.image stays as the oracle the tests compare against.
    """
    expr = classify(lam)
    char = image_character(canonical_map(lam))
    rank = sum(char.values())
    return {
        "lambda": str(lam),
        "expression": expr.render(),
        "dim": expr.dim,
        "rank": rank,
        "dimL": rank,
        "consistent": expr.dim == rank and factor_char(expr.factors) == char,
    }


# ---------------------------------------------------------------------------
# the classical rank oracle


def sl2_rank_oracle(a: int, b: int, direction: str = "left") -> dict:
    """Rank of the polynomial transfer operator between adjacent blocks.

    On monomials x1^i x2^(a-i) y1^j y2^(b-j) the operator E = y1 d/dx1 +
    y2 d/dx2 maps the bidegree (a, b) space to the bidegree (a-1, b+1)
    space (direction "left"); direction "right" uses x1 d/dy1 + x2 d/dy2
    instead.  The exact integer ranks decide the adjacency table: the
    left flags at (a, b) and the right flags at (b, a) are
    `transfer_flags(a, b)`, plain adjacency reading the left operator
    and adjacency across R^-1 the right one.

    >>> sl2_rank_oracle(2, 1)["injective"], sl2_rank_oracle(2, 1)["surjective"]
    (True, True)
    >>> sl2_rank_oracle(1, 3)["rank"]
    5
    """
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    source_dim = (a + 1) * (b + 1)
    if direction == "left":
        target_dim, transfer = a * (b + 2), ((2, 0), (3, 1))
    else:
        target_dim, transfer = (a + 2) * b, ((0, 2), (1, 3))
    rank = linalg.rank(
        _apply_operator({(i, a - i, j, b - j): 1}, transfer)
        for i in range(a + 1)
        for j in range(b + 1)
    )
    return {
        "a": a,
        "b": b,
        "direction": direction,
        "rank": rank,
        "source_dim": source_dim,
        "target_dim": target_dim,
        "injective": rank == source_dim,
        "surjective": rank == target_dim,
    }


def _apply_operator(poly: dict, pairs) -> dict:
    """Apply sum of (out_index, in_index) first-order operators to a polynomial.

    Monomials are exponent tuples over (x1, x2, y1, y2), and z1, z2 after
    them when a third block takes part; the operator summand (o, i) is
    variable_o * d/d variable_i.
    """
    out: dict = {}
    for mono, coeff in poly.items():
        accumulate(out, ((_shift(mono, o, i), coeff * mono[i]) for o, i in pairs if mono[i]))
    return out


def _shift(mono: tuple, o: int, i: int) -> tuple:
    """The monomial with one power moved from variable i to variable o."""
    new = list(mono)
    new[i] -= 1
    new[o] += 1
    return tuple(new)


def sl2_commutation_check(max_exp: int = 4) -> bool:
    """The two transfer operators donating into a shared middle commute.

    E1 = y1 d/dx1 + y2 d/dx2 and E2 = y1 d/dz1 + y2 d/dz2 are checked on
    every monomial of x-degree a, y-degree b, z-degree c with a, b, c up to
    max_exp.
    """
    E1 = ((2, 0), (3, 1))
    E2 = ((2, 4), (3, 5))
    for a, b, c in product(range(max_exp + 1), repeat=3):
        for i in range(a + 1):
            for j in range(b + 1):
                for k in range(c + 1):
                    mono = (i, a - i, j, b - j, k, c - k)
                    poly = {mono: 1}
                    lhs = _apply_operator(_apply_operator(poly, E1), E2)
                    rhs = _apply_operator(_apply_operator(poly, E2), E1)
                    if lhs != rhs:
                        return False
    return True
