"""Exact linear algebra, and the sparse vector kernel.

A sparse vector is a dict mapping keys (words, tensor keys, column
indices, weights) to coefficients, and it never stores a zero
coefficient, so that equal vectors are equal dicts.  accumulate() is the
one place that adds into such a dict; every layer above builds its
linear combinations with it.

Dense routines take lists of rows and work over Fraction.  The sparse
solver takes equations as dicts mapping column index to coefficient, an
int, or a Fraction only downstream of a non-integral input, and
eliminates over the integers; it divides only to write out its basis.
Both return Fractions.  Reduced row echelon form is unique, which makes
subspace comparisons canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "accumulate",
    "rref",
    "rank",
    "nullspace",
    "solve",
    "mat_mul",
    "mat_vec",
    "identity",
    "span_contains",
    "same_row_space",
    "nullspace_sparse",
    "Echelon",
]

Vector = list
Matrix = list


def accumulate(acc: dict, pairs: Iterable[tuple]) -> dict:
    """Add (key, coefficient) pairs into the sparse vector acc, in place.

    A key whose sum becomes zero is deleted and a zero pair adds no key.
    Returns acc.

    >>> accumulate({"x": 1, "y": 2}, [("x", -1), ("z", 0), ("y", 3)])
    {'y': 5}
    """
    for key, coeff in pairs:
        old = acc.get(key)
        if old is None:
            if coeff:
                acc[key] = coeff
        else:
            value = old + coeff
            if value:
                acc[key] = value
            else:
                del acc[key]
    return acc


def _clean_rows(rows: Iterable[Sequence]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Iterable[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    mat = _clean_rows(rows)
    pivots: list[int] = []
    if not mat:
        return [], []
    ncols = len(mat[0])
    row_at = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row_at, len(mat)):
            if mat[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[row_at], mat[pivot_row] = mat[pivot_row], mat[row_at]
        inv = Fraction(1) / mat[row_at][col]
        mat[row_at] = [x * inv for x in mat[row_at]]
        for r in range(len(mat)):
            if r != row_at and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[row_at])]
        pivots.append(col)
        row_at += 1
        if row_at == len(mat):
            break
    return mat[:row_at], pivots


def rank(rows: Iterable[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Iterable[Sequence], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of {x : A x = 0}, one vector per free column, in column order."""
    mat = _clean_rows(rows)
    if ncols is None:
        if not mat:
            raise ValueError("ncols is required for an empty system")
        ncols = len(mat[0])
    if not mat:
        reduced, pivots = [], []
    else:
        reduced, pivots = rref(mat)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][free]
        basis.append(vec)
    return basis


def solve(rows: Iterable[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One solution of A x = b, or None if inconsistent."""
    mat = _clean_rows(rows)
    b = [Fraction(x) for x in rhs]
    if not mat:
        return None if any(b) else []
    ncols = len(mat[0])
    augmented = [row + [bv] for row, bv in zip(mat, b)]
    reduced, pivots = rref(augmented)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][ncols]
    return x


def mat_mul(A: Iterable[Sequence], B: Iterable[Sequence]) -> list[list[Fraction]]:
    A = _clean_rows(A)
    B = _clean_rows(B)
    if not A:
        return []
    if B and len(A[0]) != len(B):
        raise ValueError("cannot multiply: inner dimensions differ")
    ncols = len(B[0]) if B else 0
    return [
        [sum((arow[k] * B[k][j] for k in range(len(B))), Fraction(0)) for j in range(ncols)]
        for arow in A
    ]


def mat_vec(A: Iterable[Sequence], x: Sequence) -> list[Fraction]:
    return [sum((Fraction(a) * Fraction(v) for a, v in zip(row, x)), Fraction(0)) for row in A]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def span_contains(basis_rows: Iterable[Sequence], vector: Sequence) -> bool:
    """Whether vector lies in the row span of basis_rows."""
    rows = _clean_rows(basis_rows)
    before = rank(rows)
    after = rank(rows + [[Fraction(x) for x in vector]])
    return before == after


def same_row_space(rows_a: Iterable[Sequence], rows_b: Iterable[Sequence]) -> bool:
    return rref(rows_a)[0] == rref(rows_b)[0]


class Echelon:
    """Incremental reduced echelon basis keyed by pivot column.

    insert() reduces a vector against the current basis and absorbs any
    nonzero remainder, keeping the basis fully reduced.  Useful for
    closure computations that repeatedly add candidate vectors.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Sequence) -> list[Fraction]:
        vec = [Fraction(x) for x in vector]
        for row, p in zip(self.rows, self.pivots):
            if vec[p]:
                factor = vec[p]
                vec = [x - factor * y for x, y in zip(vec, row)]
        return vec

    def contains(self, vector: Sequence) -> bool:
        return not any(self.reduce(vector))

    def insert(self, vector: Sequence) -> bool:
        """Add a vector to the span.  Returns True if the span grew."""
        vec = self.reduce(vector)
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            return False
        inv = Fraction(1) / vec[pivot]
        vec = [x * inv for x in vec]
        for row in self.rows:
            if row[pivot]:
                factor = row[pivot]
                row[:] = [x - factor * y for x, y in zip(row, vec)]
        position = 0
        while position < len(self.pivots) and self.pivots[position] < pivot:
            position += 1
        self.rows.insert(position, vec)
        self.pivots.insert(position, pivot)
        return True

    def basis(self) -> list[list[Fraction]]:
        return [list(row) for row in self.rows]


def nullspace_sparse(
    equations: list[dict[int, int | Fraction]], nvars: int
) -> list[list[Fraction]]:
    """Basis of the solution space of sparse homogeneous equations.

    Each equation maps a variable index to its coefficient, an int, or a
    Fraction only downstream of a non-integral input.  Elimination is
    fraction-free (Bareiss, Math. Comp. 22, 1968): each equation's
    denominators are cleared, and a row with entry r at a pivot column is
    reduced against the pivot row p, whose entry there is q, as
    (q*row - r*p) / g with g = gcd(r, q), after which the gcd content of
    the row is divided out.  The forward pass and the back substitution
    both work this way, so rows stay integral and small.  Only writing
    out the basis divides: the returned Fractions are the same dense
    reduced basis nullspace() would produce.
    """
    echelon: dict[int, dict[int, int]] = {}
    for eq in equations:
        scale = lcm(*(v.denominator for v in eq.values()))
        row = {k: v.numerator * (scale // v.denominator) for k, v in eq.items() if v}
        while row:
            lead = min(row)
            known = echelon.get(lead)
            if known is None:
                _remove_content(row)
                echelon[lead] = row
                break
            _eliminate(row, known, lead)
    # back substitution to full reduction
    for lead in sorted(echelon, reverse=True):
        row = echelon[lead]
        for other_lead, other in echelon.items():
            if other_lead < lead and lead in other:
                _eliminate(other, row, lead)
    basis = []
    for free in range(nvars):
        if free in echelon:
            continue
        vec = [Fraction(0)] * nvars
        vec[free] = Fraction(1)
        for lead, row in echelon.items():
            coeff = row.get(free)
            if coeff:
                vec[lead] = Fraction(-coeff, row[lead])
        basis.append(vec)
    return basis


def _eliminate(row: dict[int, int], pivot: dict[int, int], lead: int) -> None:
    """Cancel row's entry at lead against pivot, in place, over the integers."""
    g = gcd(row[lead], pivot[lead])
    factor = row[lead] // g
    scale = pivot[lead] // g
    if scale != 1:
        for k in row:
            row[k] *= scale
    accumulate(row, ((k, -factor * v) for k, v in pivot.items()))
    _remove_content(row)


def _remove_content(row: dict[int, int]) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    content = gcd(*row.values())
    if content > 1:
        for k in row:
            row[k] //= content
