"""Exact linear algebra, and the sparse vector kernel.

A sparse vector is a dict mapping keys (words, tensor keys, column
indices, weights) to coefficients, and it never stores a zero
coefficient, so that equal vectors are equal dicts.  accumulate() is the
one place that adds into such a dict; every layer above builds its
linear combinations with it.

There is one row reduction, the incremental Echelon.  It eliminates
fraction-free over the integers (Bareiss, Math. Comp. 22, 1968) and
divides only to write out its reduced basis.  rref, rank and
nullspace_sparse are thin callers of it, and only the vectors they hand
back hold Fractions.  Solutions are sparse vectors too; rref alone
writes dense rows.  Membership in a span is Echelon(rows).insert(v)
returning False.  Reduced row echelon form is unique, which makes
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
    "nullspace_sparse",
    "Echelon",
]


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


class Echelon:
    """Incremental echelon basis of a span, eliminated over the integers.

    A vector is a dict mapping columns to coefficients (ints, or
    Fractions only downstream of a non-integral input), or a dense
    sequence indexed by column.  Columns are any mutually comparable keys,
    and the leading column of a row is its smallest key.  insert() clears
    the denominators of a vector and reduces it against the rows by their
    leading columns: a row with entry r at a leading column is reduced
    against the row p there, whose entry is q, as (q*row - r*p) / g with
    g = gcd(r, q), and the gcd content of the result is divided out.  So
    rows stay integral and small.

    >>> echelon = Echelon([[2, 4, 6], [1, 2, 4]])
    >>> echelon.insert({0: 1, 1: 2, 2: 5})
    False
    >>> len(echelon), echelon.basis() == [{0: 1, 1: 2}, {2: 1}]
    (2, True)
    """

    def __init__(self, vectors: Iterable = ()):
        self.rows: dict = {}
        for vector in vectors:
            self.insert(vector)

    def __len__(self) -> int:
        return len(self.rows)

    def insert(self, vector) -> bool:
        """Add a vector to the span.  Returns True if the span grew."""
        if not isinstance(vector, dict):
            vector = dict(enumerate(vector))
        scale = lcm(*(v.denominator for v in vector.values()))
        row = {k: v.numerator * (scale // v.denominator) for k, v in vector.items() if v}
        rows = self.rows
        while row:
            lead = min(row)
            known = rows.get(lead)
            if known is None:
                _remove_content(row)
                rows[lead] = row
                return True
            _eliminate(row, known, lead)
        return False

    def basis(self) -> list[dict]:
        """The reduced row echelon basis, in increasing leading column.

        Each returned row maps its columns to Fractions and has 1 at its
        leading column.
        """
        return [
            {k: Fraction(v, row[lead]) for k, v in row.items()} for lead, row in self._reduced()
        ]

    def _reduced(self) -> list[tuple]:
        """(leading column, integer row) pairs, in increasing leading column.

        Back substitution first clears every leading column from the other
        rows, in place, from the last leading column down.
        """
        rows = self.rows
        for lead in sorted(rows, reverse=True):
            row = rows[lead]
            for column in [k for k in row if k != lead and k in rows]:
                _eliminate(row, rows[column], column)
        return sorted(rows.items())


def _eliminate(row: dict, pivot: dict, lead) -> None:
    """Cancel row's entry at lead against pivot, in place, over the integers."""
    g = gcd(row[lead], pivot[lead])
    factor = row[lead] // g
    scale = pivot[lead] // g
    if scale != 1:
        for k in row:
            row[k] *= scale
    accumulate(row, ((k, -factor * v) for k, v in pivot.items()))
    _remove_content(row)


def _remove_content(row: dict) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    content = gcd(*row.values())
    if content > 1:
        for k in row:
            row[k] //= content


def rref(rows: Iterable[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    basis = Echelon(rows).basis()
    dense = []
    for row in basis:
        vec = [Fraction(0)] * ncols
        for k, v in row.items():
            vec[k] = v
        dense.append(vec)
    return dense, [min(row) for row in basis]


def rank(rows: Iterable[Sequence]) -> int:
    return len(Echelon(rows))


def nullspace_sparse(
    equations: list[dict[int, int | Fraction]], nvars: int
) -> list[dict[int, Fraction]]:
    """Basis of the solution space of sparse homogeneous equations.

    Each equation maps a variable index to its coefficient.  The
    equations are reduced in an Echelon; each free variable gives one
    basis vector, 1 there and minus its column of the reduced rows at
    their leading variables.  The vectors come in free-variable order and
    are the unique reduced basis, each a sparse vector {variable:
    Fraction} without zeros.

    >>> nullspace_sparse([{0: 1, 2: -1}, {1: 2, 2: 2}], 4) == [{0: 1, 1: -1, 2: 1}, {3: 1}]
    True
    """
    reduced = Echelon(equations)._reduced()
    pivots = {lead for lead, _ in reduced}
    free = {k: {k: Fraction(1)} for k in range(nvars) if k not in pivots}
    for lead, row in reduced:
        for k, v in row.items():
            if k != lead:
                free[k][lead] = Fraction(-v, row[lead])
    return list(free.values())

