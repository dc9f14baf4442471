"""Finite dimensional right comodules over the quantum group algebra O.

A comodule of dimension n is a coaction matrix C of algebra elements:
rho(v_i) = sum_j C[i][j] # v_j, subject to the coassociativity and counit
axioms checked by comodule_axiom_failures.

Bases are torus-diagonal: the coaction pushed into the torus quotient
O(T) is diagonal, and Comodule.weights reads the weight of each basis
vector off it, raising ValueError on any other basis.  Over the torus
every comodule is a direct sum of weight spaces (Jantzen, Representations
of Algebraic Groups, I.2.11), so this loses no comodule, and every
constructor here keeps such a basis.

Products and duals carry their weights instead of scanning their larger
coaction.  The torus quotient is a Hopf map onto a commutative Hopf
algebra, so on torus-diagonal bases the basis vector (i, p) of tensor(X,
Y) has weight wt_X(i) + wt_Y(p), and the basis vector *i of left_dual(X)
has weight -wt_X(i); each factor is scanned, if at all, on its own.

A ComoduleMap f stores column i, f(v_i) = sum_k F[k][i] w_k, as the
sparse vector {k: F[k][i]}; only f.matrix writes out the dense F, and
no function here reads it.
_intertwiners solves the intertwining equations of hom_space,
borel.semi_invariants and borel.induced_truncated exactly, in the matrix
entries that pair basis vectors of equal weight.  hom_from_generators
reads Hom(X, Y) off the row of a generating vector v of X instead, with
one small solve in the coordinates of F(v), and standard.canonical_map
needs no solve: it reads its map off the top row of Delta(lam).  Both
check generation through one owner table, generator_owners.

One closure routine, _close, builds every subcomodule: it grows an
Echelon until the coaction components of each basis row lie in the span,
then reads the coaction off at the leading columns.  The subspace, image,
kernel, generated, quotient and regular cases differ only in the span
they start from and in how a vector's coaction splits into components.
image_character reads the character of an image without building it,
from the ranks of the map's weight blocks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from . import linalg
from .linalg import accumulate
from .ncalg import (
    Coeff,
    NCElement,
    coproduct,
    counit,
    antipode_inv,
    column_weight,
    one,
    word_key,
)
from .weights import Weight, weight_key

__all__ = [
    "VerificationError",
    "Comodule",
    "ComoduleMap",
    "comodule_axiom_failures",
    "trivial",
    "tensor",
    "left_dual",
    "torus_project",
    "hom_space",
    "generator_owners",
    "hom_from_generators",
    "are_isomorphic",
    "subspace_comodule",
    "quotient",
    "image",
    "image_character",
    "kernel",
    "generated_subcomodule",
    "comodule_from_regular",
    "weight_decomposition",
    "highest_weight",
    "char_mul",
]


class VerificationError(ValueError):
    """An exact computation contradicts a claim it was meant to verify.

    A ValueError subclass, so callers that catch ValueError still do; the
    command line tool exits 1 on it, not 2 as on a usage error.
    """


class Comodule:
    """A right comodule given by its coaction matrix, and perhaps its weights.

    The dimension is the number of rows of the matrix.  The matrix may
    instead be given as a function k -> row k, together with the weights;
    the dimension is then the number of weights.  `row(k)` calls that
    function, and the first read of `coaction` builds every row and keeps
    the matrix, which `row` then reads.  Raises ValueError when such a
    function comes without weights, when the matrix is not square, or when
    the weights do not match its size.
    """

    __slots__ = ("dim", "_coaction", "_weights")

    def __init__(
        self,
        coaction: Sequence[Sequence[NCElement]] | Callable[[int], Sequence[NCElement]],
        weights: Sequence[Weight] | None = None,
    ):
        self._weights = None if weights is None else tuple(weights)
        if callable(coaction):
            if self._weights is None:
                raise ValueError("a coaction given as a function needs its weights")
            self.dim = len(self._weights)
            self._coaction = coaction
        else:
            self.dim = len(coaction)
            self._coaction = self._square(coaction)
        if self._weights is not None and len(self._weights) != self.dim:
            raise ValueError(f"expected {self.dim} weights, got {len(self._weights)}")

    def _square(self, coaction) -> tuple[tuple[NCElement, ...], ...]:
        rows = tuple(map(tuple, coaction))
        if len(rows) != self.dim or any(len(row) != self.dim for row in rows):
            raise ValueError(f"coaction must be a {self.dim} x {self.dim} matrix")
        return rows

    def row(self, k: int) -> Sequence[NCElement]:
        """Row k of the coaction: computed when given as a function, read once built."""
        return self._coaction(k) if callable(self._coaction) else self._coaction[k]

    @property
    def coaction(self) -> tuple[tuple[NCElement, ...], ...]:
        """The coaction matrix, built row by row on first read when given as a function."""
        if callable(self._coaction):
            self._coaction = self._square(map(self._coaction, range(self.dim)))
        return self._coaction

    @property
    def weights(self) -> tuple[Weight, ...]:
        """The torus weight of each basis vector.

        Either carried in by the constructor that built the comodule
        (tensor, left_dual and the builders of standard derive them from their
        inputs' weights) or read off the coaction pushed into the torus
        quotient on first use, and kept, since the coaction never changes.
        The scan raises ValueError when the basis is not torus-diagonal:
        some projected entry off the diagonal is nonzero, or one on it is
        not a single weight with coefficient 1.
        """
        if self._weights is None:
            weights = []
            for i, row in enumerate(self.coaction):
                for j, entry in enumerate(row):
                    projected = torus_project(entry)
                    if i == j and len(projected) == 1 and 1 in projected.values():
                        weights.extend(projected)
                    elif projected or i == j:
                        raise ValueError("the basis is not torus-diagonal")
            self._weights = tuple(weights)
        return self._weights

    def __repr__(self):
        return f"Comodule(dim={self.dim})"


class ComoduleMap:
    """A linear map between comodules, stored as its columns.

    columns[i] = {k: F[k][i]}, with no zeros, is the image f(v_i).  Raises
    ValueError unless there are source.dim columns, each with its target
    indices in range(target.dim).
    """

    __slots__ = ("source", "target", "columns")

    def __init__(self, source: Comodule, target: Comodule, columns: Iterable[dict]):
        self.source = source
        self.target = target
        self.columns = tuple(columns)
        if len(self.columns) != source.dim:
            raise ValueError(f"expected {source.dim} columns, got {len(self.columns)}")
        if any(not 0 <= k < target.dim for column in self.columns for k in column):
            raise ValueError(f"a column has a target index outside range({target.dim})")

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense matrix F, written out from the columns on each read."""
        rows = [[Fraction(0)] * self.source.dim for _ in range(self.target.dim)]
        for i, column in enumerate(self.columns):
            for k, x in column.items():
                rows[k][i] = x
        return tuple(map(tuple, rows))

    def rank(self) -> int:
        return linalg.rank(self.columns)

    def is_isomorphism(self) -> bool:
        return self.source.dim == self.target.dim and self.rank() == self.source.dim

    def is_intertwiner(self) -> bool:
        """Whether sum_k C_Y[k][m] F[k][i] = sum_j C_X[i][j] F[m][j] for all i, m.

        Only the nonzero entries of F are visited: for each row i of X's
        coaction, the left side collects column i of F against the rows of
        Y's coaction, and the right side column j of F against C_X[i][j].
        X's rows are read one at a time through X.row, so a source given
        by its row function is never held whole.
        """
        X, Y = self.source, self.target
        # the condition is linear in F, so an integer multiple of F will do
        scale = lcm(*(x.denominator for column in self.columns for x in column.values()))
        columns = [
            [(k, x.numerator * (scale // x.denominator)) for k, x in column.items()]
            for column in self.columns
        ]
        target_rows = Y.coaction
        for i, coaction_row in enumerate(map(X.row, range(X.dim))):
            difference = accumulate({}, (
                ((m, w), c * f)
                for k, f in columns[i]
                for m, entry in enumerate(target_rows[k])
                for w, c in entry.items()
            ))
            accumulate(difference, (
                ((m, w), -c * f)
                for j, entry in enumerate(coaction_row) if columns[j]
                for m, f in columns[j]
                for w, c in entry.items()
            ))
            if difference:
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, ComoduleMap)
            and self.columns == other.columns
            and self.source.dim == other.source.dim
            and self.target.dim == other.target.dim
        )

    def __repr__(self):
        return f"ComoduleMap({self.source.dim} -> {self.target.dim})"


def comodule_axiom_failures(X: Comodule) -> list[str]:
    """Violations of the comodule axioms, empty if X is a comodule."""
    problems = []
    memo: dict = {}
    C = X.coaction
    for i in range(X.dim):
        for j in range(X.dim):
            left = coproduct(C[i][j], memo)
            right = accumulate({}, (
                ((w1, w2), c1 * c2)
                for k in range(X.dim)
                for w1, c1 in C[i][k].items()
                for w2, c2 in C[k][j].items()
            ))
            if left != right:
                problems.append(f"coassociativity fails at entry ({i}, {j})")
            expected = Fraction(1 if i == j else 0)
            if counit(C[i][j]) != expected:
                problems.append(f"counit fails at entry ({i}, {j})")
    return problems


def trivial() -> Comodule:
    return Comodule(((one(),),))


def tensor(X: Comodule, Y: Comodule) -> Comodule:
    """Tensor product; basis (i, p) flattens to i * Y.dim + p.

    The basis vector (i, p) has weight wt_X(i) + wt_Y(p), so the product
    is never scanned; a factor that is not torus-diagonal raises ValueError.
    """
    weights = [Weight(u.i + v.i, u.j + v.j) for u in X.weights for v in Y.weights]
    cx, cy = X.coaction, Y.coaction
    coaction = [
        [
            cx[i][j] * cy[p][q]
            for j in range(X.dim)
            for q in range(Y.dim)
        ]
        for i in range(X.dim)
        for p in range(Y.dim)
    ]
    return Comodule(coaction, weights)


def left_dual(X: Comodule) -> Comodule:
    """The dual comodule built with the inverse antipode.

    The determinant is not central, so the dual taken with the antipode
    itself would be a different twist: left_dual(V) is isomorphic to
    V # R^-1, not to R^-1 # V.

    The entries are S^-1(C[j][i]).  S^-1 sends every letter to one signed
    word, so each word of an entry is rewritten once, and the global
    normal-form cache is read but never grows here.

    S^-1 is an algebra anti-homomorphism, so the dual of a tensor product
    is the tensor product of the duals in reverse order, entry for entry:
    left_dual(X # Y)[(i, p)][(j, q)] = (left_dual(Y) # left_dual(X))[(p, i)][(q, j)].
    standard._dual writes the same entries for one part of a factor word,
    so standard.build_delta dualizes the parts only, never their product.

    The basis vector *i has weight -wt_X(i).
    """
    weights = [Weight(-w.i, -w.j) for w in X.weights]
    C = X.coaction
    coaction = [[antipode_inv(C[j][i]) for j in range(X.dim)] for i in range(X.dim)]
    return Comodule(coaction, weights)


# ---------------------------------------------------------------------------
# Torus weights

def torus_project(element: NCElement) -> dict[Weight, Fraction]:
    """Image of an element in the torus quotient, as a Laurent polynomial."""
    projected = ((_torus_weight(word), coeff) for word, coeff in element.items())
    return accumulate({}, ((w, coeff) for w, coeff in projected if w is not None))


def _torus_weight(word) -> Weight | None:
    """Torus weight of a monomial; None when b or c kills it."""
    if "b" in word or "c" in word:
        return None
    return Weight(*column_weight(word))


def weight_decomposition(X: Comodule) -> dict[Weight, int]:
    """Multiplicities of torus weights; their total equals the dimension."""
    return accumulate({}, ((w, 1) for w in X.weights))


def highest_weight(X: Comodule) -> tuple[Weight, int]:
    decomposition = weight_decomposition(X)
    w = max(decomposition, key=weight_key)
    return w, decomposition[w]


def char_mul(c1: dict[Weight, int], c2: dict[Weight, int]) -> dict[Weight, int]:
    return accumulate(
        {},
        (
            (Weight(w1.i + w2.i, w1.j + w2.j), m1 * m2)
            for w1, m1 in c1.items()
            for w2, m2 in c2.items()
        ),
    )


# ---------------------------------------------------------------------------
# Hom spaces

def _intertwiners(wx, wy, x_rows, y_row) -> list[list[dict[int, Fraction]]]:
    """Reduced basis of the maps F: X -> Y intertwining the given rows of C_X.

    wx and wy are the basis weights of X and Y.  x_rows holds pairs (i,
    row i of C_X), a row being a sequence of entries, and y_row(k) is row
    k of C_Y as (m, C_Y[k][m]) pairs, read only where wy[k] == wx[i].  A
    column m may come more than once, its entries adding up, and a column
    m >= len(wy) lies outside Y's basis, where only C_Y enters.  Entries
    need only .items().  Row i of the condition says sum_k C_Y[k][m]
    F[k][i] = sum_j C_X[i][j] F[m][j] for every m, entrywise over the
    words.  A comodule map preserves torus weights, so the unknowns are
    the F[k][i] with wy[k] == wx[i], k-major, and column j meets only the
    targets m of weight wx[j].  Empty and repeated equations are dropped;
    their order does not matter, since the reduced echelon form, and so
    the basis, is unique.
    Each basis map is its list of columns, the sparse dicts {k: F[k][i]}.
    When no weight of X is a weight of Y there are no unknowns, and [] is
    returned before any row is read.

    >>> from .ncalg import gen
    >>> C = ((gen("a"), gen("b")), (gen("c"), gen("d")))
    >>> w = (Weight(1, 0), Weight(0, 1))
    >>> _intertwiners(w, w, enumerate(C), lambda k: enumerate(C[k])) == [[{0: 1}, {1: 1}]]
    True
    """
    if set(wx).isdisjoint(wy):
        return []
    targets = {w: [k for k, v in enumerate(wy) if v == w] for w in set(wy)}
    unknowns = [(k, i) for k, w in enumerate(wy) for i, v in enumerate(wx) if v == w]
    index = {pair: n for n, pair in enumerate(unknowns)}
    equations: list[dict[int, Fraction]] = []
    seen: set[frozenset] = set()
    for i, row in x_rows:
        per_entry: dict[tuple, dict[int, Fraction]] = {}
        for k in targets.get(wx[i], ()):
            var = index[k, i]
            for m, entry in y_row(k):
                for w, c in entry.items():
                    accumulate(per_entry.setdefault((m, w), {}), ((var, c),))
        for j, entry in enumerate(row):
            for m in targets.get(wx[j], ()):
                var = index[m, j]
                for w, c in entry.items():
                    accumulate(per_entry.setdefault((m, w), {}), ((var, -c),))
        for equation in per_entry.values():
            key = frozenset(equation.items())
            if key and key not in seen:
                seen.add(key)
                equations.append(equation)
    maps = []
    for solution in linalg.nullspace_sparse(equations, len(unknowns)):
        columns = [{} for _ in wx]
        for n, c in solution.items():
            k, i = unknowns[n]
            columns[i][k] = c
        maps.append(columns)
    return maps


def hom_space(X: Comodule, Y: Comodule) -> list[ComoduleMap]:
    """Basis of the space of comodule maps X -> Y.

    The intertwining condition, entrywise over normal words, is a sparse
    homogeneous linear system in the matrix entries, solved by
    _intertwiners on every row of X's coaction.  Raises ValueError,
    through Comodule.weights, when either basis is not torus-diagonal.
    """
    solutions = _intertwiners(
        X.weights, Y.weights, enumerate(X.coaction), lambda k: enumerate(Y.coaction[k])
    )
    return [ComoduleMap(X, Y, columns) for columns in solutions]


def generator_owners(
    row: Sequence[NCElement], what: Callable[[], str]
) -> dict[tuple, tuple[int, Coeff]]:
    """The owner table of a generating row: w_j -> (j, c_j) for each entry c_j w_j.

    The row is row v of a coaction, and a_w is the coefficient vector of
    the normal word w in it; the a_w span the subcomodule that v generates.
    Each entry j must be one term c_j w_j, and no word may appear twice.
    Then a_{w_j} = c_j e_j, so the a_w span the whole comodule and v
    generates it (standard.canonical_map, hom_from_generators).  Otherwise
    VerificationError is raised, its message starting with what(), which
    is called only then.
    """
    owner: dict[tuple, tuple[int, Coeff]] = {}
    for j, entry in enumerate(row):
        if len(entry.items()) == 1:
            ((w, c),) = entry.items()
            owner[w] = j, c
    if len(owner) != len(row):
        raise VerificationError(
            f"{what()}, or its row is not {len(row)} entries of one distinct word each"
        )
    return owner


def hom_from_generators(
    sources: Sequence[tuple[Comodule, int]], targets: Sequence[Comodule]
) -> list[list[list[ComoduleMap]]]:
    """Basis of Hom(X, Y) for each source (X, v) and target Y, read off row v of X.

    Returns maps[s][t], the basis of the maps from source s to target t.
    Row v of each X must show that v generates X (generator_owners); it is
    read once, before any target.  Each target's basis is indexed by
    weight once, and only its rows at a weight wt(v) of some source are
    read, each at most once; they are dropped before the next target's.
    hom_space solves the same spaces from every row of X.

    - A comodule map F is fixed by y = F(v), since v generates X, and y
      lies in Y's weight-wt(v) space, since F keeps torus weights.  So the
      unknowns are the coordinates s_u of y = sum_u s_u e_u over the basis
      vectors u of Y of weight wt(v).
    - Let a_w and b_w(y) be the coefficient vectors of the normal word w
      in the coaction rows of v and of y, b_w(y)[m] = sum_u s_u (coefficient
      of w in C_Y[u][m]).  The intertwining condition at v reads F a_w =
      b_w(y) for every w.  At the word w_j owned by entry j it reads c_j
      F[m][j] = b_{w_j}(y)[m], which must vanish when wt(m) != wt(j); at a
      word with no owner it reads 0 = b_w(y).  So there is one equation
      sum_u s_u (coefficient of w in C_Y[u][m]) = 0 for each (m, w) where w
      has no owner or its owner j has wt(j) != wt(m), and each solution s
      gives the map F[m][j] = b_{w_j}(y)[m] / c_j.  On comodules the
      equations of owned words follow from the others, since the proof
      below needs only those and a comodule map keeps weights; they stay
      as a check that the map is weight-blocked.

    Why each solution is a comodule map: standard.canonical_map's proof
    with s w+ replaced by y.  A comodule is a module over the dual algebra
    O*, and a linear map of comodules is a comodule map exactly when it
    commutes with every psi in O*.  With delta_w dual to the normal word w,
    a_w = delta_w . v and b_w(y) = delta_w . y, so the equations say
    F(phi . v) = phi . y for every phi in O*.  For x = phi . v,
    coassociativity gives psi . x = (psi phi) . v, hence F(psi . x) =
    (psi phi) . y = psi . F(x), and these x span X.  So X and Y must be
    comodules (standard.comodule_certificate shows it for Delta, nabla and
    M), and F -> F(v) is one-to-one, so the maps are a basis.

    >>> from .ncalg import gen
    >>> V = Comodule(((gen("a"), gen("b")), (gen("c"), gen("d"))))
    >>> [[f.columns for f in maps] for (maps,) in hom_from_generators([(V, 0), (V, 1)], [V])]
    [[({0: Fraction(1, 1)}, {1: Fraction(1, 1)})], [({0: Fraction(1, 1)}, {1: Fraction(1, 1)})]]
    """
    owners = [
        generator_owners(X.row(v), lambda: f"{X!r} is not generated by basis vector {v}")
        for X, v in sources
    ]
    maps: list[list[list[ComoduleMap]]] = [[] for _ in sources]
    # target-major, so that only one target's rows are held at a time
    for Y in targets:
        wy = Y.weights
        by_weight: dict[Weight, list[int]] = {}
        for k, w in enumerate(wy):
            by_weight.setdefault(w, []).append(k)
        terms: dict[int, list[tuple]] = {}  # k -> the terms (m, w, c) of row k of C_Y
        for (X, v), owner, per_source in zip(sources, owners, maps):
            wx = X.weights
            vectors = by_weight.get(wx[v])
            if vectors is None:
                per_source.append([])
                continue
            equations: dict[tuple, dict[int, Coeff]] = {}
            read_off = []
            for n, u in enumerate(vectors):
                row = terms.get(u)
                if row is None:
                    row = terms[u] = [
                        (m, w, c) for m, entry in enumerate(Y.row(u)) for w, c in entry.items()
                    ]
                for m, w, c in row:
                    hit = owner.get(w)
                    if hit is not None and wx[hit[0]] == wy[m]:
                        read_off.append((n, hit[0], m, Fraction(c, hit[1])))
                    else:
                        accumulate(equations.setdefault((m, w), {}), ((n, c),))
            # each equation once, as in _intertwiners; one that cancelled to {} says nothing
            distinct = {frozenset(e.items()): e for e in equations.values() if e}
            per_target = []
            for solution in linalg.nullspace_sparse(list(distinct.values()), len(vectors)):
                columns: list[dict[int, Fraction]] = [{} for _ in wx]
                for n, j, m, x in read_off:
                    if n in solution:
                        accumulate(columns[j], ((m, solution[n] * x),))
                per_target.append(ComoduleMap(X, Y, columns))
            per_source.append(per_target)
    return maps


def are_isomorphic(X: Comodule, Y: Comodule) -> bool:
    """Whether some comodule map X -> Y is invertible.

    Exact when the dimensions differ, when some basis map of Hom(X, Y) is
    invertible, and when Hom(X, Y) has dimension at most 1, since every
    map is then a multiple of the one basis map.  With two or more basis
    maps and none invertible, a combination of them may still be, so
    RuntimeError("inconclusive ...") is raised instead of a possibly
    wrong False.
    """
    if X.dim != Y.dim:
        return False
    if X.dim == 0:
        return True
    maps = hom_space(X, Y)
    if any(f.is_isomorphism() for f in maps):
        return True
    if len(maps) <= 1:
        return False
    raise RuntimeError(
        f"inconclusive: Hom has dimension {len(maps)} and no basis map is invertible"
    )


# ---------------------------------------------------------------------------
# Subquotients

def _close(echelon: linalg.Echelon, components) -> tuple[list[dict], list[list[NCElement]]]:
    """Grow the span until the components of every reduced basis row lie in it.

    components(row) is the coaction of a vector as {word: sparse vector}.
    Returns the rows, in increasing leading column, and the coaction on
    them: each component is the combination of the rows given by its
    entries at their leading columns.  On a comodule the loop makes at
    most two passes: the components of rho(v) span the subcomodule that v
    generates (coassociativity, and the counit for v itself).
    """
    grew = True
    while grew:
        rows = echelon.basis()
        parts = [components(row) for row in rows]
        inserted = [echelon.insert(vector) for part in parts for vector in part.values()]
        grew = any(inserted)
    position = {min(row): q for q, row in enumerate(rows)}
    coaction = []
    for part in parts:
        entries = [{} for _ in rows]
        for w, vector in part.items():
            for column, c in vector.items():
                if column in position:
                    entries[position[column]][w] = c
        coaction.append([NCElement(entry) for entry in entries])
    return rows, coaction


def _coaction_components(X: Comodule, vector: dict) -> dict[tuple, dict[int, Fraction]]:
    """rho(vector) as {word: sparse vector over the basis of X}.

    The vector maps basis indices of X to coefficients.
    """
    pairs: dict = {}
    rows = X.coaction
    for i, c in vector.items():
        for j, entry in enumerate(rows[i]):
            for w, e in entry.items():
                pairs.setdefault(w, []).append((j, c * e))
    return {w: accumulate({}, column) for w, column in pairs.items()}


def _closed_span(X: Comodule, vectors: Iterable) -> tuple[list[dict], list[list[NCElement]]]:
    """_close on the span of the vectors; ValueError if closing grew it."""
    echelon = linalg.Echelon(vectors)
    rank = len(echelon)
    rows, coaction = _close(echelon, lambda row: _coaction_components(X, row))
    if len(rows) != rank:
        raise ValueError("span is not closed under the coaction")
    return rows, coaction


def _with_inclusion(X: Comodule, rows: list[dict], coaction) -> tuple[Comodule, ComoduleMap]:
    # the echelon rows are the inclusion's columns
    sub = Comodule(coaction)
    return sub, ComoduleMap(sub, X, rows)


def subspace_comodule(X: Comodule, vectors: Iterable) -> tuple[Comodule, ComoduleMap]:
    """The comodule on a coaction-closed subspace, with its inclusion.

    The vectors are dense sequences or sparse dicts over the basis of X.
    The subcomodule's basis is the reduced echelon basis of their span, so
    the coordinates of a vector of the span are its entries at the leading
    columns.  Raises ValueError if the span is not closed under the
    coaction.
    """
    return _with_inclusion(X, *_closed_span(X, vectors))


def quotient(X: Comodule, vectors: Iterable) -> tuple[Comodule, ComoduleMap]:
    """The quotient by a coaction-closed span, with its projection."""
    rows, _ = _closed_span(X, vectors)
    leading = {min(row): row for row in rows}
    free = {i: q for q, i in enumerate(i for i in range(X.dim) if i not in leading)}
    # modulo the span, the basis vector at a leading column is minus the
    # rest of its row, whose other columns are free, and the free basis
    # vectors are the quotient's basis
    columns = [
        {free[k]: -c for k, c in leading[j].items() if k != j} if j in leading
        else {free[j]: Fraction(1)}
        for j in range(X.dim)
    ]
    parts = [_coaction_components(X, {f: 1}) for f in free]
    coaction = [
        [NCElement({w: sum(c * columns[j].get(q, 0) for j, c in v.items()) for w, v in rho.items()})
         for q in free.values()]
        for rho in parts
    ]
    quo = Comodule(coaction)
    return quo, ComoduleMap(X, quo, columns)


def image(f: ComoduleMap) -> tuple[Comodule, ComoduleMap]:
    """The image subcomodule of the target, with its inclusion."""
    return subspace_comodule(f.target, f.columns)


def image_character(f: ComoduleMap) -> dict[Weight, int]:
    """The character of image(f), from the ranks of f's weight blocks.

    f must be a comodule map (standard.canonical_map certifies its
    result), so its image is a subcomodule and nothing is closed under
    the coaction.  A comodule map preserves torus weights, so F is block
    diagonal by weight: the multiplicity of weight t in the image is the
    rank of the columns of F at the source vectors of weight t, and the
    ranks add up to rank F.  One exact pass over the nonzero entries of F
    checks the blocks first, and raises VerificationError on an entry
    that pairs two different weights.
    """
    wx, wy = f.source.weights, f.target.weights
    blocks: dict[Weight, list[dict[int, Fraction]]] = {}
    for i, column in enumerate(f.columns):
        for k in column:
            if wx[i] != wy[k]:
                raise VerificationError(
                    f"map entry ({k}, {i}) pairs weight {wy[k]} with weight {wx[i]}"
                )
        if column:
            blocks.setdefault(wx[i], []).append(column)
    return {t: linalg.rank(columns) for t, columns in blocks.items()}


def kernel(f: ComoduleMap) -> tuple[Comodule, ComoduleMap]:
    """The kernel subcomodule of the source, with its inclusion."""
    # one equation per target index k, the row {i: F[k][i]}
    rows: list[dict] = [{} for _ in range(f.target.dim)]
    for i, column in enumerate(f.columns):
        for k, x in column.items():
            rows[k][i] = x
    return subspace_comodule(f.source, linalg.nullspace_sparse(rows, f.source.dim))


def generated_subcomodule(X: Comodule, vector: Sequence | dict) -> tuple[Comodule, ComoduleMap]:
    """The smallest subcomodule containing the vector."""
    echelon = linalg.Echelon([vector])
    return _with_inclusion(X, *_close(echelon, lambda row: _coaction_components(X, row)))


# ---------------------------------------------------------------------------
# Comodules inside the regular comodule

def comodule_from_regular(elements: Iterable[NCElement]) -> tuple[Comodule, list[NCElement]]:
    """The subcomodule of O generated by the given elements.

    The span is closed under taking right coproduct components; the
    returned basis elements realize the abstract comodule inside O.  The
    span is row reduced with the normal words as columns in decreasing
    deglex order, so each basis element has coefficient 1 at its largest
    word, its leading word, and no other basis element contains that word.
    The basis comes in increasing order of leading word.
    """
    words: dict[tuple, tuple] = {}

    def column(word) -> tuple:
        length, letters = word_key(word)
        key = (-length, tuple(-x for x in letters))
        words[key] = word
        return key

    def element(row: dict) -> NCElement:
        return NCElement({words[k]: c for k, c in row.items()})

    def components(row: dict) -> dict:
        grouped: dict = {}
        for (w1, w2), coeff in coproduct(element(row)).items():
            grouped.setdefault(w1, {})[column(w2)] = coeff
        return grouped

    echelon = linalg.Echelon({column(w): c for w, c in f.items()} for f in elements)
    rows, coaction = _close(echelon, components)
    coaction = [row[::-1] for row in coaction[::-1]]
    return Comodule(coaction), [element(row) for row in rows[::-1]]

