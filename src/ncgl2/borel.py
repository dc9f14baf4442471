"""Triangular quotients, semi-invariants, and truncated induction.

The quantized coordinate ring has three distinguished quotient algebras,
obtained by killing the strictly-upper letter b, the strictly-lower letter c,
or both:

    lower triangular  O(B)   = O / (b)
    upper triangular  O(B+)  = O / (c)
    diagonal torus    O(T)   = O / (b, c)

None of these is simply "drop the letter from normal words": killing a letter
collapses relations (for example da = bc + delta forces da = delta in both
triangular quotients, so a and d become inverses of each other up to delta).
Each quotient therefore carries its own monomial basis:

  * O(B):  a^s . w with s an integer and w a word in c, d, d^{-1}, where
    a is central and only d and d^{-1} cancel;
  * O(B+): d^s . w with s an integer and w a word in b, a, a^{-1};
  * O(T):  Laurent monomials a^i d^j, projected by
    `comodules.torus_project`.

The module provides the two triangular projections, the group-like
characters g_t, the diagram flip psi (a Hopf automorphism exchanging the two
triangular quotients), semi-invariant vectors of comodules, an exact
certificate for the socle claim, and the truncated induction spaces, i.e.
elements of bounded length in the coordinate ring that transform by g_t
under the right triangular coaction.  Costandard comodules are induced
from the Borel quotient (Jantzen, Representations of Algebraic Groups,
I.3), so the truncated induction space is a space of B-semi-invariants
too: both are the maps from the line g_t into a comodule, solved by
_maps_from_line, and for induction the comodule is spanned by the normal
words of column weight t in O_{<=n}.

>>> from .ncalg import gen
>>> BOREL_LOWER.project(gen("b"))
{}
>>> sorted(BOREL_LOWER.project(gen("D")).items())
[((1, ('d',)), 1)]
>>> from .weights import Weight
>>> [len(induced_truncated(Weight(0, 1), n)) for n in (1, 2, 3)]
[2, 2, 6]
"""

from __future__ import annotations

from .ncalg import (
    NCElement,
    Word,
    column_weight,
    coproduct,
    enumerate_basis,
    normal_form,
)
from .weights import Weight, _reduce
from .comodules import (
    Comodule,
    _intertwiners,
    generated_subcomodule,
    weight_decomposition,
)
from . import linalg
from .linalg import accumulate

__all__ = [
    "TriangularQuotient",
    "BOREL_LOWER",
    "BOREL_UPPER",
    "psi",
    "semi_invariants",
    "every_subcomodule_contains",
    "induced_truncated",
    "induced_predicted",
]


class TriangularQuotient:
    """A quotient of the coordinate ring with a monomial basis.

    Basis keys are pairs (s, word): s is the exponent of the central
    invertible generator and word is a reduced word in the residual letters.
    The reduction, weights._reduce, cancels adjacent inverse pairs (named
    in `inverses`) and nothing else.  `letter_image` maps each of the six
    generators to a key (or None when the generator is killed); `project`
    pushes a whole element of the coordinate ring through the quotient.
    """

    def __init__(self, name, letter_image, inverses):
        self.name = name
        self._letter_image = letter_image
        self._inverses = inverses

    @property
    def one_key(self):
        return (0, ())

    def multiply(self, k1, k2):
        return (k1[0] + k2[0], _reduce(k1[1] + k2[1], self._inverses))

    def project_word(self, word: Word):
        """Image of a monomial, the letter images joined and reduced once
        (cancellation is confluent); None when some letter is killed."""
        s, letters = 0, []
        for letter in word:
            image = self._letter_image[letter]
            if image is None:
                return None
            s += image[0]
            letters += image[1]
        return s, _reduce(letters, self._inverses)

    def project(self, element: NCElement) -> dict:
        projected = ((self.project_word(word), coeff) for word, coeff in element.items())
        return accumulate({}, ((key, coeff) for key, coeff in projected if key is not None))

    def grouplike(self, t: Weight):
        """The character key g_t, the image of a^i d^j for t = (i, j).

        a and d survive in every quotient and their images are invertible,
        so every integral weight has one, reduced once from |i| + |j| images.
        """
        s, letters = 0, ()
        for letter, power in (("a", t.i), ("d", t.j)):
            exponent, word = self._letter_image[letter]
            if power < 0:
                word = tuple(self._inverses[x] for x in reversed(word))
            s += exponent * power
            letters += word * abs(power)
        return s, _reduce(letters, self._inverses)

    def __repr__(self):
        return f"TriangularQuotient({self.name})"


BOREL_LOWER = TriangularQuotient(
    name="B",
    letter_image={
        "a": (1, ()),
        "b": None,
        "c": (0, ("c",)),
        "d": (0, ("d",)),
        "D": (1, ("d",)),
        "Di": (-1, ("di",)),
    },
    inverses={"d": "di", "di": "d"},
)
BOREL_UPPER = TriangularQuotient(
    name="B+",
    letter_image={
        "a": (0, ("a",)),
        "b": (0, ("b",)),
        "c": None,
        "d": (1, ()),
        "D": (1, ("a",)),
        "Di": (-1, ("ai",)),
    },
    inverses={"a": "ai", "ai": "a"},
)


_PSI_SWAP = {"a": "d", "d": "a", "b": "c", "c": "b", "D": "D", "Di": "Di"}


def psi(element: NCElement) -> NCElement:
    """The diagram flip: the Hopf automorphism a <-> d, b <-> c, delta fixed.

    It is an involution and exchanges the two triangular quotients, so it
    transports lower semi-invariants to upper ones.  The letter swap is a
    bijection on words, so the swapped terms never collide.
    """
    swapped = {tuple(_PSI_SWAP[letter] for letter in word): c for word, c in element.items()}
    return NCElement._raw(normal_form(swapped))


# ---------------------------------------------------------------------------
# semi-invariants of comodules


def semi_invariants(X: Comodule, quotient: TriangularQuotient, t: Weight):
    """Vectors x with rho(x) = g_t (x) x after pushing into the quotient.

    Returns a reduced basis, each vector a sparse dict {i: x_i} over the
    basis of X without zeros.  For a costandard comodule and the upper
    quotient the space is a line when t is the top weight and zero at
    every other weight.

    The vectors are the maps, over the quotient, into X from the line of
    weight t with coaction g_t, solved by `_maps_from_line`.  With
    C[i][j] the coaction pushed into the quotient, the equations say
    sum_i x_i C[i][j] = x_j g_t for every j, one per key of the quotient.
    Only the rows of the basis vectors of weight t enter them, which is
    exact.  The torus quotient factors through both triangular quotients,
    and on the torus-diagonal basis of X it sends C[i][j] to
    delta_ij g_{wt i}.  So a solution has x_i (g_{wt i} - g_t) = 0 for
    every i and is supported on the weight-t vectors, the solver's
    unknowns, whose rows alone are projected.  The system in them has the
    same solutions, and its reduced basis, indexed by the basis of X, is
    the full system's reduced basis.
    """
    return _maps_from_line(
        quotient, t, X.weights, lambda k: enumerate(map(quotient.project, X.coaction[k]))
    )


def _maps_from_line(quotient: TriangularQuotient, t: Weight, weights, row) -> list[dict]:
    """The maps from the line g_t into the comodule of basis weights `weights`
    and rows row(k), by comodules._intertwiners, each its column {k: x_k};
    [] before g_t is built when no basis weight is t, as the solver would."""
    if t not in weights:
        return []
    line = [(0, [{quotient.grouplike(t): 1}])]
    return [column for (column,) in _intertwiners([t], weights, line, row)]


def every_subcomodule_contains(X: Comodule, index: int) -> bool:
    """Whether every nonzero subcomodule of X contains basis vector index.

    Exact.  O(B+) is generated by grouplikes and skew-primitives, so it is
    pointed (Montgomery, Hopf Algebras and Their Actions on Rings, 5.5.1)
    and every nonzero subcomodule holds an upper semi-invariant of some
    torus weight of X.  So it is enough that each semi-invariant line
    generates a subcomodule containing the vector; a semi-invariant space
    of dimension > 1 raises RuntimeError instead.
    """
    for t in weight_decomposition(X):
        lines = semi_invariants(X, BOREL_UPPER, t)
        if len(lines) > 1:
            raise RuntimeError(f"inconclusive: {len(lines)}-dim semi-invariant space at {t}")
        for vector in lines:
            _, incl = generated_subcomodule(X, vector)
            if linalg.Echelon(incl.columns).insert({index: 1}):
                return False
    return True


# ---------------------------------------------------------------------------
# truncated induction


def induced_truncated(t: Weight, n: int) -> list[NCElement]:
    """Basis of {f in O, len <= n : (1 (x) pi_B) Delta(f) = f (x) g_t}.

    The right-hand leg of the coproduct is pushed into the lower triangular
    quotient; solutions transform like the character g_t under the right
    B-coaction.  Returns a reduced basis, deterministic in the graded word
    order.

    It is the semi-invariant solve of `semi_invariants`, run by
    `_maps_from_line`: the maps from the line g_t into the span of
    the normal words of column weight t, in which row k of words[k] holds
    the pairs (index of u, {pi_B(v): c}) for the terms c u (x) v of
    coproduct(words[k]).  A left leg u that is not one of the words gets
    a fresh index after them; the line has no such column, so there the
    equation says the sum vanishes.

    Only the normal words of column weight t enter the system, which is
    exact.  The right leg v of every coproduct term of a word w has the
    column weight of w (see `column_weight`), and so does its key pi_B(v);
    g_t has weight t.  So for the part f' of f in the other weights the
    equation says (1 (x) pi_B) Delta(f') = 0, and the counit, which
    factors through pi_B, turns that into f' = 0.  What is left is the
    system in the weight-t words, whose reduced basis is the full system's
    basis with the zero coordinates dropped.
    """
    words = [w for w in enumerate_basis(n) if column_weight(w) == t]
    index = {w: k for k, w in enumerate(words)}

    def row(k):
        for (u, v), c in coproduct(NCElement._raw({words[k]: 1})).items():
            key = BOREL_LOWER.project_word(v)
            if key is not None:
                yield index.setdefault(u, len(index)), {key: c}

    solutions = _maps_from_line(BOREL_LOWER, t, [t] * len(words), row)
    return [NCElement({words[k]: c for k, c in column.items()}) for column in solutions]


def induced_predicted(t: Weight, n: int) -> list[Word]:
    """Monomial semi-invariants, a subset of the truncated induction.

    These are the normal words in b, d, delta^{+-1} (no a, no c) of
    length at most n, grown by `enumerate_basis` over those letters,
    whose right B-character is g_t; the character of such a word is its
    column weight (`column_weight`).
    Outside the dominant cone the list is empty.  They span the whole
    induction only at the bounds where `check induced` passes, n <= 4: at
    t = a^-1 with n = 5 they give 8 of the 20 dimensions
    `induced_truncated` solves, missing elements such as
    b*Di^2*b*a - a*Di^2*b^2 that contain a or c.
    """
    return [w for w in enumerate_basis(n, ("b", "d", "D", "Di")) if column_weight(w) == t]
