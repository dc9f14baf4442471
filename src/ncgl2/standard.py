"""Named comodules and highest-weight structure.

Catalog of the distinguished comodules over the quantized 2x2 coordinate
ring: the defining comodule V, the determinant powers R^k, symmetric powers
S^y V, their twisted duals T^y V, the monoid comodules M(lam), the costandard
comodules nabla(lam) and standard comodules Delta(lam), the simple socles
L(lam), and the combinatorics that glues them together (filtration multisets,
formal characters, the layer decomposition of the coordinate ring).

A tensor-built comodule is named by a factor word, a tuple of (kind, n)
pairs: ("S", y) is S^y V, ("T", y) is T^y V and ("R", k) is R^k.  One
table, _FACTORS, gives each kind two columns: its character (whose
weights come in basis order) and its entry function (n, k, l) -> the
coaction entry at (k, l).  The entry of S^y V is a sum of binomially many
normal words, which build_SymV writes entry by entry; that of R^k is D^k
or Di^-k; that of T^y V is S^-1 of the transposed S^y V entry times D.
_factor_parts reads a word as parts, merging each line into a neighbour,
and _dual dualizes a part.  Four interpreters read them: factor_comodule
(for nabla, M and the classifier's blocks) and build_delta (on the dual
parts) give comodules whose rows are products of part rows, computed only
when read, and factor_char and factor_dim read characters and dimensions
without building anything.  canonical_map reads one row of Delta(lam)
and one of nabla(lam) from those builders.

Everything is indexed by words lam in the weight monoid of `weights`.  The
factor word of nabla(lam) (nabla_factors) sends delta^x to R^x and each run
d^y of d's to S^y V; that of M(lam) (monoid_factors) sends d^y to y copies
of V = S^1 V instead.  The simples classifier names L(lam) by a factor word
too.

Delta(lam) is the dual of nabla(star_inv(lam)) taken with the inverse
antipode, which is the dual for which V* (x) R ~ V; since the determinant is
not central the two duals genuinely differ and only this one makes the
canonical map Delta(lam) -> nabla(lam) exist.

>>> from .weights import parse_lambda
>>> build_nabla(parse_lambda("d^2")).dim
3
>>> sorted(str(m) for m in nabla_multiset(parse_lambda("d^4")).elements())
['D.d^2', 'D^2', 'd.D.d', 'd^2.D', 'd^4']
>>> build_L(parse_lambda("d.Di.d"))[0].dim
3
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, partial
from math import prod
from itertools import combinations, product
from typing import Callable, NamedTuple, Sequence

from .ncalg import (
    LETTERS,
    RULES,
    NCElement,
    antipode_inv,
    coproduct,
    counit,
    enumerate_basis,
    gen,
    render_word,
)
from .weights import LambdaWord, Weight
from .comodules import (
    Comodule,
    ComoduleMap,
    VerificationError,
    char_mul,
    comodule_axiom_failures,
    generated_subcomodule,
    image,
    left_dual,
    tensor,
)
from .linalg import accumulate

__all__ = [
    "build_V",
    "build_R",
    "build_SymV",
    "build_TV",
    "build_M",
    "build_nabla",
    "build_delta",
    "canonical_map",
    "comodule_certificate",
    "build_L",
    "nabla_multiset",
    "delta_multiset",
    "factor_comodule",
    "factor_char",
    "factor_dim",
    "nabla_factors",
    "monoid_factors",
    "char_R",
    "char_S",
    "char_T",
    "char_M",
    "char_nabla",
    "char_delta",
    "decompose_layer",
    "layer_dimension",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# basic comodules


def build_V() -> Comodule:
    """The defining two dimensional comodule, rho(e_i) = sum_j C[i][j] (x) e_j."""
    return Comodule(((gen("a"), gen("b")), (gen("c"), gen("d"))))


def build_R(k: int = 1) -> Comodule:
    """The determinant line R^k; k may be negative (then delta^{-|k|} coacts)."""
    return Comodule(((_det_entry(k, 0, 0),),))


def _det_entry(k: int, i: int, j: int) -> NCElement:
    """The one coaction entry of R^k: D^k, or Di^-k when k < 0."""
    return NCElement._raw({("D",) * k if k >= 0 else ("Di",) * -k: 1})


def build_SymV(y: int) -> Comodule:
    """Symmetric power S^y V on monomial lines m_0 .. m_y, entry by entry (_sym_entry)."""
    if y < 0:
        raise ValueError("symmetric power needs y >= 0")
    entries = [[_sym_entry(y, k, l) for l in range(y + 1)] for k in range(y + 1)]
    return Comodule(entries)


def _sym_entry(y: int, k: int, l: int) -> NCElement:
    """The coaction entry P[k][l] of S^y V.

    It is the coefficient of x^(y-l) y^l in rho(x)^(y-k) rho(y)^k: the sum
    of the words whose t-th letter has row 1 for t < y - k and row 2
    after, with l letters in column 2.  Every such word is already normal:
    its row-1 letters come before its row-2 letters, while the left side
    of every rule puts a row-2 letter before a row-1 letter or contains D
    or Di.  The words are distinct, so each coefficient is 1.
    """
    row_letters = [("a", "b")] * (y - k) + [("c", "d")] * k
    terms = {}
    # the y - l positions in column 1
    for column1 in combinations(range(y), y - l):
        word = [pair[1] for pair in row_letters]
        for t in column1:
            word[t] = row_letters[t][0]
        terms[tuple(word)] = 1
    return NCElement._raw(terms)


def build_TV(y: int) -> Comodule:
    """The twisted dual T^y V = (S^y V)* (x) R, again of dimension y + 1.

    T^0 V ~ R and T^1 V ~ V; for y >= 2 the comodule is not isomorphic to
    S^y V even though the characters agree up to a determinant twist.
    """
    return tensor(left_dual(build_SymV(y)), build_R(1))


def _twisted_entry(y: int, k: int, l: int) -> NCElement:
    """The coaction entry of T^y V at (k, l): S^-1(P[l][k]) * D, as build_TV tensors it."""
    return antipode_inv(_sym_entry(y, l, k)) * _det_entry(1, 0, 0)


def char_R(k: int = 1) -> dict[Weight, int]:
    return {Weight(k, k): 1}


def char_S(y: int) -> dict[Weight, int]:
    return {Weight(y - k, k): 1 for k in range(y + 1)}


def char_T(y: int) -> dict[Weight, int]:
    """Character of T^y V: the S^y V character shifted by (ad)^{1-y}."""
    return {Weight(k - y + 1, 1 - k): 1 for k in range(y + 1)}


# ---------------------------------------------------------------------------
# factor words


Factor = tuple[str, int]


class _Kind(NamedTuple):
    char: Callable[[int], dict[Weight, int]]
    entry: Callable[[int, int, int], NCElement]


# the one place that says what each factor kind's character and coaction
# entries are; each character lists the basis weights in basis order
_FACTORS = {
    "S": _Kind(char_S, _sym_entry),
    "T": _Kind(char_T, _twisted_entry),
    "R": _Kind(char_R, _det_entry),
}


Part = tuple[tuple[Weight, ...], Callable[[int, int], NCElement]]


def _merged(left: Part, right: Part) -> Part:
    """The part left # right, one of them a line: weights summed, entries times the line's."""
    (left_weights, left_entry), (right_weights, right_entry) = left, right
    weights = tuple(Weight(u.i + v.i, u.j + v.j) for u in left_weights for v in right_weights)
    if len(left_weights) == 1:
        c = left_entry(0, 0)
        return weights, lambda k, l: c * right_entry(k, l)
    c = right_entry(0, 0)
    return weights, lambda k, l: left_entry(k, l) * c


def _factor_parts(word: Sequence[Factor]) -> list[Part]:
    """The parts of a factor word: weights and entry function (k, l) -> C[k][l].

    Read off _FACTORS; no factor is built.  Each line (a 1-dim factor,
    S^0 V and T^0 V too) merges into the factor after it, and trailing
    lines into the factor before them, so a part is 1-dim only when every
    factor is a line; the empty word is the part R^0.  tensor is strictly
    associative and normal forms are unique, so the parts' product is the
    factors', entry for entry.  The direction keeps dual parts short:
    star_inv(d) = Di.d, so each R^-1 of nabla(star_inv(d^k)) stands just
    before its V, and the dual entry S^-1(Di * x) = S^-1(x) * D cancels
    its D within one rewrite.
    """
    parts: list[Part] = []
    line = None
    for kind, n in word or [("R", 0)]:
        part = tuple(_FACTORS[kind].char(n)), partial(_FACTORS[kind].entry, n)
        part = part if line is None else _merged(line, part)
        line = part if len(part[0]) == 1 else None
        if line is None:
            parts.append(part)
    if line is not None:
        parts[-1:] = [_merged(parts[-1], line)] if parts else [line]
    return parts


def _dual(part: Part, memo: dict) -> Part:
    """The part's left_dual: negated weights, entries S^-1(C[l][k]) rewritten through memo."""
    weights, entry = part
    return tuple(Weight(-w.i, -w.j) for w in weights), lambda k, l: antipode_inv(entry(l, k), memo)


def _product_comodule(parts: Sequence[Part], fold: Callable[[list], dict]) -> Comodule:
    """The comodule on the basis of the parts' product, each row computed when read.

    Row I, with digits (i_1, ..., i_k) (_factor_basis), is fold of the
    part rows P_1[i_1], ..., P_k[i_k] (_factor_row): a dict from the
    digits (j_1, ..., j_k) of each nonzero column to its entry.  With
    fold = _row_product it is row I of P_1 # ... # P_k.
    """
    digits, weights = _factor_basis(parts)
    zero = NCElement()

    def row(k: int) -> list[NCElement]:
        entries = fold([_factor_row(part, i) for part, i in zip(parts, digits[k])])
        return [entries.get(key, zero) for key in digits]

    return Comodule(row, weights)


def factor_comodule(word: Sequence[Factor]) -> Comodule:
    """The tensor product of the factors of a factor word, R^0 if it is empty; rows on read."""
    return _product_comodule(_factor_parts(word), _row_product)


def factor_char(word: Sequence[Factor]) -> dict[Weight, int]:
    """The character of a factor word: the product of its factors' characters."""
    out: dict[Weight, int] = {Weight(0, 0): 1}
    for kind, n in word:
        out = char_mul(out, _FACTORS[kind].char(n))
    return out


def factor_dim(word: Sequence[Factor]) -> int:
    """The dimension of a factor word, summed off its factors' characters; nothing is built."""
    return prod(sum(_FACTORS[kind].char(n).values()) for kind, n in word)


def nabla_factors(lam: LambdaWord) -> tuple[Factor, ...]:
    """The factor word of nabla(lam): delta^x -> R^x and each run d^y -> S^y V."""
    return tuple(("R", n) if kind == "delta" else ("S", n) for kind, n in lam.atoms())


def monoid_factors(lam: LambdaWord) -> tuple[Factor, ...]:
    """The factor word of M(lam): delta^x -> R^x and each run d^y -> y copies of V = S^1 V."""
    word: list[Factor] = []
    for kind, n in lam.atoms():
        word.extend([("R", n)] if kind == "delta" else [("S", 1)] * n)
    return tuple(word)


def build_M(lam: LambdaWord) -> Comodule:
    """The monoid comodule M(lam)."""
    return factor_comodule(monoid_factors(lam))


def build_nabla(lam: LambdaWord) -> Comodule:
    """The costandard comodule nabla(lam)."""
    return factor_comodule(nabla_factors(lam))


def _factor_basis(parts: Sequence[Part]) -> tuple[tuple, tuple]:
    """Digits and weights of the basis of F_1 # ... # F_k, in index order.

    The basis index I = (i_1, ..., i_k) picks basis vector i_t of the
    factor F_t, with i_1 most significant, as tensor flattens; its digits
    are that tuple.  Its torus weight is the sum of the picks' weights,
    since the torus quotient is a Hopf map onto a commutative Hopf algebra.
    """
    digits = tuple(product(*(range(len(weights)) for weights, _ in parts)))
    sums = [(0, 0)]
    for weights, _ in parts:
        sums = [(i + v.i, j + v.j) for i, j in sums for v in weights]
    return digits, tuple(map(Weight._make, sums))


def build_delta(lam: LambdaWord) -> Comodule:
    """The standard comodule Delta(lam) = nabla(star_inv(lam))*.

    The dual is taken with the inverse antipode (`left_dual`), the unique
    choice for which Delta(d) ~ V and more generally Hom(Delta(lam),
    nabla(lam)) is one dimensional.

    nabla(star_inv(lam)) is never built, and Delta(lam)'s rows are computed
    when read.  S^-1 is an anti-homomorphism, so the dual of its parts'
    product P_1 # ... # P_k is L_k # ... # L_1 with L_t = _dual(P_t) and
    the part digits of each basis index reversed: the entry at ((i_1, ...,
    i_k), (j_1, ..., j_k)) is the entry of the reversed product at ((i_k,
    ..., i_1), (j_k, ..., j_1)).  So the fold multiplies the dual rows in
    reverse order and reads each key reversed; all rows share one rewrite
    memo for S^-1.  Normal forms are unique, so the entries equal those of
    left_dual(build_nabla(star_inv(lam))), and so do the weights.
    """
    memo: dict = {}
    duals = [_dual(part, memo) for part in _factor_parts(nabla_factors(lam.star_inv()))]
    return _product_comodule(
        duals, lambda rows: {key[::-1]: e for key, e in _row_product(rows[::-1]).items()}
    )


def _row_product(rows: Sequence[Sequence[NCElement]]) -> dict[tuple, NCElement]:
    """The products rows[0][j_1] * ... * rows[-1][j_k], keyed by (j_1, ..., j_k).

    Row I of a tensor product of comodules, with factor t at row i_t,
    holds these products of the factor rows.  They are folded left to
    right, one factor row at a time, starting from the first row itself;
    zero entries of the factor rows are skipped.  rows is not empty.
    """
    first, *rest = rows
    row = {(j,): e for j, e in enumerate(first) if not e.is_zero()}
    for factor_row in rest:
        entries = [(j, e) for j, e in enumerate(factor_row) if not e.is_zero()]
        row = {key + (j,): element * e for key, element in row.items() for j, e in entries}
    return row


def _factor_row(part: Part, i: int) -> list[NCElement]:
    """Row i of the factor's coaction, entry by entry."""
    weights, entry = part
    return [entry(i, l) for l in range(len(weights))]


@cache
def comodule_certificate() -> tuple[str, ...]:
    """Failures of the certificate that every Delta(lam) and nabla(lam) is a comodule.

    Empty when all of these hold:

    (i)   the letter maps of the coproduct, the counit and S^-1 respect
          every rule of RULES, applied letter by letter to its unreduced
          left side, so they are well defined on O;
    (ii)  S^-1 is an anti-coalgebra map on the six letters:
          Delta S^-1 = (S^-1 # S^-1) tau Delta and epsilon S^-1 = epsilon;
    (iii) V, R and R^-1 pass comodule_axiom_failures;
    (iv)  the entries of V's coaction satisfy the Manin relations ac = ca,
          bd = db and ad + bc = cb + da, so rho(x) = a # x + b # y and
          rho(y) = c # x + d # y extend to an algebra map
          k[x, y] -> O # k[x, y].

    Why that is enough (Sweedler, Hopf Algebras, 1969; Montgomery, Hopf
    Algebras and Their Actions on Rings, 1993, ch. 1): both sides of (ii)
    are anti-algebra maps, so (ii) holds on all of O.  The coproduct is an
    algebra map, so a tensor product of comodules is a comodule, and by
    (ii) so is left_dual of a comodule.  By (iii) and (iv) k[x, y] is a
    comodule algebra, whose degree-y part is S^y V: build_SymV writes the
    coefficients of rho(x)^(y-k) rho(y)^k.  R^k is a tensor power of R or
    R^-1, and a basis permutation keeps a comodule a comodule.  So every
    nabla(lam), and every Delta(lam) built from the duals of its parts
    (each part a tensor product of factors), is a comodule, for every lam.

    Checked once per process; about 2 ms.
    """
    failures = []
    letter_maps = (("coproduct", coproduct), ("counit", counit), ("S^-1", antipode_inv))
    for lhs, rhs in RULES:
        left, right = NCElement._raw({lhs: 1}), NCElement._raw(rhs)
        for name, letter_map in letter_maps:
            if letter_map(left) != letter_map(right):
                failures.append(f"{name} does not respect the rule {render_word(lhs)}")
    for letter in LETTERS:
        x = gen(letter)
        twisted = accumulate({}, (
            ((w1, w2), c * c1 * c2)
            for (u, v), c in coproduct(x).items()
            for w1, c1 in antipode_inv(NCElement._raw({v: 1})).items()
            for w2, c2 in antipode_inv(NCElement._raw({u: 1})).items()
        ))
        if coproduct(antipode_inv(x)) != twisted:
            failures.append(f"S^-1 is not anti-comultiplicative on {letter}")
        if counit(antipode_inv(x)) != counit(x):
            failures.append(f"S^-1 does not keep the counit of {letter}")
    for X in (build_V(), build_R(1), build_R(-1)):
        failures.extend(f"{X!r}: {p}" for p in comodule_axiom_failures(X))
    (a, b), (c, d) = build_V().coaction
    for name, left, right in (
        ("ac = ca", a * c, c * a),
        ("bd = db", b * d, d * b),
        ("ad + bc = cb + da", a * d + b * c, c * b + d * a),
    ):
        if left != right:
            failures.append(f"V's coaction breaks the Manin relation {name}")
    return tuple(failures)


def _weight_index(X: Comodule, target: Weight) -> int:
    """Index of the unique basis vector of torus weight `target`."""
    hits = [i for i, w in enumerate(X.weights) if w == target]
    if len(hits) != 1:
        raise ValueError(
            f"weight {target} has multiplicity {len(hits)}, expected 1"
        )
    return hits[0]


def canonical_map(lam: LambdaWord) -> ComoduleMap:
    """The canonical map Delta(lam) -> nabla(lam), normalized on the top line.

    The map is read off two coaction rows: Delta.row(v+) of
    Delta = build_delta(lam), at its top weight vector v+, and
    Nabla.row(w+) of Nabla = build_nabla(lam), at its top weight vector
    w+.  Both builders compute only the rows that are read, so neither
    comodule is built here.  In a highest-weight category Delta(lam) has
    simple head L(lam) (Cline, Parshall and Scott, J. reine angew. Math.
    391, 1988; Jantzen, Representations of Algebraic Groups, II.4), so v+
    generates it, and a comodule map F is fixed by F(v+), which lies in the
    one dimensional weight-wt(lam) space of nabla(lam): F(v+) = s w+.

    - Each row is a product of one row of each part, as the builders
      compute it: the bases, the digits and Delta's reversed dual fold
      live there.  The S^-1 rewrites of Delta's row share one memo, so
      the normal-form cache does not grow from them.
    - Let a_w and b_w be the coefficient vectors of the normal word w in
      the coaction rows of v+ and w+.  The span of the a_w is the
      subcomodule generated by v+; it must be all of Delta(lam).  No
      echelon is needed: each entry j of the row of v+ must be one term
      c_j w_j, and no word may appear twice.  Then w_j has the owner j,
      a_{w_j} is c_j times the unit vector at j, and the a_w span
      Delta(lam).  So F is fixed by s, and dim Hom <= 1.
    - The intertwining condition at v+ reads F a_w = s b_w for every w,
      in the unknowns F[m][j] that pair basis vectors of equal weight
      (a comodule map keeps torus weights).  w+ is the only basis vector
      of nabla(lam) of v+'s weight, so s is the unknown F[w+][v+].  At
      the word w_j the condition reads c_j F[m][j] = s b_w[m] where
      wt(m) = wt(j), and 0 = s b_w[m] elsewhere; at a word with no owner
      it reads 0 = s b_w.  So if every word of every entry m of the row
      of w+ has an owner j with wt(j) = wt(m), the solutions are s times
      F[m][j] = b_{w_j}[m] / c_j, read off by one lookup per word, and
      otherwise s = 0.  The read-off F[w+][v+] must then equal 1, since
      s = s F[w+][v+]; the counit makes it 1 whenever the rest holds.

    Why the solution is a comodule map.  comodule_certificate shows that
    Delta(lam) and nabla(lam) are comodules.  A comodule is a module over
    the dual algebra O*, by psi . x = sum psi(C[i][j]) x_j for x = x_i
    (Jantzen, Representations of Algebraic Groups, I.2; Montgomery, Hopf
    Algebras and Their Actions on Rings, 1.6), and a linear map between
    comodules is a comodule map exactly when it commutes with every psi
    in O*, since O* separates the points of O.  Let delta_w in O* be the
    functional dual to the normal word w.  Then a_w = delta_w . v+ and
    b_w = delta_w . w+, so the equations say F(delta_w . v+) =
    s delta_w . w+ for every w, and by linearity F(phi . v+) = s phi . w+
    for every phi in O*.  For x = phi . v+, coassociativity along the top
    rows gives psi . x = (psi phi) . v+, hence
    F(psi . x) = s (psi phi) . w+ = psi . (s phi . w+) = psi . F(x).  By
    the generation check these x span Delta(lam), so F commutes with all
    of O*.

    The result is the generator of Hom(Delta(lam), nabla(lam)) whose
    coefficient between the two weight-wt(lam) basis vectors is 1: the
    counit turns F a_w = s b_w into F v+ = s w+.  Its image is the simple
    socle L(lam).  Its source and target are build_delta(lam) and
    build_nabla(lam), whose coactions are built on first read.  Raises
    VerificationError when the certificate fails, when the row of v+ does
    not show that v+ generates Delta(lam), or when the solution space is 0.
    """
    failures = comodule_certificate()
    if failures:
        raise VerificationError("comodule certificate fails: " + "; ".join(failures))
    Delta, Nabla = build_delta(lam), build_nabla(lam)
    weights, target_weights = Delta.weights, Nabla.weights
    top = lam.wt()
    v_plus, w_plus = _weight_index(Delta, top), _weight_index(Nabla, top)
    # owner[w] = (j, c) for the entry c w at j: Delta.dim words exactly
    # when every entry is one term and no word appears twice
    owner: dict[tuple, tuple] = {}
    for j, entry in enumerate(Delta.row(v_plus)):
        if len(entry.items()) == 1:
            ((w, c),) = entry.items()
            owner[w] = j, c
    if len(owner) != Delta.dim:
        raise VerificationError(
            f"Delta({lam}) is not generated by its top weight line,"
            f" or its top row is not {Delta.dim} entries of one distinct word each"
        )
    matrix = [[_ZERO] * Delta.dim for _ in range(Nabla.dim)]
    for m, entry in enumerate(Nabla.row(w_plus)):
        for w, coeff in entry.items():
            hit = owner.get(w)
            if hit is None or weights[hit[0]] != target_weights[m]:
                raise VerificationError(f"Hom(Delta, nabla) for {lam} has dimension 0, expected 1")
            j, c = hit
            matrix[m][j] = Fraction(coeff, c)
    if matrix[w_plus][v_plus] != 1:
        raise VerificationError(f"Hom(Delta, nabla) for {lam} has dimension 0, expected 1")
    return ComoduleMap(Delta, Nabla, matrix)


def build_L(lam: LambdaWord):
    """The simple comodule L(lam) inside nabla(lam).

    Returns (L, inclusion into nabla(lam)).  Constructed as the image of the
    canonical map and cross-checked against the subcomodule of nabla(lam)
    generated by the top weight vector; the two agree because the image is
    simple and contains the top line.
    """
    f = canonical_map(lam)
    L, incl = image(f)
    Nabla = f.target
    top_vec = [_ZERO] * Nabla.dim
    top_vec[_weight_index(Nabla, lam.wt())] = _ONE
    # the columns of each inclusion are the unique reduced basis of its
    # span, so equal spans give equal matrices
    _, gen_incl = generated_subcomodule(Nabla, top_vec)
    if incl.matrix != gen_incl.matrix:
        raise VerificationError(
            f"image of the canonical map for {lam} is not generated by the top line"
        )
    return L, incl


# ---------------------------------------------------------------------------
# filtration multisets


def nabla_multiset(lam: LambdaWord) -> Counter:
    """Multiset N(lam) of costandard factors in a nabla-filtration of M(lam).

    Computed by the letter recursion: appending delta^{+-1} multiplies every
    member on the right; appending d sends mu to mu.d, and when mu already
    ends in a d-run d^y it additionally produces the member with that run
    replaced by d^{y-1}.delta.  Multiplicities are genuine (a member may
    arise along several branches).

    >>> from .weights import parse_lambda
    >>> sorted(str(m) for m in nabla_multiset(parse_lambda("d^2.Di.d")).elements())
    ['d', 'd^2.Di.d']
    """
    members: Counter = Counter({LambdaWord.one(): 1})
    for letter in lam.letters:
        step: Counter = Counter()
        if letter in ("D", "Di"):
            suffix = LambdaWord((letter,))
            for mu, mult in members.items():
                step[mu * suffix] += mult
        else:
            for mu, mult in members.items():
                step[mu * LambdaWord(("d",))] += mult
                if mu.letters and mu.letters[-1] == "d":
                    run = 0
                    for previous in reversed(mu.letters):
                        if previous != "d":
                            break
                        run += 1
                    replaced = (
                        mu.letters[: len(mu.letters) - run]
                        + ("d",) * (run - 1)
                        + ("D",)
                    )
                    step[LambdaWord(replaced)] += mult
        members = step
    return members


def delta_multiset(lam: LambdaWord) -> Counter:
    """Multiset D(lam) of standard factors in a Delta-filtration of M(lam).

    Obtained from the nabla recursion by transport along the star duality:
    D(lam) = { star(mu) : mu in N(star_inv(lam)) }.
    """
    return Counter(
        {mu.star(): mult for mu, mult in nabla_multiset(lam.star_inv()).items()}
    )


# ---------------------------------------------------------------------------
# characters


def char_nabla(lam: LambdaWord) -> dict[Weight, int]:
    return factor_char(nabla_factors(lam))


def char_delta(lam: LambdaWord) -> dict[Weight, int]:
    """Character of Delta(lam): the negated character of nabla(star_inv(lam))."""
    inner = char_nabla(lam.star_inv())
    return {Weight(-w.i, -w.j): m for w, m in inner.items()}


def char_M(lam: LambdaWord) -> dict[Weight, int]:
    return factor_char(monoid_factors(lam))


# ---------------------------------------------------------------------------
# layer decomposition of the coordinate ring


_LAYER_LETTERS = ("c", "d", "D", "Di")


def decompose_layer(n: int) -> list[tuple[tuple[str, ...], LambdaWord]]:
    """Indexing data for the n-th filtration layer of the coordinate ring.

    The layer O_{<=n} / O_{<=n-1} decomposes as a direct sum of costandard
    comodules indexed by the normal words of length n in the letters
    c, d, delta^{+-1} (no a, no b), grown by `ncalg.enumerate_basis` over
    those letters; the costandard label of a word is obtained by replacing
    every c with d.  Returns (word, label) pairs.

    >>> [(w, str(t)) for w, t in decompose_layer(1)]
    [(('D',), 'D'), (('Di',), 'Di'), (('c',), 'd'), (('d',), 'd')]
    """
    if n < 0:
        raise ValueError("layer index must be nonnegative")
    words = sorted(w for w in enumerate_basis(n, _LAYER_LETTERS) if len(w) == n)
    return [(w, LambdaWord(tuple("d" if x == "c" else x for x in w))) for w in words]


def layer_dimension(n: int) -> int:
    """Dimension of the n-th layer, as a sum of costandard dimensions."""
    return sum(factor_dim(nabla_factors(label)) for _, label in decompose_layer(n))
