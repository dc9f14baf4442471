"""The algebra O of the universal quantum group of 2x2 matrices.

O is generated by the matrix entries a, b, c, d and an invertible element
D (rendered as the determinant delta) with inverse Di, subject to ten
relations.  Oriented by the degree-then-lex order with
Di < D < a < b < c < d, they form a confluent, terminating rewrite system,
so every element has a unique normal form.  D is not central: no rule
moves D past a letter, so D*a - a*D has the normal form -a*D + D*a.

>>> from ncgl2.ncalg import parse_expression
>>> print(parse_expression("d*a"))
b*c + D
>>> print(parse_expression("d*a - b*c"))
D

Words are tuples of letter names, elements are dicts mapping normal words
to coefficients.  An element of a tensor power of O is a plain dict
{(word_1, ..., word_k): coefficient}, one normal word per leg; coproduct
and the *_leg maps return fresh dicts that the caller owns, and a memo
passed to them maps a normal word to its image under the map.  Every
coefficient of the rewrite rules, the coproduct and the antipode is an
integer, so a coefficient is an int, or a Fraction only downstream of a
non-integral input such as a parsed 3/2.  Outside scalars enter through
_exact, which turns an integral Fraction into an int.  All arithmetic is
exact.

Words are written a*Di^2*b by weights._power_text, the printer of labels and
weights too; the expression tokenizer reads the letter names from LETTERS.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .linalg import accumulate
from .weights import _MAX_DIGITS, _power_text, _runs

__all__ = [
    "LETTERS",
    "LETTER_ORDER",
    "RULES",
    "NCElement",
    "ExprSyntaxError",
    "normal_form",
    "normal_form_word",
    "is_normal_word",
    "word_key",
    "column_weight",
    "render_word",
    "render_element",
    "parse_expression",
    "enumerate_basis",
    "enumerate_basis_by_pattern",
    "check_confluence",
    "coproduct",
    "coproduct_leg",
    "counit",
    "counit_leg",
    "antipode",
    "antipode_inv",
    "antipode_leg",
    "multiply_legs",
    "one",
    "gen",
]

# Letter names.  D is the determinant delta, Di its inverse.
LETTERS = ("Di", "D", "a", "b", "c", "d")
LETTER_ORDER = {letter: index for index, letter in enumerate(LETTERS)}

# Matrix position of the four entry letters: a, b sit in row 1, c, d in
# row 2; a, c sit in column 1, b, d in column 2.
ROW = {"a": 1, "b": 1, "c": 2, "d": 2}
COL = {"a": 1, "b": 2, "c": 1, "d": 2}

# Column weight of each letter, summed over a word by column_weight.
_COLUMN_WEIGHT = {
    "a": (1, 0),
    "b": (0, 1),
    "c": (1, 0),
    "d": (0, 1),
    "D": (1, 1),
    "Di": (-1, -1),
}

Word = tuple  # tuple of letter names
Coeff = int | Fraction  # a Fraction only downstream of a non-integral input

# The ten oriented rules.  Left sides are words, right sides map words to
# integer coefficients.  Each rule strictly decreases the deglex order.
RULES: tuple[tuple[Word, dict[Word, int]], ...] = (
    (("c", "a"), {("a", "c"): 1}),
    (("d", "b"), {("b", "d"): 1}),
    (("d", "a"), {("b", "c"): 1, ("D",): 1}),
    (("c", "b"), {("a", "d"): 1, ("D",): -1}),
    (("D", "Di"), {(): 1}),
    (("Di", "D"), {(): 1}),
    (("b", "Di", "a"), {("a", "Di", "b"): 1}),
    (("d", "Di", "c"), {("c", "Di", "d"): 1}),
    (("b", "Di", "c"), {("a", "Di", "d"): 1, (): -1}),
    (("d", "Di", "a"), {("c", "Di", "b"): 1, (): 1}),
)

# The redex index, derived from RULES: the right side of each length-2 and
# length-3 left side, and the letter pairs that begin a length-3 one.  It is
# the one test of normality: _first_redex (so is_normal_word and
# normal_form_word) and enumerate_basis read it.
_LHS2 = {lhs: rhs for lhs, rhs in RULES if len(lhs) == 2}
_LHS3 = {lhs: rhs for lhs, rhs in RULES if len(lhs) == 3}
_LHS3_HEADS = frozenset(lhs[:2] for lhs in _LHS3)


def word_key(word: Word) -> tuple:
    """Sort key realizing the deglex order: length first, then letters."""
    return (len(word), tuple(LETTER_ORDER[letter] for letter in word))


def column_weight(word: Word) -> tuple[int, int]:
    """Sum of the letters' column weights; a^i d^j has column weight (i, j).

    Every rewrite rule preserves it, and so does the right leg of the
    coproduct, since Delta(x_ij) = sum_k x_ik (x) x_kj keeps the column j on
    the right.  So each term (u, v) of the coproduct of a normal word w has
    column_weight(v) == column_weight(w).

    >>> column_weight(("a", "Di", "b"))
    (0, 0)
    """
    i = j = 0
    for letter in word:
        di, dj = _COLUMN_WEIGHT[letter]
        i += di
        j += dj
    return (i, j)


def _first_redex(word: Word, start: int = 0):
    """Leftmost rule match (i, length, rhs) at a position >= start, or None.

    At most one rule matches a position.  Left sides have length 2 or 3,
    so each position looks up its letter pair once, in the index built
    from RULES, and reads a third letter only when the pair begins a
    length-3 left side.  No left side may begin before start, so the
    match is the word's leftmost one.  That holds for start = len(u) - 2
    when the word begins with a normal word u: a left side has at most 3
    letters, so one that began earlier would lie inside u.
    """
    for i in range(start, len(word) - 1):
        pair = word[i : i + 2]
        rhs = _LHS2.get(pair)
        if rhs is not None:
            return i, 2, rhs
        if pair in _LHS3_HEADS:
            rhs = _LHS3.get(word[i : i + 3])
            if rhs is not None:
                return i, 3, rhs
    return None


def is_normal_word(word: Word) -> bool:
    """True iff no rule left side occurs in word."""
    return _first_redex(word) is None


_NF_CACHE: dict[Word, dict[Word, int]] = {}
# past this many entries a miss clears _NF_CACHE, so long runs stay bounded
_NF_CACHE_LIMIT = 200_000


def _exact(value) -> Coeff:
    """value as an int when it is integral, otherwise as a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def normal_form_word(word: Word) -> dict[Word, int]:
    """Normal form of a single word as a dict of normal words to ints.

    The product of the empty word and word, so _product's cache policy
    holds.  The result is shared: do not mutate it.
    """
    return _product((), tuple(word))


def _product(left: Word, right: Word) -> dict[Word, int]:
    """Normal form of left + right for a normal word left, through _NF_CACHE.

    Every intermediate word of the reduction is cached in _NF_CACHE.  A
    word's normal form is unique (the rules are confluent, see
    check_confluence), so a cached entry is returned as it is, and
    _reduce runs only on a miss; reading the cache here, not only in
    _reduce, saves a call on the hit path, which most calls take.  A miss
    first clears the cache in place once it holds more than
    _NF_CACHE_LIMIT entries; uniqueness makes that change no result.  A
    miss starts the reduction at the seam: no left side begins in left
    before len(left) - 2, since left is normal.  right need not be normal.
    """
    word = left + right
    found = _NF_CACHE.get(word)
    if found is not None:
        return found
    if len(_NF_CACHE) > _NF_CACHE_LIMIT:
        _NF_CACHE.clear()
    return _reduce(word, _NF_CACHE, max(0, len(left) - 2))


def _reduce(word: Word, memo: dict[Word, dict[Word, int]], start: int = 0) -> dict[Word, int]:
    """Normal form of word, storing every intermediate word in memo.

    Reads _NF_CACHE, then memo, and writes new entries only into memo,
    so a caller can keep the intermediates of long one-off words out of
    the global cache.  A word already known is found by the first step
    of the loop.  Iterative so that long reduction chains cannot
    overflow the stack.

    start is a position before which no left side begins in word.  A
    rewrite at position i leaves the letters before i as they were, so
    each child is scanned from max(0, i - 2), the first position where a
    left side can now reach the rewritten letters.  Every step still
    rewrites the leftmost redex, so the intermediate words, and the memo
    keys, are those of a scan from position 0.  A word with one child of
    coefficient 1 stores the child's normal-form dict itself, not a copy;
    entries are shared and never mutated.
    """
    cache = _NF_CACHE
    stack = [(word, start)]
    while stack:
        w, s = stack[-1]
        if w in cache or w in memo:
            stack.pop()
            continue
        redex = _first_redex(w, s)
        if redex is None:
            memo[w] = {w: 1}
            stack.pop()
            continue
        i, length, rhs = redex
        prefix, suffix = w[:i], w[i + length :]
        children = [(prefix + rw + suffix, rc) for rw, rc in rhs.items()]
        missing = [cw for cw, _ in children if cw not in cache and cw not in memo]
        if missing:
            stack[-1] = (w, i)  # on return the scan finds the redex at once
            child_start = max(0, i - 2)
            stack.extend((cw, child_start) for cw in missing)
            continue
        nfs = [(cache[cw] if cw in cache else memo[cw], rc) for cw, rc in children]
        if len(nfs) == 1 and nfs[0][1] == 1:
            memo[w] = nfs[0][0]
        else:
            memo[w] = accumulate({}, ((nw, rc * c) for nf, rc in nfs for nw, c in nf.items()))
        stack.pop()
    found = cache.get(word)
    return found if found is not None else memo[word]


def normal_form(terms: Mapping[Word, Coeff]) -> dict[Word, Coeff]:
    """Normal form of a linear combination {word: coefficient}."""
    acc: dict[Word, Coeff] = {}
    for word, coeff in terms.items():
        coeff = _exact(coeff)
        if coeff:
            accumulate(acc, ((nw, coeff * c) for nw, c in normal_form_word(word).items()))
    return acc


class NCElement:
    """An element of O, stored as {normal word: coefficient}.

    Coefficients are ints, or Fractions only downstream of a non-integral
    input.  Supports +, -, * (with elements and scalars), integer powers,
    and exact equality.  Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Coeff] | None = None):
        self._terms = normal_form(terms or {})

    @classmethod
    def _raw(cls, normal_terms: dict[Word, Coeff]) -> "NCElement":
        el = object.__new__(cls)
        el._terms = normal_terms
        return el

    @staticmethod
    def _coerce(value):
        if isinstance(value, NCElement):
            return value
        if isinstance(value, (int, Fraction)):
            return NCElement._raw({(): _exact(value)} if value else {})
        return NotImplemented

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return NCElement._raw(accumulate(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return NCElement._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        """Element times element or scalar.

        An element product is the sum of c1 c2 nf(w1 w2) over all pairs of
        terms, in one pass with one _product call per pair, which rewrites
        from the seam of the two normal words; the normal form of a word is
        unique, so the sum does not depend on the order of pairs.  Checking
        the class first keeps this common case cheap.
        """
        if other.__class__ is NCElement:
            right = other._terms.items()
            return NCElement._raw(accumulate({}, (
                (nw, c1 * c2 * c)
                for w1, c1 in self._terms.items()
                for w2, c2 in right
                for nw, c in _product(w1, w2).items()
            )))
        if isinstance(other, (int, Fraction)):
            scalar = _exact(other)
            return NCElement._raw({k: c * scalar for k, c in self._terms.items()} if scalar else {})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # __eq__ coerces numbers, so a scalar {(): c} hashes as c and zero as 0
        terms = self._terms
        if terms.keys() <= {()}:
            return hash(terms.get((), 0))
        return hash(frozenset(terms.items()))

    @property
    def terms(self) -> dict[Word, Coeff]:
        return dict(self._terms)

    def coefficient(self, word: Word) -> Coeff:
        return self._terms.get(tuple(word), 0)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers of algebra elements must be integers >= 0")
        result = one()
        for _ in range(n):
            result = result * self
        return result

    def __repr__(self):
        return f"NCElement({render_element(self)!r})"

    def __str__(self):
        return render_element(self)


def one() -> NCElement:
    return NCElement._raw({(): 1})


def gen(letter: str) -> NCElement:
    if letter not in LETTER_ORDER:
        raise ValueError(f"unknown generator {letter!r}")
    return NCElement._raw({(letter,): 1})


# ---------------------------------------------------------------------------
# Basis enumeration

def enumerate_basis(max_len: int, letters: Iterable[str] = LETTERS) -> list[Word]:
    """All normal words of length <= max_len over the letters, sorted by deglex.

    A word is normal iff no rule left side occurs in it, and left sides
    have length 2 or 3, so extending a normal word by one letter stays
    normal iff no left side ends at the new letter, looked up in the
    redex index.  Every subword of a normal word is normal, so growing
    only normal words over a subset of LETTERS gives exactly the normal
    words over that subset.
    """
    if max_len < 0:
        raise ValueError("length must be nonnegative")
    letters = sorted(letters, key=LETTER_ORDER.__getitem__)
    basis: list[Word] = [()]
    layer: list[Word] = [()]
    for _ in range(max_len):
        next_layer: list[Word] = []
        for word in layer:
            for letter in letters:
                extended = word + (letter,)
                if extended[-2:] not in _LHS2 and extended[-3:] not in _LHS3:
                    next_layer.append(extended)
        layer = next_layer
        basis.extend(layer)
    return basis


def enumerate_basis_by_pattern(max_len: int) -> list[Word]:
    """Normal words of length <= max_len by a structural description.

    Independent of the rule table on purpose: it is the oracle that the
    confluence check compares enumerate_basis against, so it must not read
    RULES.  A word is accepted iff
      (1) every maximal run of determinant letters uses only D or only Di,
      (2) adjacent entry letters have non-decreasing row index,
      (3) a lone Di flanked by entry letters has non-decreasing column
          index across it.
    """
    accepted: list[Word] = []
    stack: list[Word] = [()]
    while stack:
        word = stack.pop()
        if _pattern_accepts(word):
            accepted.append(word)
            if len(word) < max_len:
                stack.extend(word + (letter,) for letter in LETTERS)
    return sorted(accepted, key=word_key)


def _pattern_accepts(word: Word) -> bool:
    n = len(word)
    for i in range(n - 1):
        x, y = word[i], word[i + 1]
        if x in ROW and y in ROW and ROW[x] > ROW[y]:
            return False
        if {x, y} == {"D", "Di"}:
            return False
    for i in range(1, n - 1):
        if word[i] == "Di" and word[i - 1] in ROW and word[i + 1] in ROW:
            if COL[word[i - 1]] > COL[word[i + 1]]:
                return False
    return True


# ---------------------------------------------------------------------------
# Confluence

def check_confluence() -> dict:
    """Resolve every critical pair of the rule table.

    Overlaps come in two shapes: a proper suffix of one left side equal to
    a proper prefix of another, and one left side contained in another.
    For each overlap word the two one-step reducts are brought to normal
    form and compared.  Returns a report dict with the full list.
    """
    overlaps = []
    for i1, (lhs1, rhs1) in enumerate(RULES):
        for i2, (lhs2, rhs2) in enumerate(RULES):
            for k in range(1, min(len(lhs1), len(lhs2))):
                if lhs1[-k:] == lhs2[:k]:
                    word = lhs1 + lhs2[k:]
                    left = _apply_rule_at(word, 0, lhs1, rhs1)
                    right = _apply_rule_at(word, len(lhs1) - k, lhs2, rhs2)
                    overlaps.append((word, i1, i2, left, right))
            if len(lhs2) < len(lhs1):
                for pos in range(len(lhs1) - len(lhs2) + 1):
                    if lhs1[pos : pos + len(lhs2)] == lhs2:
                        left = _apply_rule_at(lhs1, 0, lhs1, rhs1)
                        right = _apply_rule_at(lhs1, pos, lhs2, rhs2)
                        overlaps.append((lhs1, i1, i2, left, right))
    report = []
    all_ok = True
    for word, i1, i2, left, right in overlaps:
        nf_left = normal_form(left)
        nf_right = normal_form(right)
        ok = nf_left == nf_right
        all_ok = all_ok and ok
        report.append(
            {
                "word": word,
                "rules": (i1, i2),
                "joinable": ok,
                "nf": nf_left if ok else (nf_left, nf_right),
            }
        )
    return {"pass": all_ok, "count": len(report), "overlaps": report}


def _apply_rule_at(word: Word, pos: int, lhs: Word, rhs: dict[Word, int]):
    if word[pos : pos + len(lhs)] != lhs:
        raise RuntimeError(f"rule {lhs!r} does not occur in {word!r} at {pos}")
    prefix, suffix = word[:pos], word[pos + len(lhs) :]
    return {prefix + rw + suffix: rc for rw, rc in rhs.items()}


# ---------------------------------------------------------------------------
# Hopf structure

# Coproduct of a single letter, as {(left word, right word): coefficient}.
_COPROD_LETTER: dict[str, dict[tuple[Word, Word], int]] = {
    "a": {(("a",), ("a",)): 1, (("b",), ("c",)): 1},
    "b": {(("a",), ("b",)): 1, (("b",), ("d",)): 1},
    "c": {(("c",), ("a",)): 1, (("d",), ("c",)): 1},
    "d": {(("c",), ("b",)): 1, (("d",), ("d",)): 1},
    "D": {(("D",), ("D",)): 1},
    "Di": {(("Di",), ("Di",)): 1},
}

_COUNIT_LETTER = {"a": 1, "b": 0, "c": 0, "d": 1, "D": 1, "Di": 1}

# Antipode of a single letter, one signed word each: (sign, word).  S is
# an algebra anti-homomorphism on words.
_ANTIPODE_LETTER: dict[str, tuple[int, Word]] = {
    "a": (1, ("Di", "d")),
    "b": (-1, ("Di", "b")),
    "c": (-1, ("Di", "c")),
    "d": (1, ("Di", "a")),
    "D": (1, ("Di",)),
    "Di": (1, ("D",)),
}

# Inverse antipode: each image word of S reversed, so the determinant
# factor moves to the other side.
_ANTIPODE_INV_LETTER: dict[str, tuple[int, Word]] = {
    letter: (sign, word[::-1]) for letter, (sign, word) in _ANTIPODE_LETTER.items()
}


def _map_leg(
    tensor: Mapping[tuple, Coeff], leg: int, memo: dict | None, image: Callable[[Word], dict]
) -> dict[tuple, Coeff]:
    """Replace the given leg of every key by the words of image(word); a fresh dict.

    image maps a normal word to {tuple of normal words: coefficient}: two
    words per key for the coproduct, one for the antipode and none for
    the counit, which so drops the leg.  memo[word] is image(word), filled
    on first use and only read afterwards, so a returned dict never shares
    its values; a fresh dict is used when memo is None.  This is the one
    place that cuts a tensor key around a leg.
    """
    if memo is None:
        memo = {}
    acc: dict[tuple, Coeff] = {}
    for key, coeff in tensor.items():
        word = key[leg]
        words = memo.get(word)
        if words is None:
            words = memo[word] = image(word)
        head, tail = key[:leg], key[leg + 1 :]
        accumulate(acc, ((head + ws + tail, coeff * c) for ws, c in words.items()))
    return acc


def coproduct(element: NCElement, memo: dict | None = None) -> dict[tuple, Coeff]:
    """The coproduct O -> O # O, as {(left word, right word): coefficient}.

    Both words of every key are normal.  The result is a fresh dict that
    the caller owns and may change.  memo maps a normal word to its
    coproduct in the same form; pass one dict to share it across related
    calls (and with coproduct_leg), and drop it afterwards.  A fresh dict
    is used when memo is None.
    """
    return _map_leg({(w,): c for w, c in element.items()}, 0, memo, _coproduct_image)


def _coproduct_word(word: Word) -> dict[tuple[Word, Word], int]:
    pairs: dict[tuple[Word, Word], int] = {((), ()): 1}
    for letter in word:
        nxt: dict[tuple[Word, Word], int] = {}
        images = _COPROD_LETTER[letter].items()
        for (u1, u2), c in pairs.items():
            accumulate(nxt, (((u1 + v1, u2 + v2), c * cl) for (v1, v2), cl in images))
        pairs = nxt
    return pairs


def _coproduct_image(word: Word) -> dict[tuple[Word, Word], int]:
    """The coproduct of a word with both legs in normal form."""
    pairs: dict[tuple[Word, Word], int] = {}
    for (w1, w2), c in _coproduct_word(word).items():
        right = normal_form_word(w2).items()
        accumulate(pairs, (
            ((u, v), c * cu * cv)
            for u, cu in normal_form_word(w1).items()
            for v, cv in right
        ))
    return pairs


def coproduct_leg(
    tensor: Mapping[tuple, Coeff], leg: int, memo: dict | None = None
) -> dict[tuple, Coeff]:
    """Apply the coproduct to one leg of a tensor; a fresh dict, memo as in coproduct."""
    return _map_leg(tensor, leg, memo, _coproduct_image)


def _counit_word(word: Word) -> int:
    value = 1
    for letter in word:
        value *= _COUNIT_LETTER[letter]
    return value


def counit(element: NCElement) -> Coeff:
    return sum(coeff * _counit_word(word) for word, coeff in element.items())


def counit_leg(tensor: Mapping[tuple, Coeff], leg: int) -> dict[tuple, Coeff]:
    """Apply the counit to one leg of a tensor, dropping it; a fresh dict."""
    return _map_leg(tensor, leg, None, lambda word: {(): _counit_word(word)})


def _anti_hom(element: NCElement, letter_images: dict[str, tuple[int, Word]]) -> NCElement:
    """The anti-homomorphism given by single signed-word letter images.

    Each letter x has the image s(x) * w(x) for one word w(x) and a sign
    s(x), so the image of x1...xn is s(x1)...s(xn) times the normal form
    of the one word w(xn)...w(x1): each word of the element is rewritten
    once.  The words of one call share the intermediates of their
    rewrites in a local dict, dropped on return, so _NF_CACHE is read but
    never written.
    """
    rewrites: dict[Word, dict[Word, int]] = {}
    result: dict[Word, Coeff] = {}
    for word, coeff in element.items():
        image: Word = ()
        for letter in reversed(word):
            sign, letter_word = letter_images[letter]
            image += letter_word
            if sign < 0:
                coeff = -coeff
        accumulate(result, ((w, coeff * c) for w, c in _reduce(image, rewrites).items()))
    return NCElement._raw(result)


def antipode(element: NCElement) -> NCElement:
    """The antipode S, an algebra anti-homomorphism.

    Every letter maps to one signed word (a -> Di*d, b -> -Di*b, ...), so
    each word of the element costs one rewrite, which leaves _NF_CACHE
    as it was.
    """
    return _anti_hom(element, _ANTIPODE_LETTER)


def antipode_inv(element: NCElement) -> NCElement:
    """The inverse of the antipode, also an anti-homomorphism.

    Every letter maps to one signed word (a -> d*Di, b -> -b*Di, ...),
    rewritten as in antipode.
    """
    return _anti_hom(element, _ANTIPODE_INV_LETTER)


def _antipode_image(word: Word) -> dict[tuple[Word], Coeff]:
    return {(w,): c for w, c in antipode(NCElement._raw({word: 1})).items()}


def antipode_leg(
    tensor: Mapping[tuple, Coeff], leg: int, memo: dict | None = None
) -> dict[tuple, Coeff]:
    """Apply the antipode to one leg of a tensor; a fresh dict.

    memo maps a normal word to its antipode, {(normal word,): coefficient},
    as coproduct_leg's memo holds coproducts; pass one dict to share it
    across related calls, and drop it afterwards.  A fresh dict is used
    when memo is None.
    """
    return _map_leg(tensor, leg, memo, _antipode_image)


def multiply_legs(tensor: Mapping[tuple, Coeff]) -> NCElement:
    """Multiply all legs together in order (the convolution product step).

    Every leg must be a normal word, as in every tensor of this module.
    One accumulate over all terms, one rewrite per term: _product of the
    first leg, () when there is none, and the concatenated other legs,
    which starts at the seam.
    """
    return NCElement._raw(accumulate({}, (
        (nw, coeff * c)
        for key, coeff in tensor.items()
        for nw, c in _product(key[0] if key else (), sum(key[1:], ())).items()
    )))


# ---------------------------------------------------------------------------
# Expression syntax

class ExprSyntaxError(ValueError):
    """Raised on malformed expressions; column is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"syntax error at column {column}: {message}")
        self.column = column


# one token: skipped whitespace, an ASCII number, an operator, or a letter
# of LETTERS, longest first so that Di is not read as D
_TOKEN = re.compile(
    r"\s+|(?P<num>[0-9]+)|(?P<op>[-+*^()/])|(?P<letter>%s)" % "|".join(sorted(LETTERS, key=len, reverse=True))
)
# the parser recurses four calls deep per parenthesis level
_MAX_DEPTH = 100


def _tokenize(text: str):
    """(kind, text, column) tokens: kind is 'num', 'letter' or the operator."""
    tokens = []
    i = depth = 0
    while i < len(text):
        match = _TOKEN.match(text, i)
        if match is None:
            raise ExprSyntaxError(f"unexpected character {text[i]!r}", i + 1)
        if match.lastgroup == "num" and len(match[0]) > _MAX_DIGITS:
            raise ExprSyntaxError(_OVERLONG, i + 1)
        if match.lastgroup:
            kind = match[0] if match.lastgroup == "op" else match.lastgroup
            depth += (kind == "(") - (kind == ")")
            if depth > _MAX_DEPTH:
                raise ExprSyntaxError(f"more than {_MAX_DEPTH} nested parentheses", i + 1)
            tokens.append((kind, match[0], i + 1))
        i = match.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


# parse_expression expands a product or power only into at most _MAX_TERMS
# products of terms and words of at most _MAX_LETTERS letters, so that an
# oversized input is a syntax error before it allocates; every number it
# reads or builds, numerator and denominator, stays below _MAX_NUMBER, so
# that every result it accepts prints
_MAX_TERMS = 4_096
_MAX_LETTERS = 2_000
_MAX_NUMBER = 10**_MAX_DIGITS
_OVERSIZED = f"expansion over {_MAX_TERMS} term products or {_MAX_LETTERS} letters a word"
_OVERLONG = f"a number has at most {_MAX_DIGITS} digits"


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse_expr(self) -> NCElement:
        result, sign, column = NCElement._raw({}), "+", 1
        if self.peek()[0] in ("+", "-"):
            sign = self.advance()[0]
        while True:
            term = self.parse_term()
            result = result + term if sign == "+" else result - term
            for c in result._terms.values():
                if max(abs(c.numerator), c.denominator) >= _MAX_NUMBER:
                    raise ExprSyntaxError(_OVERLONG, column)
            sign, _, column = self.peek()
            if sign not in ("+", "-"):
                return result
            self.advance()

    def parse_term(self) -> NCElement:
        result = self.parse_factor()
        while True:
            kind, _, column = self.peek()
            if kind == "*":
                self.advance()
            elif kind not in ("letter", "num", "("):
                return result
            factor = self.parse_factor()
            letters = max(map(len, result._terms), default=0) + max(map(len, factor._terms), default=0)
            if len(result._terms) * len(factor._terms) > _MAX_TERMS or letters > _MAX_LETTERS:
                raise ExprSyntaxError(_OVERSIZED, column)
            result = result * factor
            for c in result._terms.values():
                if max(abs(c.numerator), c.denominator) >= _MAX_NUMBER:
                    raise ExprSyntaxError(_OVERLONG, column)

    def parse_factor(self) -> NCElement:
        base = self.parse_atom()
        kind, _, caret = self.peek()
        if kind == "^":
            self.advance()
            kind, value, column = self.peek()
            if kind != "num":
                raise ExprSyntaxError("expected a positive integer exponent", column)
            self.advance()
            exponent = int(value)
            if exponent < 1:
                raise ExprSyntaxError("expected a positive integer exponent", column)
            # a scalar counts as one letter, so that its exponent is bounded
            # too; past _MAX_LETTERS the power of the term count is not taken.
            # A number of b + 1 bits to this power has over b * exponent bits
            letters = (max(map(len, base._terms), default=0) or 1) * exponent
            if letters > _MAX_LETTERS or len(base._terms) ** exponent > _MAX_TERMS:
                raise ExprSyntaxError(_OVERSIZED, caret)
            for c in base._terms.values():
                if (max(abs(c.numerator), c.denominator).bit_length() - 1) * exponent >= _MAX_NUMBER.bit_length():
                    raise ExprSyntaxError(_OVERLONG, caret)
            power = base**exponent
            for c in power._terms.values():
                if max(abs(c.numerator), c.denominator) >= _MAX_NUMBER:
                    raise ExprSyntaxError(_OVERLONG, caret)
            return power
        return base

    def parse_atom(self) -> NCElement:
        kind, value, column = self.peek()
        if kind == "num":
            self.advance()
            if self.peek()[0] != "/":
                return one() * int(value)
            self.advance()
            kind, denominator, column = self.peek()
            if kind != "num":
                raise ExprSyntaxError("expected a denominator", column)
            self.advance()
            if int(denominator) == 0:
                raise ExprSyntaxError("zero denominator", column)
            return one() * Fraction(int(value), int(denominator))
        if kind == "letter":
            self.advance()
            return gen(value)
        if kind == "(":
            self.advance()
            inner = self.parse_expr()
            kind, _, column = self.peek()
            if kind != ")":
                raise ExprSyntaxError("expected ')'", column)
            self.advance()
            return inner
        raise ExprSyntaxError(
            "expected a generator, number, or '('" if kind != "end" else "unexpected end of input",
            column,
        )


def parse_expression(text: str) -> NCElement:
    """Parse an algebra expression and return its normal form.

    Generators a b c d D Di, juxtaposition or * for products, + and -,
    rational coefficients like 3/2, and positive integer powers via ^.
    A product or power past _MAX_TERMS or _MAX_LETTERS is a syntax error
    at its operator, raised before it is expanded, and so is a sum, product
    or power with a number of more than _MAX_DIGITS digits, a numerator or
    a denominator; a longer number literal, or a '(' past _MAX_DEPTH
    nested levels, is a syntax error at its column.

    >>> print(parse_expression("(a + b)^2"))
    b^2 + b*a + a*b + a^2
    """
    parser = _Parser(_tokenize(text))
    result = parser.parse_expr()
    kind, _, column = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("unexpected trailing input", column)
    return result


def render_word(word: Word) -> str:
    """Canonical word rendering with runs collapsed: ('a','Di','d') -> a*Di*d."""
    return _power_text(_runs(word), "*")


def render_element(element: NCElement) -> str:
    """Canonical rendering: terms in decreasing deglex order."""
    if element.is_zero():
        return "0"
    parts = []
    for word in sorted(element.terms, key=word_key, reverse=True):
        coeff = element.coefficient(word)
        sign = "-" if coeff < 0 else "+"
        magnitude = abs(coeff)
        if word and magnitude == 1:
            body = render_word(word)
        elif word:
            body = f"{magnitude}*{render_word(word)}"
        else:
            body = str(magnitude)
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text
