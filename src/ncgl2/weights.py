"""The weight monoid Lambda and its two partial orders.

Elements are alternating words in the symbols delta (invertible, rendered
D, inverse Di) and d.  The canonical form is a letter tuple over
{D, Di, d} with no adjacent D Di or Di D pair; multiplication is
concatenation followed by cancellation.

Lambda carries a length function ell, a weight map wt into the character
lattice of the diagonal torus, two mutually inverse star operations, and
two orders: le2 compares weights, le1 is generated by two covering moves
that each strictly drop ell.

Labels d^2.Di.d, torus weights a^2*d^-1 and the words of ncalg, a*Di^2*b,
share one notation: _power_word reads it and _power_text writes it.  This
module imports nothing from the package, so ncalg imports the printer.

>>> from ncgl2.weights import parse_lambda
>>> lam = parse_lambda("d.Di.d")
>>> lam.ell(), str(lam.wt())
(3, 'a^-1*d')
>>> [str(mu) for mu in sorted(lam.covers_down(), key=lambda m: str(m))]
['1']
"""

from __future__ import annotations

import re
from itertools import groupby
from typing import Iterable, NamedTuple

__all__ = [
    "Weight",
    "LambdaWord",
    "LambdaSyntaxError",
    "parse_lambda",
    "parse_weight",
    "render_weight",
    "weight_star",
    "weight_key",
    "is_dominant",
    "enumerate_lambda",
    "pi_below",
    "is_saturated",
]

_LAMBDA_LETTERS = ("D", "Di", "d")
_LAMBDA_ORDER = {letter: index for index, letter in enumerate(_LAMBDA_LETTERS)}
_INVERSE = {"D": "Di", "Di": "D"}
# the letter images of the star anti-homomorphism; those of its inverse
# are the same words reversed
_STAR_IMAGES = {"d": ("d", "Di"), "D": ("Di",), "Di": ("D",)}
_STAR_INV_IMAGES = {letter: word[::-1] for letter, word in _STAR_IMAGES.items()}


class Weight(NamedTuple):
    """A torus weight a^i d^j."""

    i: int
    j: int

    def __str__(self) -> str:
        return render_weight(self)


def weight_key(w: Weight) -> tuple[int, int]:
    """Sort key for the weight order: compare j first, then i."""
    return (w.j, w.i)


def weight_star(w: Weight) -> Weight:
    return Weight(-w.j, -w.i)


def is_dominant(w: Weight) -> bool:
    return w.j >= w.i


def render_weight(w: Weight) -> str:
    return _power_text(((name, exp) for name, exp in zip("ad", w) if exp), "*")


def _reduce(letters: Iterable[str], inverse: dict[str, str]) -> tuple[str, ...]:
    """Cancel each adjacent pair of letters that `inverse` pairs."""
    stack: list[str] = []
    for letter in letters:
        if stack and inverse.get(letter) == stack[-1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


class LambdaWord:
    """A canonical element of Lambda.

    Stored as the reduced letter tuple.  atoms() groups the letters into
    maximal runs: ('delta', x) with x a nonzero integer, or ('d', y) with
    y >= 1, alternating in kind.
    """

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[str] = ()):
        letters = tuple(letters)
        for letter in letters:
            if letter not in _LAMBDA_ORDER:
                raise ValueError(f"unknown Lambda letter {letter!r}")
        self._letters = _reduce(letters, _INVERSE)

    @classmethod
    def one(cls) -> "LambdaWord":
        return cls(())

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[str, int]]) -> "LambdaWord":
        letters: list[str] = []
        for kind, n in atoms:
            if kind == "delta":
                letters.extend(["D" if n > 0 else "Di"] * abs(n))
            elif kind == "d":
                letters.extend("d" * n)
            else:
                raise ValueError(f"unknown atom kind {kind!r}")
        return cls(letters)

    @property
    def letters(self) -> tuple[str, ...]:
        return self._letters

    def atoms(self) -> tuple[tuple[str, int], ...]:
        # a reduced word has no D next to a Di, so its letter runs are its atoms
        return tuple(
            ("d", n) if letter == "d" else ("delta", n if letter == "D" else -n) for letter, n in _runs(self._letters)
        )

    def ell(self) -> int:
        return len(self._letters)

    def wt(self) -> Weight:
        delta_sum = sum(1 if l == "D" else -1 for l in self._letters if l != "d")
        d_count = sum(1 for l in self._letters if l == "d")
        return Weight(delta_sum, delta_sum + d_count)

    def __mul__(self, other: "LambdaWord") -> "LambdaWord":
        if not isinstance(other, LambdaWord):
            return NotImplemented
        word = LambdaWord.__new__(LambdaWord)
        word._letters = _reduce(self._letters + other._letters, _INVERSE)
        return word

    def star(self) -> "LambdaWord":
        """The star anti-homomorphism: d -> d.Di, delta -> delta inverse."""
        return LambdaWord(x for letter in reversed(self._letters) for x in _STAR_IMAGES[letter])

    def star_inv(self) -> "LambdaWord":
        """The inverse anti-homomorphism: d -> Di.d, delta -> delta inverse."""
        return LambdaWord(x for letter in reversed(self._letters) for x in _STAR_INV_IMAGES[letter])

    def covers_down(self) -> set["LambdaWord"]:
        """Elements reached by one downward move.

        Move one deletes a contiguous d.Di.d; move two replaces a
        contiguous d.d by D.  Both strictly decrease ell.
        """
        found: set[LambdaWord] = set()
        letters = self._letters
        n = len(letters)
        for p in range(n - 2):
            if letters[p : p + 3] == ("d", "Di", "d"):
                found.add(LambdaWord(letters[:p] + letters[p + 3 :]))
        for p in range(n - 1):
            if letters[p : p + 2] == ("d", "d"):
                found.add(LambdaWord(letters[:p] + ("D",) + letters[p + 2 :]))
        return found

    def le1(self, other: "LambdaWord") -> bool:
        """Whether self <= other in the move order (reflexive)."""
        if self == other:
            return True
        return self in pi_below(other)

    def lt1(self, other: "LambdaWord") -> bool:
        return self != other and self in pi_below(other)

    def le2(self, other: "LambdaWord") -> bool:
        """Whether self <= other in the weight order (reflexive)."""
        if self == other:
            return True
        return weight_key(self.wt()) < weight_key(other.wt())

    def __eq__(self, other):
        return isinstance(other, LambdaWord) and self._letters == other._letters

    def __hash__(self):
        return hash(self._letters)

    def sort_key(self) -> tuple:
        return (len(self._letters), tuple(_LAMBDA_ORDER[l] for l in self._letters))

    def __str__(self) -> str:
        return _power_text(_runs(self._letters), ".")

    def __repr__(self):
        return f"LambdaWord({str(self)!r})"


class LambdaSyntaxError(ValueError):
    """Raised on malformed Lambda or weight expressions; column is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"syntax error at column {column}: {message}")
        self.column = column


_EXPONENT = re.compile(r"-?[0-9]+")
# the most digits a number of a label, a weight or an expression may have;
# str prints every int of up to 4,300 digits
_MAX_DIGITS = 4_000
# the longest label parse_lambda builds: a longer one is refused unbuilt
_MAX_LABEL_LETTERS = 1_000_000


def _power_word(text: str, letters, separator: str, signed: bool, nouns) -> list[tuple[str, int, int]]:
    """The (letter, exponent, column) factors of a word such as 'd^2.Di.d' or 'a^2*d^-1'.

    `letters` are tried in order, longest first; factors are joined by
    `separator`, whitespace is skipped, and '1' is the empty word.  An
    exponent is ASCII digits, negative too when `signed`, else positive.
    `nouns` name the letters and a factor in the error messages.
    """
    if text.strip() == "1":
        return []
    letter_noun, factor_noun = nouns
    exponent_noun = "an integer exponent" if signed else "a positive integer exponent"
    factors: list[tuple[str, int]] = []
    expect_factor = True
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
        elif not expect_factor:
            if text[i] != separator:
                raise LambdaSyntaxError(f"expected {separator!r}", i + 1)
            i += 1
            expect_factor = True
        else:
            letter = next((l for l in letters if text.startswith(l, i)), None)
            if letter is None:
                raise LambdaSyntaxError(f"expected {letter_noun}", i + 1)
            column = i + 1
            i += len(letter)
            exponent = 1
            if text.startswith("^", i):
                i += 1
                match = _EXPONENT.match(text, i)
                if match and len(match[0].lstrip("-")) > _MAX_DIGITS:
                    raise LambdaSyntaxError(f"a number has at most {_MAX_DIGITS} digits", i + 1)
                if not match or (not signed and int(match[0]) < 1):
                    raise LambdaSyntaxError(f"expected {exponent_noun}", i + 1)
                exponent, i = int(match[0]), match.end()
            factors.append((letter, exponent, column))
            expect_factor = False
    if expect_factor:
        raise LambdaSyntaxError(f"expected a {factor_noun}", len(text) + 1)
    return factors


def _runs(letters: Iterable[str]) -> list[tuple[str, int]]:
    """The maximal runs of equal letters of a word, as (letter, length) pairs."""
    return [(letter, len(list(run))) for letter, run in groupby(letters)]


def _power_text(factors: Iterable[tuple[str, int]], separator: str) -> str:
    """The word _power_word reads: each (letter, exponent) factor written as
    'letter' or 'letter^exponent', joined by `separator`; '1' when empty."""
    return separator.join(letter if e == 1 else f"{letter}^{e}" for letter, e in factors) or "1"


def parse_lambda(text: str) -> LambdaWord:
    """Parse dot-separated blocks: 'd.Di.d^2', 'D^3', '1'.

    The result is reduced, so 'd.D.Di.d' parses to d^2.  More than
    _MAX_LABEL_LETTERS letters before reduction is a syntax error.
    """
    letters: list[str] = []
    for letter, count, column in _power_word(text, ("Di", "D", "d"), ".", False, ("d, D, or Di", "block")):
        if len(letters) + count > _MAX_LABEL_LETTERS:
            raise LambdaSyntaxError(f"a label has at most {_MAX_LABEL_LETTERS} letters", column)
        letters += [letter] * count
    return LambdaWord(letters)


def parse_weight(text: str) -> Weight:
    """Parse a torus weight like 'a^2*d^-1', 'a*d', 'd^3', or '1'."""
    factors = _power_word(text, ("a", "d"), "*", True, ("a or d", "factor"))
    return Weight(*(sum(e for letter, e, _ in factors if letter == name) for name in "ad"))


def enumerate_lambda(max_ell: int) -> list[LambdaWord]:
    """All elements with ell <= max_ell, ordered by ell then lexicographically
    with D < Di < d."""
    if max_ell < 0:
        raise ValueError("ell must be nonnegative")
    out: list[LambdaWord] = []
    layer: list[tuple[str, ...]] = [()]
    out.append(LambdaWord.one())
    for _ in range(max_ell):
        # a sorted layer extended in letter order comes out sorted
        next_layer: list[tuple[str, ...]] = []
        for word in layer:
            for letter in _LAMBDA_LETTERS:
                if word and _INVERSE.get(letter) == word[-1]:
                    continue
                next_layer.append(word + (letter,))
        for word in next_layer:
            lam = LambdaWord.__new__(LambdaWord)
            lam._letters = word
            out.append(lam)
        layer = next_layer
    return out


def pi_below(lam: LambdaWord) -> set[LambdaWord]:
    """All mu strictly below lam in the move order."""
    seen: set[LambdaWord] = set()
    frontier = [lam]
    while frontier:
        nxt: list[LambdaWord] = []
        for word in frontier:
            for cover in word.covers_down():
                if cover not in seen:
                    seen.add(cover)
                    nxt.append(cover)
        frontier = nxt
    return seen


def is_saturated(collection: Iterable[LambdaWord]) -> bool:
    """Whether the set is closed under downward moves."""
    pool = set(collection)
    return all(cover in pool for lam in pool for cover in lam.covers_down())
