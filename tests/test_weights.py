"""Highest-weight words, the * involution, and the two partial orders."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncgl2.ncalg import NCElement, enumerate_basis, render_word
from ncgl2.weights import (
    LambdaSyntaxError,
    LambdaWord,
    Weight,
    enumerate_lambda,
    is_dominant,
    is_saturated,
    parse_lambda,
    parse_weight,
    pi_below,
    render_weight,
    weight_sigma,
    weight_star,
)


ATOM_LETTERS = ("d", "D", "Di")
LAMBDA_WORDS = st.lists(
    st.sampled_from(ATOM_LETTERS), min_size=0, max_size=5
).map(lambda ls: parse_lambda(".".join(ls)) if ls else LambdaWord.one())


# tokens of the random parser corpus: the letters, separators and digits
# the two parsers read, and some that they reject
PARSE_TOKENS = ("a", "b", "d", "D", "Di", "i", ".", "*", "^", "-", "0", "1", "2", "10", " ", "\t", "x")

# parser: (its letters, its separator, its exponent signs, the sha256 of
# one line per corpus string), computed at commit aa7623a, before the two
# parsers shared one scanner
PARSER_DIGESTS = {
    "lambda": (("d", "D", "Di"), ".", ("",), "04a20b8cc3dc9555a5e38e5346dcc6ebdb8b30eac0f1848238ae2cfe3baef1cc"),
    "weight": (("a", "d"), "*", ("", "-"), "f5a324b38b0a26964552d5de9ce2a2ee5a005cf7f0ea080e9af001cb8294c7a7"),
}


def _parser_corpus(letters, separator, signs):
    """20,000 random token strings, then 2,000 words of the parser's own shape."""
    rng = random.Random(0)
    for _ in range(20_000):
        yield "".join(rng.choice(PARSE_TOKENS) for _ in range(rng.randint(0, 8)))
    for _ in range(2_000):
        factors = [
            rng.choice(letters) + rng.choice(("", f"^{rng.choice(signs)}{rng.randint(0, 12)}"))
            for _ in range(rng.randint(1, 4))
        ]
        yield rng.choice((separator, f" {separator} ")).join(factors)


def _outcome(parse, text: str) -> str:
    try:
        return str(parse(text))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("kind", sorted(PARSER_DIGESTS))
def test_parser_digests_equal_the_earlier_scanners(kind):
    letters, separator, signs, digest = PARSER_DIGESTS[kind]
    parse = parse_lambda if kind == "lambda" else parse_weight
    text = "\n".join(f"{s!r} {_outcome(parse, s)}" for s in _parser_corpus(letters, separator, signs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# printer: the sha256 of the printed corpus, one line per item, computed at
# commit ebca9de, before the three printers of the letter^exponent notation
# shared one
PRINTER_DIGESTS = {
    "render_word": "0a533bccb7ab85879eb5d66643b3ba71849a233017aabc55bd6cea217da9970a",
    "LambdaWord.__str__": "7090171e1c5447f8637fd8a280a1d1af6650e0a0f47036236a8d7aa3d65044ae",
    "render_weight": "8702060e9e353ac592b466eee4c9a1eff0f8828b77233679f069432666ef3c84",
    "NCElement.__str__": "2fd50f9b3af36ad7d05b93f6b62c967e842133cb551e7b429f314422c212212e",
}


def _printed(kind: str) -> list[str]:
    """Every normal word of length <= 6 and 20,000 random words; every label
    with ell <= 11; every weight with |i|, |j| <= 30; 5,000 random elements."""
    rng = random.Random(0)
    letters = ("Di", "D", "a", "b", "c", "d")
    if kind == "render_word":
        words = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 12))) for _ in range(20_000)]
        return [render_word(w) for w in enumerate_basis(6) + words]
    if kind == "LambdaWord.__str__":
        return [str(lam) for lam in enumerate_lambda(11)]
    if kind == "render_weight":
        return [render_weight(Weight(i, j)) for i in range(-30, 31) for j in range(-30, 31)]
    coefficients = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
    return [
        str(NCElement({
            tuple(rng.choice(letters) for _ in range(rng.randint(0, 5))): rng.choice(coefficients)
            for _ in range(rng.randint(0, 4))
        }))
        for _ in range(5_000)
    ]


@pytest.mark.parametrize("kind", sorted(PRINTER_DIGESTS))
def test_printer_digests_equal_the_earlier_printers(kind):
    text = "\n".join(_printed(kind))
    assert hashlib.sha256(text.encode()).hexdigest() == PRINTER_DIGESTS[kind]


class TestWords:
    def test_parse_and_render(self):
        lam = parse_lambda("d^2.Di.d")
        assert lam.ell() == 4
        assert str(lam) == "d^2.Di.d"
        assert parse_lambda("1") == LambdaWord.one()

    def test_parse_inverts_str(self):
        for lam in enumerate_lambda(8):
            assert parse_lambda(str(lam)) == lam, str(lam)

    def test_parse_errors(self):
        with pytest.raises(LambdaSyntaxError):
            parse_lambda("d^0")
        with pytest.raises(LambdaSyntaxError):
            parse_lambda("e")
        with pytest.raises(LambdaSyntaxError) as info:
            parse_lambda("d..d")
        assert info.value.column == 3

    def test_weight_of_word(self):
        # hand-computed from the definition: three d letters, one determinant inverse
        lam = parse_lambda("d^2.Di.d")
        assert lam.wt() == Weight(-1, 2)
        assert parse_lambda("d").wt() == Weight(0, 1)
        assert parse_lambda("D").wt() == Weight(1, 1)

    def test_star_examples(self):
        # star reverses the word, sends d to d.Di and inverts delta
        assert str(parse_lambda("d^2").star()) == "d.Di.d.Di"
        assert str(parse_lambda("d.Di.d").star()) == "d^2.Di"
        assert str(parse_lambda("D.d").star()) == "d.Di^2"
        assert str(parse_lambda("d").star_inv()) == "Di.d"

    @given(LAMBDA_WORDS)
    @settings(max_examples=150, deadline=None)
    def test_star_and_star_inv_are_mutually_inverse(self, lam):
        assert lam.star().star_inv() == lam
        assert lam.star_inv().star() == lam

    @given(LAMBDA_WORDS, LAMBDA_WORDS)
    @settings(max_examples=100, deadline=None)
    def test_star_is_an_antihomomorphism(self, lam, mu):
        assert (lam * mu).star() == mu.star() * lam.star()

    @given(LAMBDA_WORDS)
    @settings(max_examples=150, deadline=None)
    def test_star_twists_weight(self, lam):
        assert lam.star().wt() == weight_star(lam.wt())
        assert lam.star_inv().wt() == weight_star(lam.wt())

    def test_enumeration_counts(self):
        # counts double-checked by a brute-force walk over words
        assert [len(enumerate_lambda(n)) for n in range(6)] == [
            1,
            4,
            11,
            28,
            69,
            168,
        ]

    def test_negative_ell_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_lambda(-1)

    def test_atoms_roundtrip(self):
        # every label with ell <= 5, Di runs such as d.Di^2.d among them
        labels = enumerate_lambda(5)
        assert any(("delta", -2) in lam.atoms() for lam in labels)
        for lam in labels:
            assert LambdaWord.from_atoms(lam.atoms()) == lam, str(lam)


class TestWeights:
    def test_parse_weight(self):
        assert parse_weight("a^2*d^3") == Weight(2, 3)
        assert parse_weight("1") == Weight(0, 0)
        assert parse_weight("a^-1") == Weight(-1, 0)
        assert render_weight(Weight(2, 3)) == "a^2*d^3"

    def test_parse_inverts_render(self):
        for i in range(-5, 6):
            for j in range(-5, 6):
                assert parse_weight(render_weight(Weight(i, j))) == Weight(i, j)

    def test_dominance(self):
        assert is_dominant(Weight(0, 3))
        assert is_dominant(Weight(-1, -1))
        assert not is_dominant(Weight(3, 0))

    def test_sigma_and_star(self):
        w = Weight(1, 4)
        assert weight_star(w) == Weight(-4, -1)
        assert weight_sigma(w) == Weight(4, 1)
        assert weight_star(weight_star(w)) == w


class TestOrders:
    def test_order_one_examples(self):
        # delta sits strictly below d^2 in the move order
        lam = parse_lambda("d^2")
        mu = parse_lambda("D")
        assert mu.lt1(lam)
        assert not lam.le1(mu)
        assert lam.le1(lam)
        assert not parse_lambda("d").le1(mu)

    def test_weight_order_examples(self):
        assert parse_lambda("D").le2(parse_lambda("d^2"))
        assert parse_lambda("d.Di.d").le2(parse_lambda("d^2"))
        assert not parse_lambda("d^2").le2(parse_lambda("D"))

    def test_covers_down(self):
        # move two rewrites d.d to delta; move one deletes d.Di.d
        assert parse_lambda("d^2").covers_down() == {parse_lambda("D")}
        assert parse_lambda("d.Di.d").covers_down() == {LambdaWord.one()}

    def test_pi_below_examples(self):
        # strict down-sets computed by exhaustive move application
        assert sorted(str(m) for m in pi_below(parse_lambda("d^2"))) == ["D"]
        assert sorted(str(m) for m in pi_below(parse_lambda("d^3"))) == [
            "D.d",
            "d.D",
        ]
        assert sorted(str(m) for m in pi_below(parse_lambda("d^4"))) == [
            "D.d^2",
            "D^2",
            "d.D.d",
            "d^2.D",
        ]

    def test_pi_below_saturated(self):
        for lam in enumerate_lambda(4):
            assert is_saturated(pi_below(lam))

    @given(LAMBDA_WORDS, LAMBDA_WORDS)
    @settings(max_examples=100, deadline=None)
    def test_le1_star_invariance(self, lam, mu):
        if mu.le1(lam):
            assert mu.star().le1(lam.star())

    @given(LAMBDA_WORDS)
    @settings(max_examples=100, deadline=None)
    def test_le1_translation_invariance(self, lam):
        d = parse_lambda("d")
        for mu in pi_below(lam):
            assert (d * mu).le1(d * lam)
            assert (mu * d).le1(lam * d)

    @given(LAMBDA_WORDS, LAMBDA_WORDS, LAMBDA_WORDS)
    @settings(max_examples=80, deadline=None)
    def test_le1_partial_order_axioms(self, x, y, z):
        assert x.le1(x)
        if x.le1(y) and y.le1(x):
            assert x == y
        if x.le1(y) and y.le1(z):
            assert x.le1(z)
