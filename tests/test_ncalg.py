"""Rewriting system, normal forms, and Hopf structure.

Expected values are either asserted directly from the defining relations,
or computed by an independent method and frozen into the test.
"""

import ast
import hashlib
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ncgl2
from ncgl2.ncalg import (
    LETTERS,
    RULES,
    ExprSyntaxError,
    NCElement,
    antipode,
    antipode_inv,
    check_confluence,
    coproduct,
    coproduct_leg,
    counit,
    counit_leg,
    enumerate_basis,
    enumerate_basis_by_pattern,
    gen,
    grouplike_words,
    is_normal_word,
    multiply_legs,
    normal_form,
    normal_form_word,
    one,
    parse_expression,
    render_element,
    render_word,
    antipode_leg,
    _coproduct_word,
    _first_redex,
    _tokenize,
    _product,
    _reduce,
)
from ncgl2.linalg import accumulate


def element(text: str) -> NCElement:
    return parse_expression(text)


# S and S^-1 of each generator, as expressions
ANTIPODE_IMAGES = {"a": "Di*d", "b": "-Di*b", "c": "-Di*c", "d": "Di*a", "D": "Di", "Di": "D"}
ANTIPODE_INV_IMAGES = {"a": "d*Di", "b": "-b*Di", "c": "-c*Di", "d": "a*Di", "D": "Di", "Di": "D"}


def letter_by_letter(el: NCElement, images: dict[str, str]) -> NCElement:
    """Oracle for S and S^-1: the product of the letter images, right to left."""
    result = NCElement({})
    for word, coeff in el.items():
        factor = one()
        for letter in reversed(word):
            factor = factor * element(images[letter])
        result = result + factor * coeff
    return result


# ---------------------------------------------------------------------------
# rewriting


class TestRewriting:
    def test_rule_count(self):
        # six two-letter rules and four three-letter rules
        assert len(RULES) == 10

    @pytest.mark.parametrize(
        "source,expected",
        [
            # the defining exchange relations
            ("c*a", "a*c"),
            ("d*b", "b*d"),
            ("d*a", "b*c + D"),
            ("c*b", "a*d - D"),
            ("D*Di", "1"),
            ("Di*D", "1"),
            ("b*Di*a", "a*Di*b"),
            ("d*Di*c", "c*Di*d"),
            ("b*Di*c", "a*Di*d - 1"),
            ("d*Di*a", "c*Di*b + 1"),
        ],
    )
    def test_defining_rules(self, source, expected):
        assert render_element(element(source)) == expected

    def test_determinant_identity(self):
        # delta = da - bc
        assert render_element(element("d*a - b*c")) == "D"

    def test_scalars_hash_as_the_numbers_they_equal(self):
        # __eq__ coerces numbers, so a scalar element finds its number's
        # dict entry and the other way round
        for x, n in ((one(), 1), (NCElement({}), 0), (element("D*Di*3/2"), Fraction(3, 2))):
            assert x == n and hash(x) == hash(n)
            assert {n: "x"}.get(x) == "x" and {x: "x"}.get(n) == "x"
        assert hash(element("a + 1")) == hash(element("1 + a"))

    def test_determinant_not_central(self):
        # a*Di and Di*a are distinct normal words
        assert element("a*Di") != element("Di*a")
        assert is_normal_word(("a", "Di"))
        assert is_normal_word(("Di", "a"))

    def test_normal_form_idempotent_on_long_word(self):
        # a worst-case alternating word stays finite and stable
        word = ("d", "a") * 6
        nf = normal_form_word(word)
        again: dict = {}
        for w, c in nf.items():
            assert is_normal_word(w)
            for w2, c2 in normal_form_word(w).items():
                again[w2] = again.get(w2, Fraction(0)) + c * c2
        assert again == nf

    def test_counts_per_length(self):
        # layer sizes found by two independent enumerations
        basis = enumerate_basis(4)
        from collections import Counter

        counts = Counter(len(w) for w in basis)
        assert dict(counts) == {0: 1, 1: 6, 2: 30, 3: 142, 4: 666}
        assert set(basis) == set(enumerate_basis_by_pattern(4))

    @pytest.mark.parametrize(
        "letters", [("c", "d", "D", "Di"), ("b", "d", "D", "Di"), ("d", "a"), ("D", "Di"), ()]
    )
    def test_letters_give_the_normal_words_over_them(self, letters):
        # subwords of normal words are normal, so growing over fewer
        # letters keeps exactly the normal words over them, in deglex order
        expected = [w for w in enumerate_basis(6) if set(w) <= set(letters)]
        assert enumerate_basis(6, letters) == expected

    def test_negative_length_rejected(self):
        assert enumerate_basis(0) == [()]
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_basis(-1)

    def test_confluence_report(self):
        report = check_confluence()
        assert report["pass"] is True
        # exactly ten overlap words between rule left-hand sides
        assert report["count"] == 10
        overlap_words = {entry["word"] for entry in report["overlaps"]}
        # three representative overlap words, resolved by hand
        assert ("c", "b", "Di", "a") in overlap_words
        assert ("D", "Di", "D") in overlap_words
        assert ("b", "Di", "c", "a") in overlap_words


WORDS = st.lists(st.sampled_from(LETTERS), min_size=0, max_size=5).map(tuple)
SMALL_ELEMENTS = st.dictionaries(
    WORDS, st.integers(min_value=-3, max_value=3), max_size=3
).map(NCElement)


class TestRewritingProperties:
    @given(WORDS)
    @settings(max_examples=200, deadline=None)
    def test_normal_form_terms_are_normal(self, word):
        for w in normal_form_word(word):
            assert is_normal_word(w)

    @given(WORDS, WORDS)
    @settings(max_examples=150, deadline=None)
    def test_multiplication_respects_normal_form(self, w1, w2):
        # NF(w1 w2) equals NF(NF(w1) * NF(w2))
        direct = normal_form({w1 + w2: Fraction(1)})
        staged = NCElement(normal_form_word(w1)) * NCElement(normal_form_word(w2))
        assert NCElement(direct) == staged

    @given(SMALL_ELEMENTS, SMALL_ELEMENTS, SMALL_ELEMENTS)
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(SMALL_ELEMENTS, SMALL_ELEMENTS)
    @settings(max_examples=60, deadline=None)
    def test_distributivity(self, x, y):
        a = gen("a")
        assert a * (x + y) == a * x + a * y


def all_words(max_len: int) -> list[tuple]:
    """Every word of at most max_len letters, normal or not."""
    words, layer = [()], [()]
    for _ in range(max_len):
        layer = [w + (letter,) for w in layer for letter in LETTERS]
        words.extend(layer)
    return words


def product_oracle(x: NCElement, y: NCElement) -> dict:
    """x * y as the sum over pairs of terms of normal_form({w1 w2: c1 c2})."""
    acc: dict = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            accumulate(acc, normal_form({w1 + w2: c1 * c2}).items())
    return acc


def plain_reduce(word: tuple, memo: dict) -> dict:
    """Oracle for _reduce: rewrite the leftmost redex, scanning from position 0.

    Finds the redex by trying every rule of RULES at every position, and
    stores every word it meets in memo, as _reduce does.
    """
    if word not in memo:
        for i in range(len(word)):
            hit = next(((lhs, rhs) for lhs, rhs in RULES if word[i : i + len(lhs)] == lhs), None)
            if hit is not None:
                lhs, rhs = hit
                acc: dict = {}
                for rw, rc in rhs.items():
                    child = word[:i] + rw + word[i + len(lhs) :]
                    accumulate(acc, ((nw, rc * c) for nw, c in plain_reduce(child, memo).items()))
                memo[word] = acc
                break
        else:
            memo[word] = {word: 1}
    return memo[word]


class TestProductKernel:
    def test_scan_bound_keeps_normal_forms_and_memo_keys(self, monkeypatch):
        # with _NF_CACHE empty, _reduce stores every word it meets in memo;
        # scanning each child from two letters before the rewrite must meet
        # exactly the words of the plain leftmost-redex reduction
        monkeypatch.setattr(ncgl2.ncalg, "_NF_CACHE", {})
        for word in all_words(5):
            memo, plain = {}, {}
            assert _reduce(word, memo) == plain_reduce(word, plain), word
            assert set(memo) == set(plain), word

    def test_product_matches_normal_form_word_on_a_cold_cache(self, monkeypatch):
        # _product starts at the seam; the result, and what it leaves in
        # _NF_CACHE, must be those of normal_form_word on the whole word
        cache: dict = {}
        monkeypatch.setattr(ncgl2.ncalg, "_NF_CACHE", cache)
        rights = enumerate_basis(2)
        for x in enumerate_basis(3):
            for y in rights:
                cache.clear()
                product = _product(x, y)
                after_product = dict(cache)
                cache.clear()
                assert product == normal_form_word(x + y), (x, y)
                assert after_product == cache, (x, y)

    def test_first_redex_matches_brute_force_scan(self):
        words = all_words(5)
        assert len(words) == 9331
        for word in words:
            expected = None
            for i in range(len(word)):
                hits = [(i, len(lhs), rhs) for lhs, rhs in RULES if word[i : i + len(lhs)] == lhs]
                if hits:
                    assert len(hits) == 1, word
                    expected = hits[0]
                    break
            assert _first_redex(word) == expected, word

    def test_list_and_tuple_words_agree(self):
        for word in (("d", "Di", "b", "a", "c"), ("c", "b", "d", "a"), ("a",), ()):
            from_list = normal_form_word(list(word))
            assert from_list == normal_form_word(word)
            # the second list call reads the cache
            assert normal_form_word(list(word)) == from_list

    def test_products_of_normal_words_match_oracle(self):
        basis = enumerate_basis(2)
        for w1 in basis:
            x = NCElement({w1: 1})
            for w2 in basis:
                y = NCElement({w2: 1})
                assert (x * y).terms == product_oracle(x, y) == normal_form({w1 + w2: 1})

    def test_fraction_and_cancelling_products_match_oracle(self):
        # d*a - b*c = D: the b*c terms of the two pairs cancel
        x = NCElement({("d",): 1, ("b",): -1})
        y = NCElement({("a",): 1, ("c",): 1})
        assert (x * y).terms == product_oracle(x, y) == {("D",): 1, ("d", "c"): 1, ("b", "a"): -1}
        half = NCElement({("c",): Fraction(1, 2), ("D", "Di"): Fraction(-2, 3), ("a", "d"): 3})
        third = NCElement({("b",): Fraction(1, 3), ("Di", "a"): Fraction(3, 4), (): -1})
        for u, v in ((half, third), (third, half), (half, half), (x, half), (third, y)):
            product = (u * v).terms
            assert product == product_oracle(u, v)
            assert all(product.values())
        assert (half * -half + half * half).is_zero()

    def test_multiply_legs_matches_per_term_loop(self):
        def per_term_loop(tensor):
            acc = {}
            for key, coeff in tensor.items():
                concatenated = sum(key, ())
                nf = normal_form_word(concatenated)
                accumulate(acc, ((nw, coeff * c) for nw, c in nf.items()))
            return acc

        memo = {}
        for word in enumerate_basis(3):
            two = coproduct(NCElement({word: 1}), memo)
            mixed = accumulate({key: 3 * c for key, c in two.items()}, (((("a",), ("d",)), -1),))
            legs = (antipode_leg(two, 0), antipode_leg(two, 1), antipode_leg(mixed, 1))
            # a key of no legs is the empty product
            for tensor in (two, coproduct_leg(two, 0, memo), mixed, *legs, {(): 5}):
                assert multiply_legs(tensor).terms == per_term_loop(tensor), word


# ---------------------------------------------------------------------------
# Hopf structure


class TestHopf:
    def test_coproduct_of_generators(self):
        # matrix comultiplication
        assert dict(coproduct(gen("a")).items()) == {
            (("a",), ("a",)): Fraction(1),
            (("b",), ("c",)): Fraction(1),
        }
        assert dict(coproduct(gen("d")).items()) == {
            (("c",), ("b",)): Fraction(1),
            (("d",), ("d",)): Fraction(1),
        }

    def test_determinant_grouplike(self):
        for letter in ("D", "Di"):
            el = gen(letter)
            assert dict(coproduct(el).items()) == {
                ((letter,), (letter,)): Fraction(1)
            }

    def test_grouplikes(self):
        # the only group-like normal words up to length 2
        assert grouplike_words(2) == [(), ("Di",), ("D",), ("Di", "Di"), ("D", "D")]

    @pytest.mark.parametrize("word", enumerate_basis(2))
    def test_axioms_per_word(self, word):
        el = NCElement({word: Fraction(1)})
        two = coproduct(el)
        assert coproduct_leg(two, 0) == coproduct_leg(two, 1)
        assert multiply_legs(counit_leg(two, 0)) == el
        assert multiply_legs(counit_leg(two, 1)) == el
        # the counit on the middle leg of (Delta # id) Delta gives Delta back
        assert counit_leg(coproduct_leg(two, 0), 1) == two
        eps = counit(el) * one()
        assert multiply_legs(antipode_leg(two, 0)) == eps
        assert multiply_legs(antipode_leg(two, 1)) == eps

    def test_antipode_images(self):
        # S inverts the matrix against the determinant
        assert antipode(gen("a")) == element("Di*d")
        assert antipode(gen("b")) == element("-Di*b")
        assert antipode(gen("c")) == element("-Di*c")
        assert antipode(gen("d")) == element("Di*a")
        assert antipode(gen("D")) == element("Di")

    def test_antipode_square_is_conjugation(self):
        # S^2(a) = Di*a*D, distinct from a: the antipode has
        # infinite order because the determinant is not central
        a = gen("a")
        assert antipode(antipode(a)) == element("Di*a*D")
        assert antipode(antipode(a)) != a

    def test_antipode_inverse(self):
        for word in enumerate_basis(3):
            el = NCElement({word: Fraction(1)})
            assert antipode_inv(antipode(el)) == el
            assert antipode(antipode_inv(el)) == el

    def test_antipode_antihomomorphism(self):
        x = element("a*b")
        y = element("c + d")
        assert antipode(x * y) == antipode(y) * antipode(x)

    def test_antipode_matches_letter_by_letter_oracle(self):
        for word in enumerate_basis(5):
            el = NCElement({word: Fraction(1)})
            assert antipode(el) == letter_by_letter(el, ANTIPODE_IMAGES), word
            assert antipode_inv(el) == letter_by_letter(el, ANTIPODE_INV_IMAGES), word

    def test_antipode_inv_inverts_antipode_up_to_length_5(self):
        for word in enumerate_basis(5):
            el = NCElement({word: Fraction(1)})
            assert antipode_inv(antipode(el)) == el, word

    def test_antipode_of_a_sum_repeats_with_exact_coefficients(self):
        el = element("3/2*a*b*c - d*Di*a + 2")
        first = antipode_inv(el)
        assert antipode_inv(el) == first == letter_by_letter(el, ANTIPODE_INV_IMAGES)
        assert all(type(c) in (int, Fraction) for _, c in first.items())
        integral = antipode_inv(element("-d*Di*a + 2"))
        assert not integral.is_zero()
        assert all(type(c) is int for _, c in integral.items())

    def test_integral_inputs_keep_int_coefficients(self):
        def ints(x):
            return all(type(c) is int for _, c in x.items())

        a, d = gen("a"), gen("d")
        for word in enumerate_basis(4):
            el = NCElement({word: Fraction(1)})
            two = coproduct(el)
            legged = antipode_leg(two, 0)
            results = (
                el,
                two,
                coproduct_leg(two, 1),
                antipode(el),
                antipode_inv(el),
                legged,
                multiply_legs(legged),
                d * el * a,
                el * el,
            )
            assert all(ints(x) for x in results), word
        assert parse_expression("3/2*a") * 2 == 3 * gen("a")
        assert ints(parse_expression("6/3*a") + 1)


class TestHopfCertificate:
    """The letter maps of Delta, epsilon, S and S^-1 respect every rule.

    Each map is applied letter by letter to the unreduced left side of a
    rule, then normalized, and compared with the image of its right side,
    so each map is well defined on the quotient algebra O.
    """

    @staticmethod
    def delta(terms: dict) -> dict:
        """Delta letter by letter, then each leg brought to normal form."""
        acc = {}
        for w, coeff in terms.items():
            for (u, v), c in _coproduct_word(w).items():
                accumulate(acc, (
                    ((nu, nv), coeff * c * cu * cv)
                    for nu, cu in normal_form_word(u).items()
                    for nv, cv in normal_form_word(v).items()
                ))
        return acc

    @pytest.mark.parametrize("lhs, rhs", RULES, ids=[render_word(lhs) for lhs, _ in RULES])
    def test_letter_maps_respect_rule(self, lhs, rhs):
        left = NCElement._raw({lhs: 1})
        right = NCElement._raw(rhs)
        assert self.delta({lhs: 1}) == self.delta(rhs)
        assert counit(left) == counit(right)
        assert antipode(left) == antipode(right)
        assert antipode_inv(left) == antipode_inv(right)


class TestCoproductMemo:
    def test_shared_memo_matches_fresh_calls(self):
        memo = {}
        for word in enumerate_basis(4):
            el = NCElement({word: 1})
            two = coproduct(el, memo)
            assert two == coproduct(el), word
            for leg in (0, 1):
                assert coproduct_leg(two, leg, memo) == coproduct_leg(two, leg), (word, leg)
        assert set(memo) == set(enumerate_basis(4))

    def test_results_leave_the_memo_unchanged(self):
        def results(memo):
            two = coproduct(element("a*b - 2*Di*c + 3"), memo)
            three = coproduct_leg(two, 1, memo)
            return [two, three, coproduct_leg(three, 0, memo), coproduct(gen("a"), memo)]

        expected = results({})
        memo = {}
        owned = results(memo) + results(memo)  # the second round reads only the memo
        stored = {word: dict(pairs) for word, pairs in memo.items()}
        for result in owned:
            key = next(iter(result))
            result[key] *= 5
            del result[key]
            result[key] = 1
            result.clear()
        assert memo == stored
        assert results({}) == expected == results(memo)


class TestAntipodeMemo:
    def test_shared_memo_matches_fresh_calls(self):
        memo, seen = {}, set()
        coproducts = {}
        for word in enumerate_basis(4):
            two = coproduct(NCElement({word: 1}), coproducts)
            for leg in (0, 1):
                assert antipode_leg(two, leg, memo) == antipode_leg(two, leg), (word, leg)
                seen.update(key[leg] for key in two)
        assert set(memo) == seen

    def test_results_leave_the_memo_unchanged(self):
        def results(memo):
            two = coproduct(element("a*b - 2*Di*c + 3"))
            three = coproduct_leg(two, 1)
            return [antipode_leg(two, 0, memo), antipode_leg(three, 2, memo), antipode_leg(two, 1, memo)]

        expected = results({})
        memo = {}
        owned = results(memo) + results(memo)  # the second round reads only the memo
        stored = {word: dict(image) for word, image in memo.items()}
        for result in owned:
            key = next(iter(result))
            result[key] *= 5
            del result[key]
            result[key] = 1
            result.clear()
        assert memo == stored
        assert results({}) == expected == results(memo)


class TestCacheBound:
    def test_bounded_cache_gives_the_same_normal_forms(self, monkeypatch):
        rng = random.Random(7)
        words = [tuple(rng.choice(LETTERS) for _ in range(6)) for _ in range(300)]
        cache = ncgl2.ncalg._NF_CACHE
        expected, fresh = {}, []
        for word in words:
            cache.clear()
            expected[word] = dict(normal_form_word(word))
            fresh.append(len(cache))
        cache.clear()
        monkeypatch.setattr(ncgl2.ncalg, "_NF_CACHE_LIMIT", 50)
        sizes = []
        for word in words:
            assert normal_form_word(word) == expected[word], word
            sizes.append(len(cache))
        # the cache was cleared in place, never rebound, and stayed bounded
        assert ncgl2.ncalg._NF_CACHE is cache
        assert any(b < a for a, b in zip(sizes, sizes[1:]))
        assert max(sizes) <= 50 + max(fresh)


class TestTensorElement:
    """An element of a tensor power of O is a plain {tuple of words: coefficient} dict."""

    def test_algebra_and_tensor_elements_do_not_multiply(self):
        x, t = gen("a"), coproduct(gen("a"))
        with pytest.raises(TypeError):
            x * t
        with pytest.raises(TypeError):
            t * x
        with pytest.raises(TypeError):
            x * "a"


# ---------------------------------------------------------------------------
# parsing and rendering


# tokens of the random expression corpus: the letters, numbers and
# operators the tokenizer reads, and some that it rejects
EXPR_TOKENS = ("Di", "D", "a", "b", "c", "d", "Dii", *"0123456789", "10", "3/2", *"+-*^()/", " ", "\t", "x", "²")

# function: the sha256 of one line per corpus string, computed at commit
# ebca9de, before _tokenize read the letter names from LETTERS
EXPRESSION_DIGESTS = {
    "_tokenize": "c5f0c79d6d3c1f683c6682fc3bcb007fcd87cb397974babdf21826f12cd5b5de",
    "parse_expression": "62f3c8a52d01fdbf851e2b2e14c5eff364ccc99a4c0c0f3d13f3e65535294bd1",
}


def _expression_corpus():
    """60,000 random strings of at most 9 tokens.

    Numbers have at most 3 digits, so that every power in the corpus
    expands in well under a second.
    """
    rng = random.Random(0)
    count = 0
    while count < 60_000:
        text = "".join(rng.choice(EXPR_TOKENS) for _ in range(rng.randint(0, 9)))
        if not re.search("[0-9]{4}", text):
            count += 1
            yield text


@pytest.mark.parametrize("name", sorted(EXPRESSION_DIGESTS))
def test_expression_digests_equal_the_earlier_tokenizer(name):
    parse = _tokenize if name == "_tokenize" else parse_expression

    def outcome(text):
        try:
            return str(parse(text))
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"

    text = "\n".join(f"{s!r} {outcome(s)}" for s in _expression_corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == EXPRESSION_DIGESTS[name]


class TestSyntax:
    @pytest.mark.parametrize(
        "text,rendered",
        [
            ("d*a", "b*c + D"),
            ("(a + b)^2", "b^2 + b*a + a*b + a^2"),
            ("2/3*a - a", "-1/3*a"),
            ("a b", "a*b"),
            ("1", "1"),
            ("a - a", "0"),
        ],
    )
    def test_roundtrip(self, text, rendered):
        assert render_element(element(text)) == rendered

    @pytest.mark.parametrize(
        "text,column",
        [
            ("d**a", 3),
            ("a^0", 3),
            ("a +", 4),
            (")", 1),
            ("a^x", 3),
        ],
    )
    def test_error_columns(self, text, column):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expression(text)
        assert info.value.column == column

    def test_render_word_collapses_runs(self):
        assert render_word(("b", "Di", "c")) == "b*Di*c"
        assert render_word(("D", "D")) == "D^2"
        assert render_word(()) == "1"

    def test_parse_inverts_render_word(self):
        for word in enumerate_basis(5):
            assert parse_expression(render_word(word)).terms == {word: 1}, word

    @given(SMALL_ELEMENTS)
    @settings(max_examples=80, deadline=None)
    def test_render_parse_roundtrip(self, x):
        assert parse_expression(render_element(x)) == x


def test_only_ncalg_matches_rule_left_sides():
    # normality is decided by the redex index ncalg builds from RULES; a
    # module that compares word[p + 1] with a letter re-spells a left side
    package = Path(ncgl2.__file__).parent
    hits = []
    for path in sorted(package.glob("*.py")):
        if path.name == "ncalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            computed = any(
                isinstance(side, ast.Subscript) and isinstance(side.slice, ast.BinOp)
                for side in sides
            )
            letter = any(
                isinstance(side, ast.Constant) and side.value in LETTERS for side in sides
            )
            if computed and letter:
                hits.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert hits == []


def test_only_the_leg_map_cuts_keys_and_antipodes_take_no_memo():
    # one home for a Hopf map applied to one leg: only ncalg._map_leg cuts
    # a tensor key around a leg (key[:leg]); and one meaning of memo:
    # antipode and antipode_inv take the element alone
    package = Path(ncgl2.__file__).parent
    map_leg = next(
        node
        for node in ast.walk(ast.parse((package / "ncalg.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_map_leg"
    )
    lines = range(map_leg.lineno, map_leg.end_lineno + 1)
    cuts, calls = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Slice):
                if "leg" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}:
                    inside = path.name == "ncalg.py" and node.lineno in lines
                    cuts.append((inside, f"{path.name}:{node.lineno}"))
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("antipode", "antipode_inv") and len(node.args) + len(node.keywords) > 1:
                    calls.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert cuts and [where for inside, where in cuts if not inside] == []
    assert calls == []
