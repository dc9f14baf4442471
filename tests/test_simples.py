"""The block classifier for simple comodules and the differential oracle."""

import ast
import hashlib
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ncgl2 import simples
from ncgl2.checks import run_check_suite
from ncgl2.comodules import (
    ComoduleMap,
    VerificationError,
    are_isomorphic,
    generated_subcomodule,
    image,
    image_character,
    weight_decomposition,
)
from ncgl2.simples import (
    BlockExpression,
    ClassifierError,
    classify,
    classify_crosscheck,
    delta_grouping,
    sl2_commutation_check,
    sl2_rank_oracle,
    split_segments,
    validate_adjacency,
)
from ncgl2.standard import (
    build_L,
    build_V,
    canonical_map,
    delta_multiset,
    factor_char,
    factor_comodule,
    nabla_multiset,
)
from ncgl2.weights import LambdaWord, enumerate_lambda, parse_lambda
from test_comodules import columns_of

RI = ("R", -1)


def lam(text: str) -> LambdaWord:
    return parse_lambda(text)


def run_word(z: tuple[int, ...]) -> LambdaWord:
    return parse_lambda(".Di.".join(f"d^{k}" if k > 1 else "d" for k in z))


class TestSegments:
    def test_split_examples(self):
        lead, segments, connectors, trail = split_segments(lam("D.d^2.Di.d.D^3"))
        assert lead == 1
        assert segments == [(2, 1)]
        assert connectors == []
        assert trail == 3

    def test_split_two_segments(self):
        lead, segments, connectors, trail = split_segments(lam("d.Di.d.D^2.d^2"))
        assert lead == 0
        assert segments == [(1, 1), (2,)]
        assert connectors == [2]
        assert trail == 0

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1", (0, [], [], 0)),
            ("D^2", (2, [], [], 0)),
            ("Di", (-1, [], [], 0)),
            ("d.D^2", (0, [(1,)], [], 2)),
            # a delta^-1 at either end is lead or trail, not a link
            ("Di.d", (-1, [(1,)], [], 0)),
            ("d.Di", (0, [(1,)], [], -1)),
            ("d.Di^2.d", (0, [(1,), (1,)], [-2], 0)),
            ("D.d.Di.d.Di", (1, [(1, 1)], [], -1)),
            ("Di.d.Di.d^2.D", (-1, [(1, 2)], [], 1)),
        ],
    )
    def test_split_edge_cases(self, text, expected):
        assert split_segments(lam(text)) == expected

    def test_delta_grouping(self):
        # chains of unit gaps merge into single T factors
        assert delta_grouping((1, 1, 3)).render() == "T3 * S2"
        assert delta_grouping((2,)).render() == "S2"
        assert delta_grouping((1, 1)).render() == "T2"


# sha256 of one line per label, computed at commit e299812, before
# split_segments and nabla_multiset read their d-runs from LambdaWord.atoms
LABEL_DIGESTS = {
    "segments": (9, "e2f5ddd64be0cd9f39cc2debce88a7bde6d7d857328e683bd749f809b093cf4b"),
    "multisets": (7, "f9ec343678d0332200cdae1b8f012722a8209cdeb72d134d8fe72b8c16c1d93f"),
}


def _label_line(kind: str, l: LambdaWord) -> str:
    if kind == "segments":
        return f"{l} {split_segments(l)} {classify(l).render()}"
    nabla = sorted(str(m) for m in nabla_multiset(l).elements())
    delta = sorted(str(m) for m in delta_multiset(l).elements())
    return f"{l} {nabla} {delta}"


@pytest.mark.parametrize("kind", sorted(LABEL_DIGESTS))
def test_label_digests_equal_the_earlier_route(kind):
    ell, digest = LABEL_DIGESTS[kind]
    text = "\n".join(_label_line(kind, l) for l in enumerate_lambda(ell))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _compositions(n: int):
    """Every composition of n, as a tuple of positive parts."""
    for cuts in product((False, True), repeat=n - 1):
        z = [1]
        for cut in cuts:
            z[-1:] = [z[-1], 1] if cut else [z[-1] + 1]
        yield tuple(z)


def _factor_words():
    """Every word of 1-4 S/T blocks with exponents 0-4, each gap empty, R^-1 or R^-2."""
    blocks = [(kind, e) for kind in "ST" for e in range(5)]
    for count in range(1, 5):
        for chosen in product(blocks, repeat=count):
            for gaps in product([(), (RI,), (("R", -2),)], repeat=count - 1):
                yield chosen[:1] + sum((gap + (block,) for gap, block in zip(gaps, chosen[1:])), ())


def _adjacency_outcome(factors) -> str | None:
    try:
        validate_adjacency(factors)
    except ClassifierError as exc:
        return str(exc)
    return None


# sha256 of one line per segment or factor word, computed at commit
# b48991f, before the greedy and the exchange moves shared one unit move:
# the greedy and normal forms of every segment with at most 14 d's, and
# the exchange neighbours and adjacency outcome of every small factor word
MOVE_DIGESTS = {
    "segments": (16_383, "2215239e53106e7fd3606895337fb27a96c8dffd7cab6c7c5339e564be300103"),
    "exchanges": (279_310, "7e19ec488c2741045e642bd768d792e458743e92c1478a6edd0575e2f9e53746"),
}


def _move_line(kind: str, item) -> str:
    if kind == "segments":
        greedy = simples._classify_segment(item)
        return f"{item} {greedy} {simples._normalize(greedy)}"
    return f"{item} {sorted(simples._exchange_neighbours(item))} {_adjacency_outcome(item)}"


@pytest.mark.parametrize("kind", sorted(MOVE_DIGESTS))
def test_move_digests_equal_the_earlier_route(kind):
    count, digest = MOVE_DIGESTS[kind]
    items = [z for n in range(1, 15) for z in _compositions(n)] if kind == "segments" else list(_factor_words())
    assert len(items) == count
    text = "\n".join(_move_line(kind, item) for item in items)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _collapse_outcome(factors) -> str:
    try:
        return str(simples._collapse_empty(factors))
    except ClassifierError as exc:
        return str(exc)


def test_collapse_digest_equals_the_earlier_route():
    # sha256 of the list or the error message of _collapse_empty for every
    # factor list of length <= 5 over T^0..2, S^0..2, R^-1 and R^2,
    # computed at commit 530abbd, before the collapse became one pass
    alphabet = [("T", e) for e in range(3)] + [("S", e) for e in range(3)] + [RI, ("R", 2)]
    lists = [f for length in range(6) for f in product(alphabet, repeat=length)]
    assert len(lists) == 37_449
    text = "\n".join(f"{f} {_collapse_outcome(f)}" for f in lists)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "55a8e0b7cdfff68c160db93c27241f3e1bccbe18c624abc39143fc87d703318d"
    )


class TestClassifier:
    # canonical block expressions and dimensions, frozen from the
    # greedy reduction plus exchange-move normalization
    CASES = [
        ((2,), "S2", 3),
        ((1, 1), "T2", 3),
        ((1, 2), "T2 * S1", 6),
        ((3, 1), "S3 * Ri * T1", 8),
        ((1, 1, 3), "T3 * S2", 12),
        ((2, 2), "S2 * Ri * S2", 9),
        ((2, 1, 2), "S1 * T3 * S1", 16),
        ((1, 1, 2, 1, 1), "T3 * T3", 16),
        ((2, 2, 2), "S2 * Ri * S2 * Ri * S2", 27),
        ((1, 3, 1, 1), "T2 * S1 * T3", 24),
        ((1, 4, 1, 1, 1, 1), "T1 * Ri * S3 * T5", 48),
    ]

    @pytest.mark.parametrize("z,expected,dim", CASES)
    def test_single_segment_words(self, z, expected, dim):
        expr = classify(run_word(z))
        assert expr.render() == expected
        assert expr.dim == dim

    def test_pure_determinant(self):
        assert classify(lam("D^2")).render() == "R^2"
        assert classify(lam("Di")).render() == "Ri"
        assert classify(LambdaWord.one()).render() == "1"

    def test_multi_segment_concatenates(self):
        # a connector that is not delta^-1 separates the problem completely
        whole = classify(lam("d.Di.d.D^2.d^2"))
        left = classify(lam("d.Di.d"))
        right = classify(lam("d^2"))
        assert whole.factors == left.factors + (("R", 2),) + right.factors
        assert whole.render() == "T2 * R^2 * S2"
        assert whole.dim == left.dim * right.dim

    def test_expression_dim_is_product(self):
        expr = BlockExpression((("T", 2), ("R", -1), ("S", 3)))
        assert expr.dim == 3 * 1 * 4
        assert expr.rinv_count() == 1

    def test_all_emitted_expressions_are_admissible(self):
        for l in enumerate_lambda(4):
            expr = classify(l)
            validate_adjacency(expr.factors)  # must not raise

    def test_adjacency_violations_raise(self):
        assert issubclass(ClassifierError, VerificationError)
        assert issubclass(VerificationError, ValueError)
        violations = [
            (("T", 1), ("S", 3)),
            (("S", 3), ("T", 1)),
            (("T", 2), ("S", 2)),
            (("T", 2), RI, ("S", 1)),
            (("S", 1), RI, ("T", 2)),
            (("T", 2), RI, ("S", 2)),
        ]
        for factors in violations:
            with pytest.raises(ClassifierError):
                validate_adjacency(factors)
        # the boundary cases, and an R^k with k != -1 that separates fully
        for factors in [
            (("T", 2), ("S", 1)),
            (("S", 1), ("T", 2)),
            (("T", 2), RI, ("S", 3)),
            (("S", 3), RI, ("T", 2)),
            (("T", 1), ("R", -2), ("S", 3)),
            (("T", 1), ("R", 1), ("S", 3)),
        ]:
            validate_adjacency(factors)

    def test_sl2_criterion_reads_the_classifier_table(self, monkeypatch):
        # criterion 09 compares the oracle with the table the classifier
        # reads, so a wrong table fails it
        assert [r["pass"] for r in run_check_suite(["sl2"], {"len": 3})] == [True, True]
        monkeypatch.setattr(simples, "transfer_flags", lambda a, b: (a > b + 1, a <= b + 1))
        results = {r["name"]: r["pass"] for r in run_check_suite(["sl2"], {"len": 3})}
        assert results == {"sl2.rank-flags-grid-3": False, "sl2.transfer-commutation": True}

    @pytest.mark.parametrize(
        "factors,neighbours",
        [
            # the four move shapes, taken from commit aa7623a
            ((("T", 2), ("S", 1)), [(("T", 1), RI, ("S", 2))]),
            ((("T", 3), ("S", 2)), [(("T", 2), RI, ("S", 3))]),
            ((("S", 1), ("T", 2)), [(("S", 2), RI, ("T", 1))]),
            ((("S", 2), ("T", 3)), [(("S", 3), RI, ("T", 2))]),
            ((("T", 1), RI, ("S", 2)), [(("T", 2), ("S", 1))]),
            ((("T", 3), RI, ("S", 4)), [(("T", 4), ("S", 3))]),
            ((("S", 2), RI, ("T", 1)), [(("S", 1), ("T", 2))]),
            ((("S", 4), RI, ("T", 3)), [(("S", 3), ("T", 4))]),
            # no move leaves T^0 or S^0
            ((("T", 1), ("S", 0)), []),
            ((("S", 0), ("T", 1)), []),
            ((("T", 0), RI, ("S", 1)), []),
            ((("S", 1), RI, ("T", 0)), []),
            # a move needs the exponents one apart and R^-1 as its separator
            ((("T", 3), ("S", 1)), []),
            ((("T", 2), ("R", -2), ("S", 3)), []),
            # in a longer word each pair that can move does
            ((("T", 2), ("S", 1), RI, ("T", 1)), [(("T", 1), RI, ("S", 2), RI, ("T", 1))]),
            ((("T", 1), RI, ("S", 2), ("T", 3)), [(("T", 1), RI, ("S", 3), RI, ("T", 2)), (("T", 2), ("S", 1), ("T", 3))]),
        ],
    )
    def test_exchange_neighbours(self, factors, neighbours):
        # the neighbours in any order: _normalize closes them into a set
        assert sorted(simples._exchange_neighbours(factors)) == sorted(neighbours)

    def test_classifier_suite_fails_only_on_classifier_errors(self, monkeypatch):
        # a ClassifierError is a failed check; any other exception is a bug
        # and propagates instead of showing as a FAIL line.  The patched
        # classifier misbehaves only inside classify_crosscheck, so that the
        # named examples still run.
        classifier = simples.classify

        def in_crosscheck(error):
            def patched(lam):
                if sys._getframe(1).f_code.co_name == "classify_crosscheck":
                    raise error
                return classifier(lam)

            return patched

        rejects = in_crosscheck(ClassifierError("rejected"))
        broken = in_crosscheck(TypeError("broken classifier"))
        monkeypatch.setattr(simples, "classify", rejects)
        results = run_check_suite(["classifier"], {"len": 1})
        assert [(r["name"], r["pass"]) for r in results] == [
            ("classifier.crosscheck-len1", False),
            ("classifier.named-examples", True),
            ("classifier.adjacency-table-len1", False),
        ]
        monkeypatch.setattr(simples, "classify", broken)
        with pytest.raises(TypeError, match="broken classifier"):
            run_check_suite(["classifier"], {"len": 1})

    def test_classifier_deterministic(self):
        for l in enumerate_lambda(3):
            assert classify(l) == classify(l)
            assert classify(l).render() == classify(l).render()


class TestCrosscheck:
    def test_crosscheck_fields(self):
        report = classify_crosscheck(lam("d^2.Di.d"))
        assert report["consistent"]
        assert report["dim"] == report["rank"] == report["dimL"] == 6
        assert report["expression"] == "S1 * T2"

    def test_crosscheck_small_sweep(self):
        # dims from the block expression, the canonical map rank, and the
        # built simple must all agree
        for l in enumerate_lambda(4):
            report = classify_crosscheck(l)
            assert report["consistent"], report

    def test_block_comodule_realizes_simple(self):
        for text in ("d", "d^2", "d.Di.d", "D", "d.Di.d^2"):
            L, _ = build_L(lam(text))
            B = factor_comodule(classify(lam(text)).factors)
            assert are_isomorphic(B, L)

    def test_block_comodule_is_the_simple_through_ell_6(self):
        # the paper's claim itself, not only its dimension and character:
        # L(lam) is the tensor product of the classifier's factors.  Exact,
        # since Hom between simples has dimension at most 1
        labels = enumerate_lambda(6)
        assert len(labels) == 407
        for l in labels:
            L, _ = build_L(l)
            assert are_isomorphic(factor_comodule(classify(l).factors), L), str(l)

    def test_block_char_matches_simple(self):
        for l in enumerate_lambda(3):
            L, _ = build_L(l)
            assert factor_char(classify(l).factors) == weight_decomposition(L)

    def test_block_ranks_match_the_built_image(self):
        # the oracle: the character and dimension read off F's weight
        # blocks equal those of image(f), built by closing its span, and
        # the rank of the whole matrix
        for l in enumerate_lambda(6):
            f = canonical_map(l)
            char = image_character(f)
            assert char == weight_decomposition(image(f)[0]), str(l)
            assert sum(char.values()) == f.rank(), str(l)

    def test_weight_crossing_entry_raises(self):
        V = build_V()
        assert image_character(ComoduleMap(V, V, columns_of([[1, 0], [0, 3]]))) == {
            w: 1 for w in V.weights
        }
        with pytest.raises(VerificationError, match="pairs weight"):
            image_character(ComoduleMap(V, V, columns_of([[1, 2], [0, 1]])))

    @given(st.sampled_from(enumerate_lambda(5)))
    @settings(max_examples=25, deadline=None)
    def test_three_way_agreement(self, l):
        # the classifier, the rank of the canonical map and the subcomodule
        # of nabla generated by its top-weight vector agree; the last two
        # both run on linalg.Echelon, which test_linalg checks against an
        # independent dense Gauss-Jordan oracle
        f = canonical_map(l)
        nabla = f.target
        top = [F(0)] * nabla.dim
        top[nabla.weights.index(l.wt())] = F(1)
        generated, _ = generated_subcomodule(nabla, top)
        assert classify(l).dim == f.rank() == generated.dim, str(l)


class TestDifferentialOracle:
    @pytest.mark.parametrize(
        "a,b,rank,inj,surj",
        [
            # ranks of the raising operator on bihomogeneous parts
            (2, 1, 6, True, True),
            (3, 2, 12, True, True),
            (1, 3, 5, False, True),
            (4, 1, 10, True, False),
            (0, 0, 0, False, True),
        ],
    )
    def test_left_rank_examples(self, a, b, rank, inj, surj):
        report = sl2_rank_oracle(a, b, "left")
        assert report["rank"] == rank
        assert report["injective"] is inj
        assert report["surjective"] is surj

    def test_flag_laws_small_grid(self):
        # injectivity and surjectivity are decided by one inequality
        for a in range(6):
            for b in range(6):
                left = sl2_rank_oracle(a, b, "left")
                assert left["injective"] == (a >= b + 1)
                assert left["surjective"] == (a <= b + 1)
                right = sl2_rank_oracle(a, b, "right")
                assert right["injective"] == (b >= a + 1)
                assert right["surjective"] == (b <= a + 1)

    def test_directions_are_mirror_images(self):
        for a in range(5):
            for b in range(5):
                left = sl2_rank_oracle(a, b, "left")
                right = sl2_rank_oracle(b, a, "right")
                assert left["rank"] == right["rank"]

    def test_commutation(self):
        assert sl2_commutation_check(3)


def test_crosscheck_builds_no_image():
    # classify_crosscheck reads L(lam)'s character from the canonical map's
    # weight-block ranks; closing the image or ranking the whole matrix
    # would redo that work
    tree = ast.parse(Path(simples.__file__).read_text())
    body = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "classify_crosscheck"
    )
    hits = []
    for node in ast.walk(body):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("image", "_close", "weight_decomposition") or (
            name == "rank" and isinstance(func, ast.Attribute) and not node.args
        ):
            hits.append(f"{node.lineno}: {ast.unparse(node)}")
    assert hits == []
