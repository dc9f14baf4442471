"""Named comodules: standards, costandards, simples, multisets, layers."""

from collections import Counter
from itertools import product

import pytest

import ncgl2.standard
from ncgl2.comodules import (
    Comodule,
    ComoduleMap,
    VerificationError,
    comodule_axiom_failures,
    highest_weight,
    hom_space,
    left_dual,
    weight_decomposition,
)
from ncgl2.standard import (
    _atom_dimension,
    build_L,
    build_M,
    build_R,
    build_SymV,
    build_TV,
    build_delta,
    build_nabla,
    canonical_map,
    char_M,
    char_T,
    char_delta,
    char_nabla,
    decompose_layer,
    delta_multiset,
    layer_dimension,
    nabla_multiset,
)
from ncgl2.weights import LambdaWord, Weight, enumerate_lambda, parse_lambda
from test_comodules import direct_sum


def lam(text: str) -> LambdaWord:
    return parse_lambda(text)


def names(counter: Counter) -> dict[str, int]:
    return {str(k): v for k, v in counter.items()}


def delta_oracle(l: LambdaWord):
    """Delta(l) by definition: the left dual of the built nabla(star_inv(l))."""
    return left_dual(build_nabla(l.star_inv()))


def canonical_map_by_hom_space(l: LambdaWord) -> ComoduleMap:
    """The canonical map from the full intertwining system, an oracle.

    Solves all of Hom(Delta(l), nabla(l)), requires it to be one
    dimensional, and scales its generator to 1 between the top weight
    basis vectors.
    """
    delta, nabla = build_delta(l), build_nabla(l)
    maps = hom_space(delta, nabla)
    assert len(maps) == 1, str(l)
    top = l.wt()
    f = maps[0]
    scale = f.matrix[nabla.weights.index(top)][delta.weights.index(top)]
    return ComoduleMap(delta, nabla, [[x / scale for x in row] for row in f.matrix])


def nabla_surjection(l: LambdaWord) -> ComoduleMap:
    """The canonical surjection M(l) ->> nabla(l), an oracle for build_nabla.

    It sends a tensor monomial of each d-run V^{(x) y} to the symmetric
    monomial of S^y V with the same content, and is the identity on lines.
    """
    M, N = build_M(l), build_nabla(l)
    runs = [value for kind, value in l.atoms() if kind == "d"]
    matrix = [[0] * M.dim for _ in range(N.dim)]
    for m, run_bits in enumerate(product(*(product((0, 1), repeat=y) for y in runs))):
        n = 0
        for y, bits in zip(runs, run_bits):
            n = n * (y + 1) + sum(bits)
        matrix[n][m] = 1
    return ComoduleMap(M, N, matrix)


class TestBuilders:
    def test_sym_powers(self):
        for y in range(5):
            S = build_SymV(y)
            assert S.dim == y + 1
            assert comodule_axiom_failures(S) == []
            assert highest_weight(S) == (Weight(0, y), 1)

    def test_dual_sym_twist(self):
        for y in (1, 2, 3):
            T = build_TV(y)
            assert T.dim == y + 1
            assert weight_decomposition(T) == char_T(y)

    def test_nabla_dimensions(self):
        # dim of the costandard is the product of (run + 1)
        cases = {
            "1": 1,
            "d": 2,
            "D": 1,
            "d^2": 3,
            "d.Di.d": 4,
            "d^3": 4,
            "d^2.Di.d": 6,
        }
        for text, dim in cases.items():
            assert build_nabla(lam(text)).dim == dim

    def test_delta_dimension_differs_from_nabla(self):
        # standards and costandards of the same label can have
        # different dimensions; the label d^2 is the smallest witness
        assert build_delta(lam("d^2")).dim == 4
        assert build_nabla(lam("d^2")).dim == 3

    def test_delta_dimension_formula(self):
        for l in enumerate_lambda(4):
            expected = 1
            for kind, y in l.star_inv().atoms():
                if kind == "d":
                    expected *= y + 1
            assert build_delta(l).dim == expected

    @pytest.mark.parametrize(
        "labels", [enumerate_lambda(5), [lam("d^6")]], ids=["ell<=5", "d^6"]
    )
    def test_delta_equals_dual_of_nabla(self, labels):
        # build_delta dualizes the factors, not the product; the two
        # routes agree entry for entry
        for l in labels:
            delta, oracle = build_delta(l), delta_oracle(l)
            assert delta.labels == oracle.labels
            assert delta.coaction == oracle.coaction

    @pytest.mark.parametrize(
        "labels", [enumerate_lambda(5), [lam("d^6")]], ids=["ell<=5", "d^6"]
    )
    def test_carried_weights_equal_scanned(self, labels):
        # tensor, left_dual and build_delta carry weights instead of
        # scanning; a fresh comodule on the same coaction scans them
        for l in labels:
            delta = build_delta(l)
            assert delta._weights is not None, str(l)
            for X in (delta, build_nabla(l)):
                assert X.weights == Comodule(X.labels, X.coaction).weights, str(l)

    def test_delta_satisfies_comodule_axioms(self):
        # independent of the oracle: coassociativity and counit, entrywise
        assert comodule_axiom_failures(build_delta(lam("d^5"))) == []

    def test_M_dimension(self):
        # each d letter contributes a two-dimensional factor
        for text, dim in (("d", 2), ("d^2", 4), ("d.Di.d", 4), ("D^3", 1)):
            assert build_M(lam(text)).dim == dim

    def test_dimensions_from_runs_match_builders(self):
        # the multisets suite reads dimensions off the runs of d, unbuilt
        for l in enumerate_lambda(5):
            assert build_M(l).dim == _atom_dimension(l, sym=False), str(l)
            assert build_nabla(l).dim == _atom_dimension(l, sym=True), str(l)

    def test_nabla_surjection(self):
        for text in ("d", "d^2", "d.Di.d", "d^2.Di.d"):
            f = nabla_surjection(lam(text))
            assert f.is_intertwiner()
            assert f.rank() == f.target.dim
            assert f.source.dim == build_M(lam(text)).dim

    def test_highest_weights(self):
        for l in enumerate_lambda(3):
            nab = build_nabla(l)
            assert highest_weight(nab) == (l.wt(), 1)
            delta = build_delta(l)
            assert highest_weight(delta) == (l.wt(), 1)

    def test_characters_match_builders(self):
        for l in enumerate_lambda(3):
            assert weight_decomposition(build_nabla(l)) == char_nabla(l)
            assert weight_decomposition(build_delta(l)) == char_delta(l)
            assert weight_decomposition(build_M(l)) == char_M(l)

    def test_char_delta_reflects_char_nabla(self):
        # the standard character is the costandard character of
        # the star-inverse label with all weights negated
        for l in enumerate_lambda(3):
            mirrored = {
                Weight(-w.i, -w.j): m
                for w, m in char_nabla(l.star_inv()).items()
            }
            assert char_delta(l) == mirrored


class TestSimpleQuotients:
    def test_canonical_map_is_unique_up_to_scale(self):
        for text in ("d", "d^2", "d.Di.d", "D^2"):
            f = canonical_map(lam(text))
            assert f.is_intertwiner()
            assert len(hom_space(f.source, f.target)) == 1

    @pytest.mark.parametrize(
        "labels", [enumerate_lambda(5), [lam("d^6")]], ids=["ell<=5", "d^6"]
    )
    def test_top_line_route_matches_hom_space(self, labels):
        for l in labels:
            assert canonical_map(l) == canonical_map_by_hom_space(l), str(l)

    def test_non_cyclic_delta_raises(self, monkeypatch):
        # V (+) R: the top vector of V generates only V, so the stand-in
        # for Delta(d) is not generated by its top weight line
        real = ncgl2.standard.build_delta
        monkeypatch.setattr(
            ncgl2.standard, "build_delta", lambda l: direct_sum(real(l), build_R(1))
        )
        with pytest.raises(VerificationError, match="not generated by its top weight line"):
            canonical_map(lam("d"))

    def test_simple_dimensions(self):
        # ranks of the canonical maps
        cases = {
            "1": 1,
            "d": 2,
            "D": 1,
            "d^2": 3,
            "d^3": 4,
            "d.Di.d": 3,
            "d.D.d": 4,
        }
        for text, dim in cases.items():
            L, incl = build_L(lam(text))
            assert L.dim == dim
            assert incl.is_intertwiner()

    def test_simple_is_subcomodule_of_nabla(self):
        for text in ("d^2", "d.Di.d"):
            L, incl = build_L(lam(text))
            assert incl.target.dim == build_nabla(lam(text)).dim
            assert incl.rank() == L.dim

    def test_simple_of_group_like_labels(self):
        for text in ("D", "Di", "D^2"):
            L, _ = build_L(lam(text))
            assert L.dim == 1


class TestMultisets:
    def test_delta_multiset_dimension_audit(self):
        for l in enumerate_lambda(4):
            total = sum(
                build_delta(mu).dim * m for mu, m in delta_multiset(l).items()
            )
            assert total == build_M(l).dim


class TestLayers:
    def test_layer_words_avoid_patterns(self):
        for word, label in decompose_layer(3):
            for p in range(len(word) - 1):
                assert word[p : p + 2] not in (("D", "Di"), ("Di", "D"))
            assert not any(
                word[p : p + 3] == ("d", "Di", "c") for p in range(len(word) - 2)
            )

    def test_layer_one(self):
        assert [(w, str(l)) for w, l in decompose_layer(1)] == [
            (("D",), "D"),
            (("Di",), "Di"),
            (("c",), "d"),
            (("d",), "d"),
        ]

    @pytest.mark.parametrize("n,count", [(0, 1), (1, 6), (2, 30), (3, 142), (4, 666)])
    def test_layer_dimension_counts_basis(self, n, count):
        # summed costandard dimensions reproduce the basis count
        assert layer_dimension(n) == count

    def test_repring_decompose(self):
        # in the representation ring, V * V = (d^2) + (D)
        assert names(nabla_multiset(lam("d^2"))) == {"d^2": 1, "D": 1}
        assert names(nabla_multiset(lam("d^3"))) == {
            "d^3": 1,
            "d.D": 1,
            "D.d": 1,
        }
        assert names(nabla_multiset(lam("D.Di"))) == {"1": 1}
