"""Named comodules: standards, costandards, simples, multisets, layers."""

import ast
import hashlib
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path

import pytest

import ncgl2.linalg
import ncgl2.ncalg
import ncgl2.standard
from ncgl2.cli import main
from ncgl2.comodules import (
    Comodule,
    ComoduleMap,
    VerificationError,
    _coaction_components,
    comodule_axiom_failures,
    highest_weight,
    hom_space,
    image,
    left_dual,
    weight_decomposition,
)
from ncgl2.linalg import Echelon, nullspace_sparse
from ncgl2.ncalg import NCElement, enumerate_basis, gen, one
from ncgl2.simples import classify
from ncgl2.standard import (
    build_L,
    build_M,
    build_R,
    build_SymV,
    build_TV,
    build_V,
    build_delta,
    build_nabla,
    canonical_map,
    comodule_certificate,
    char_M,
    char_T,
    char_delta,
    char_nabla,
    decompose_layer,
    delta_multiset,
    factor_char,
    factor_comodule,
    factor_dim,
    hom_from_delta,
    layer_dimension,
    monoid_factors,
    nabla_factors,
    nabla_multiset,
)
from ncgl2.weights import LambdaWord, Weight, enumerate_lambda, parse_lambda
from test_comodules import columns_of, direct_sum, left_fold
from test_linalg import dense_rows


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
    return ComoduleMap(delta, nabla, columns_of([[x / scale for x in row] for row in f.matrix]))


def canonical_map_materialized(l: LambdaWord) -> ComoduleMap:
    """The canonical map by the route that builds all of Delta(l), an oracle.

    Reads the top row off the built Delta(l), solves the same top-line
    system, and accepts the solution only if the full intertwining check
    passes on the built coaction.
    """
    delta, nabla = build_delta(l), build_nabla(l)
    top = l.wt()
    a = _coaction_components(delta, {delta.weights.index(top): 1})
    b = _coaction_components(nabla, {nabla.weights.index(top): 1})
    assert len(Echelon(a.values())) == delta.dim, str(l)
    targets = [[m for m in range(nabla.dim) if nabla.weights[m] == w] for w in delta.weights]
    allowed = [(m, j) for j in range(delta.dim) for m in targets[j]]
    var_index = {pair: n for n, pair in enumerate(allowed)}
    s = len(allowed)
    equations = []
    for w in {**a, **b}:
        per_row = {}
        for j, c in a.get(w, {}).items():
            for m in targets[j]:
                per_row.setdefault(m, {})[var_index[m, j]] = c
        for m, c in b.get(w, {}).items():
            per_row.setdefault(m, {})[s] = -c
        equations.extend(per_row.values())
    (sol,) = dense_rows(nullspace_sparse(equations, s + 1), s + 1)
    matrix = [[Fraction(0)] * delta.dim for _ in range(nabla.dim)]
    for (m, j), n in var_index.items():
        matrix[m][j] = sol[n] / sol[s]
    f = ComoduleMap(delta, nabla, columns_of(matrix))
    assert f.is_intertwiner() is True, str(l)
    return f


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
    return ComoduleMap(M, N, columns_of(matrix))


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
            assert delta.coaction == oracle.coaction

    @pytest.mark.parametrize(
        "labels", [enumerate_lambda(5), [lam("d^6")]], ids=["ell<=5", "d^6"]
    )
    def test_carried_weights_equal_scanned(self, labels):
        # the builders carry their weights, summed off the factor table's
        # characters, instead of scanning; a fresh comodule on the same
        # coaction scans them
        singles = [build_V()] + [build_R(k) for k in range(-3, 4)] + [build_SymV(y) for y in range(7)]
        for X in singles + [X for l in labels for X in (build_delta(l), build_nabla(l))]:
            assert X._weights is not None
            assert X.weights == Comodule(X.coaction).weights

    def test_delta_satisfies_comodule_axioms(self):
        # independent of the oracle: coassociativity and counit, entrywise
        assert comodule_axiom_failures(build_delta(lam("d^5"))) == []

    def test_M_dimension(self):
        # each d letter contributes a two-dimensional factor
        for text, dim in (("d", 2), ("d^2", 4), ("d.Di.d", 4), ("D^3", 1)):
            assert build_M(lam(text)).dim == dim

    def test_dimensions_from_runs_match_builders(self):
        # the multisets suite reads dimensions off the factor words, unbuilt
        for l in enumerate_lambda(5):
            assert build_M(l).dim == factor_dim(monoid_factors(l)), str(l)
            assert build_nabla(l).dim == factor_dim(nabla_factors(l)), str(l)

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


class TestFactorWords:
    def test_dim_and_char_match_the_built_comodule(self):
        # every word of at most two factors from S^0..S^3, T^0..T^3 and
        # R^-2..R^2; the character is scanned afresh from the coaction
        factors = [("S", n) for n in range(4)] + [("T", n) for n in range(4)]
        factors += [("R", k) for k in range(-2, 3)]
        for word in [()] + [(f,) for f in factors] + list(product(factors, repeat=2)):
            X = factor_comodule(word)
            assert factor_dim(word) == X.dim, word
            assert factor_char(word) == weight_decomposition(Comodule(X.coaction)), word

    def test_factor_comodule_is_the_left_fold_of_the_built_factors(self):
        # merging the lines into their neighbours changes neither
        # coaction nor weights: every word of at most two factors from
        # S^0..S^3, T^0..T^3 and R^-2..R^2, and every word of three from
        # S^0..S^2, T^0..T^2 and R^-2..R^2, which puts lines and wide
        # factors in every order
        builders = {"S": build_SymV, "T": build_TV, "R": build_R}
        lines = [("R", k) for k in range(-2, 3)]
        small = [("S", n) for n in range(3)] + [("T", n) for n in range(3)] + lines
        factors = small + [("S", 3), ("T", 3)]
        built = {f: builders[f[0]](f[1]) for f in factors}
        words = [w for n in range(3) for w in product(factors, repeat=n)]
        for word in words + list(product(small, repeat=3)):
            X, plain = factor_comodule(word), left_fold([built[f] for f in word])
            assert X.coaction == plain.coaction, word
            assert X.weights == plain.weights, word

    def test_only_lines_make_a_line_part(self):
        # a line merges into a neighbour, so a part is 1-dim only when
        # every factor of the word is a line
        factors = [("S", n) for n in range(3)] + [("T", n) for n in range(3)]
        factors += [("R", k) for k in range(-2, 3)]
        for n in range(4):
            for word in product(factors, repeat=n):
                parts = ncgl2.standard._factor_parts(word)
                all_lines = all(factor_dim((f,)) == 1 for f in word)
                assert any(len(w) == 1 for w, _ in parts) == all_lines, word
                assert parts and (not all_lines or len(parts) == 1), word

    def test_M_is_the_tensor_power_of_V(self):
        # monoid_factors writes each d of a run as S^1 V, which has V's
        # coaction in V's basis order
        V = build_V()
        for l in enumerate_lambda(4):
            factors = []
            for kind, value in l.atoms():
                factors.extend([build_R(value)] if kind == "delta" else [V] * value)
            assert build_M(l).coaction == left_fold(factors).coaction, str(l)


def break_manin(monkeypatch):
    # left_dual(V) is a comodule, but its entries break all three Manin
    # relations: its "ac" and "ca" are the distinct normal words
    # -d Di b Di and -b Di d Di
    real = ncgl2.standard.build_V
    monkeypatch.setattr(ncgl2.standard, "build_V", lambda: left_dual(real()))


DEFECTS = {
    "S^-1-letter": lambda mp: mp.setitem(ncgl2.ncalg._ANTIPODE_INV_LETTER, "a", (1, ("a", "Di"))),
    "letter-coproduct": lambda mp: mp.setitem(
        ncgl2.ncalg._COPROD_LETTER, "b", {(("a",), ("b",)): 1, (("b",), ("c",)): 1}
    ),
    "counit": lambda mp: mp.setitem(ncgl2.ncalg._COUNIT_LETTER, "D", 2),
    "manin": break_manin,
}


class TestComoduleCertificate:
    @pytest.fixture(autouse=True)
    def fresh_certificate(self):
        comodule_certificate.cache_clear()
        yield
        comodule_certificate.cache_clear()

    def test_empty_on_the_algebra(self):
        assert comodule_certificate() == ()

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_injected_defect_is_caught(self, defect, monkeypatch, capsys):
        DEFECTS[defect](monkeypatch)
        assert comodule_certificate() != ()
        with pytest.raises(VerificationError, match="comodule certificate fails"):
            canonical_map(lam("d"))
        assert main(["nabla", "d"]) == 1
        assert "comodule certificate fails" in capsys.readouterr().err

    def test_manin_defect_keeps_v_a_comodule(self, monkeypatch):
        # the certificate's Manin part, not its comodule part, catches it
        break_manin(monkeypatch)
        assert comodule_axiom_failures(ncgl2.standard.build_V()) == []
        assert [f for f in comodule_certificate() if "Manin" not in f] == []

    @pytest.mark.parametrize("y", range(9))
    def test_symmetric_power_is_the_expansion_of_rho(self, y):
        # rho(x) = a # x + b # y and rho(y) = c # x + d # y, V's defining
        # matrix; a polynomial of degree y in O # k[x, y] is stored as
        # {power of y: coefficient in O}
        a, b, c, d = map(gen, "abcd")
        assert build_V().coaction == ((a, b), (c, d))
        rho = ({0: a, 1: b}, {0: c, 1: d})

        def times(p, q):
            out = {}
            for l1, e1 in p.items():
                for l2, e2 in q.items():
                    out[l1 + l2] = out.get(l1 + l2, NCElement({})) + e1 * e2
            return out

        S = build_SymV(y)
        for k in range(y + 1):
            power = {0: one()}
            for factor in (rho[0],) * (y - k) + (rho[1],) * k:
                power = times(power, factor)
            assert list(S.coaction[k]) == [power.get(l, NCElement({})) for l in range(y + 1)], k


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
        # nabla(Di.d) (+) R^-1 as the one factor of nabla(star_inv(d)):
        # its dual rows give a stand-in for Delta(d) of the form V (+) R,
        # and the top vector of V generates only V, so the stand-in is
        # not generated by its top weight line
        stand_in = direct_sum(build_nabla(lam("Di.d")), build_R(-1))
        part = (stand_in.weights, lambda k, l: stand_in.coaction[k][l])
        dual_word = nabla_factors(lam("d").star_inv())
        real = ncgl2.standard._factor_parts
        monkeypatch.setattr(
            ncgl2.standard, "_factor_parts", lambda word: [part] if word == dual_word else real(word)
        )
        with pytest.raises(VerificationError, match="not generated by its top weight line"):
            canonical_map(lam("d"))

    # Delta(d)'s top row is (d, -c) at the weights d and a; nabla(d)'s is
    # (c, d) at the weights a and d.  Each case edits one entry of one row.
    def _edit_delta_row(self, monkeypatch, column, edit):
        real = ncgl2.standard._dual

        def edited(part):
            weights, entry = real(part)
            return weights, lambda k, l: edit(entry(k, l)) if (k, l) == (0, column) else entry(k, l)

        monkeypatch.setattr(ncgl2.standard, "_dual", edited)

    def _edit_nabla_row(self, monkeypatch, column, edit):
        real = ncgl2.standard._factor_parts

        def edited(word):
            parts = real(word)
            if word != nabla_factors(lam("d")):
                return parts
            ((weights, entry),) = parts
            return [(weights, lambda k, l: edit(entry(k, l)) if (k, l) == (1, column) else entry(k, l))]

        monkeypatch.setattr(ncgl2.standard, "_factor_parts", edited)

    @pytest.mark.parametrize(
        "column,edit",
        [(1, lambda e: e + gen("d")), (1, lambda e: gen("d"))],
        ids=["entry-of-two-words", "word-in-two-entries"],
    )
    def test_delta_row_that_is_not_one_word_per_entry_raises(self, column, edit, monkeypatch):
        self._edit_delta_row(monkeypatch, column, edit)
        with pytest.raises(VerificationError, match="not generated by its top weight line"):
            canonical_map(lam("d"))

    @pytest.mark.parametrize(
        "column,edit",
        [(0, lambda e: e + gen("a")), (0, lambda e: gen("d")), (1, lambda e: e + e)],
        ids=["word-with-no-owner", "owner-of-another-weight", "top-entry-not-one"],
    )
    def test_nabla_row_outside_the_read_off_raises(self, column, edit, monkeypatch):
        self._edit_nabla_row(monkeypatch, column, edit)
        with pytest.raises(VerificationError, match="has dimension 0, expected 1"):
            canonical_map(lam("d"))

    def test_signed_words_read_off_as_their_coefficients(self, monkeypatch):
        # scaling Delta's entry -c by 2 halves the map's entry at it
        self._edit_delta_row(monkeypatch, 1, lambda e: e + e)
        assert canonical_map(lam("d")).matrix == ((0, Fraction(-1, 2)), (1, 0))

    def test_delta_row_that_is_not_one_word_per_entry_raises_through_hom_from_delta(
        self, monkeypatch, capsys
    ):
        # criterion 05 and `ncgl2 hom` name the label whose Delta fails
        self._edit_delta_row(monkeypatch, 1, lambda e: e + gen("d"))
        with pytest.raises(VerificationError, match=r"^Delta\(d\) is not generated by its top weight line"):
            hom_from_delta([lam("D"), lam("d")], [build_nabla(lam("d"))])
        assert main(["hom", "d", "d"]) == 1
        assert "Delta(d) is not generated by its top weight line" in capsys.readouterr().err

    def test_canonical_map_solves_one_unknown_and_no_equation(self, monkeypatch):
        # nabla's weight-wt(lam) space is one line, and every word of its
        # top row is owned at its weight: the read-off's one solve is empty
        real, calls = ncgl2.linalg.nullspace_sparse, []

        def counted(equations, nvars):
            calls.append((len(equations), nvars))
            return real(equations, nvars)

        monkeypatch.setattr(ncgl2.linalg, "nullspace_sparse", counted)
        for l in [*enumerate_lambda(6), lam("d^7"), lam("d^12")]:
            calls.clear()
            canonical_map(l)
            assert calls == [(0, 1)], str(l)

    @pytest.mark.parametrize(
        "labels",
        [enumerate_lambda(6), [lam("d^7")], [lam("d^8")]],
        ids=["ell<=6", "d^7", "d^8"],
    )
    def test_streamed_route_matches_materialized_delta(self, labels, monkeypatch):
        def no_intertwiner_check(f):
            raise AssertionError("canonical_map ran is_intertwiner")

        for l in labels:
            expected = canonical_map_materialized(l)
            with monkeypatch.context() as patch:
                patch.setattr(ComoduleMap, "is_intertwiner", no_intertwiner_check)
                f = canonical_map(l)
            assert f.matrix == expected.matrix, str(l)
            assert f.source.weights == expected.source.weights, str(l)

    def test_source_coaction_is_built_on_first_read(self):
        l = lam("d^2.Di.d")
        f = canonical_map(l)
        delta = build_delta(l)
        assert (f.source.dim, f.source.weights) == (delta.dim, delta.weights)
        assert f.rank() == image(f)[0].dim == classify(l).dim
        assert callable(f.source._coaction)
        assert f.source.coaction == delta.coaction
        assert f.source.coaction is f.source.coaction
        assert not callable(f.source._coaction)

    def test_d10_completes_without_building_delta(self):
        l = lam("d^10")
        f = canonical_map(l)
        assert callable(f.source._coaction)
        assert (f.source.dim, f.target.dim) == (1024, 11)
        assert f.rank() == classify(l).dim == 11
        assert callable(f.source._coaction)

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


# sha256 of the lines " ".join(str(x) for x in row) of canonical_map(d^k).matrix,
# computed with the earlier route, which built all of nabla(lam) and
# dualized every factor of nabla(star_inv(lam)) whole (commit 9de9f08)
MATRIX_DIGESTS = {
    9: "c5c4d46a4fb78a00383c4c5520b2ba23cb55de29d51011df7c09da18dfea1202",
    10: "067412b4db204973744485c6d48dbf44b9379747d6b5dbe792b96011fd999e6c",
    11: "a71c7f023fe685e2800a6a4230bd2b000dacb4c3d52e25e961f79b5f7d361f60",
    12: "1d04035aff455a9ee4e100f2651afa29cb92df5b62c02de3fb8f6b9650e45950",
}


def product_basis(parts) -> tuple[list, tuple, list]:
    """Digits, weights and strides of the basis of a product of parts.

    The digits are those of tensor's flattening, the first part most
    significant, and the weight of a basis vector is the sum of its picks'
    weights.  The stride of a part is the product of the later part sizes,
    and each index is the sum of its digits times the strides.
    """
    sizes = [len(weights) for weights, _ in parts]
    digits = list(product(*map(range, sizes)))
    weights = tuple(
        Weight(sum(w.i for w in picks), sum(w.j for w in picks))
        for picks in product(*(part_weights for part_weights, _ in parts))
    )
    strides = [prod(sizes[t + 1 :]) for t in range(len(sizes))]
    assert [sum(i * s for i, s in zip(d, strides)) for d in digits] == list(range(len(digits)))
    return digits, weights, strides


class TestStreamedRows:
    """canonical_map reads two coaction rows off the factor entries."""

    @pytest.mark.parametrize(
        "kind,ns", [("S", range(7)), ("T", range(5)), ("R", range(-3, 4))]
    )
    def test_entry_functions_reproduce_the_built_factors(self, kind, ns):
        table = ncgl2.standard._FACTORS[kind]
        build = {"S": build_SymV, "T": build_TV, "R": build_R}[kind]
        for n in ns:
            X = build(n)
            # the weights are scanned afresh from the built coaction
            assert tuple(table.char(n)) == Comodule(X.coaction).weights, n
            entries = [[table.entry(n, k, l) for l in range(X.dim)] for k in range(X.dim)]
            assert entries == [list(row) for row in X.coaction], n

    def test_streamed_nabla_rows_match_build_nabla(self):
        for l in enumerate_lambda(6):
            parts = ncgl2.standard._factor_parts(nabla_factors(l))
            digits, weights, strides = product_basis(parts)
            N = build_nabla(l)
            assert weights == N.weights, str(l)
            w_plus = N.weights.index(l.wt())
            rows = [ncgl2.standard._factor_row(p, i) for p, i in zip(parts, digits[w_plus])]
            products = ncgl2.standard._row_product(list(zip(strides, rows)))
            row = [products.get(j, NCElement({})) for j in range(N.dim)]
            assert row == list(N.coaction[w_plus]), str(l)

    def test_streamed_dual_rows_match_left_dual(self):
        for l in enumerate_lambda(6):
            for part in ncgl2.standard._factor_parts(nabla_factors(l.star_inv())):
                rows = [ncgl2.standard._factor_row(part, k) for k in range(len(part[0]))]
                L = left_dual(Comodule(rows, part[0]))
                dual = ncgl2.standard._dual(part)
                assert dual[0] == L.weights, str(l)
                for i in range(L.dim):
                    assert ncgl2.standard._factor_row(dual, i) == list(L.coaction[i]), str(l)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_dual_parts_of_d_powers_are_signed_words(self, k):
        # each R^-1 of nabla(star_inv(d^k)) merges into the V after it,
        # and S^-1(Di * x) = S^-1(x) * D cancels down to one signed word
        # in a, b, c and d; merging it into the V before it would leave
        # the letters D and Di in the dual entries
        for part in ncgl2.standard._factor_parts(nabla_factors(lam(f"d^{k}").star_inv())):
            weights, entry = ncgl2.standard._dual(part)
            for i, j in product(range(len(weights)), repeat=2):
                ((word, c),) = entry(i, j).items()
                assert c in (1, -1) and set(word) <= set("abcd"), (k, i, j)

    def test_delta_top_row_is_the_reversed_product_of_dual_rows(self):
        for l in enumerate_lambda(5):
            parts = [
                ncgl2.standard._dual(part)
                for part in ncgl2.standard._factor_parts(nabla_factors(l.star_inv()))
            ]
            digits, weights, strides = product_basis(parts)
            delta = build_delta(l)
            assert weights == delta.weights, str(l)
            v_plus = weights.index(l.wt())
            rows = [ncgl2.standard._factor_row(p, i) for p, i in zip(parts, digits[v_plus])]
            products = ncgl2.standard._row_product(list(zip(strides, rows))[::-1])
            row = [products.get(j, NCElement({})) for j in range(delta.dim)]
            assert row == list(delta.coaction[v_plus]), str(l)

    def test_target_is_nabla_with_its_coaction_built_on_read(self):
        for l in enumerate_lambda(5):
            f = canonical_map(l)
            N = build_nabla(l)
            assert callable(f.target._coaction), str(l)
            assert f.target.weights == N.weights, str(l)
            assert f.target.coaction == N.coaction, str(l)

    @pytest.mark.parametrize("k", sorted(MATRIX_DIGESTS))
    def test_matrix_digests_equal_the_earlier_route(self, k):
        f = canonical_map(lam(f"d^{k}"))
        text = "\n".join(" ".join(str(x) for x in row) for row in f.matrix)
        assert hashlib.sha256(text.encode()).hexdigest() == MATRIX_DIGESTS[k]
        assert all(type(x) is Fraction for row in f.matrix for x in row)

    @pytest.mark.slow
    def test_d16_map_stays_within_its_memory_bound(self):
        # the 65,536 columns of the d^16 map hold one sparse entry each, and
        # no basis vector keeps a digit tuple: the bound lies between the
        # peak RSS of a dense matrix over a digit-tuple basis (151 MB) and
        # that of the sparse columns (119-123 MB)
        rank, peak_kb = map(int, run_child("f = canonical_map(parse_lambda('d^16'))\nprint(f.rank())"))
        assert rank == 17
        assert peak_kb < 140 * 1024

    @pytest.mark.slow
    def test_d18_map_stays_within_its_memory_bound(self):
        # Delta's top row is concatenated from signed words (_seam_row), so
        # the 262,144 products fill no normal-form cache: 235-247 MB, where
        # the fold of NCElement products peaked at 300 MB
        rank, peak_kb = map(int, run_child("f = canonical_map(parse_lambda('d^18'))\nprint(f.rank())"))
        assert rank == 19
        assert peak_kb < 280 * 1024

    @pytest.mark.slow
    def test_d10_certificate_checks_delta_row_by_row_in_bounded_memory(self):
        # is_intertwiner reads the 1,024 rows of Delta(d^10) one at a time
        # and never builds its coaction
        verdict, lazy, peak_kb = run_child(
            "f = canonical_map(parse_lambda('d^10'))\n"
            "print(f.is_intertwiner(), callable(f.source._coaction))"
        )
        assert (verdict, lazy) == ("True", "True")
        assert int(peak_kb) < 250 * 1024


def run_child(code: str) -> list[str]:
    """The words that a fresh interpreter prints running code, then its peak RSS.

    code may use canonical_map and parse_lambda.  The child prints its own
    peak RSS last, in kB on Linux.
    """
    code = (
        "import resource\n"
        "from ncgl2.standard import canonical_map\n"
        "from ncgl2.weights import parse_lambda\n"
        f"{code}\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = str(Path(ncgl2.standard.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def plain_fold(pairs) -> dict:
    """The nonzero products rows[0][j_1] * ... * rows[-1][j_n], one NCElement product each."""
    row = {0: one()}
    for stride, factor_row in pairs:
        row = {key + j * stride: x * e for key, x in row.items() for j, e in enumerate(factor_row)}
    return {key: e for key, e in row.items() if not e.is_zero()}


class TestSeamRows:
    """_row_product concatenates the rows that _seam_row certifies and folds the rest."""

    def test_every_row_through_ell_5_equals_the_plain_fold(self, monkeypatch):
        # a route is True when _seam_row concatenated the row, False when
        # it fell back to the fold, None for a row of one factor
        real_row_product, real_seam_row = ncgl2.standard._row_product, ncgl2.standard._seam_row
        routes = []

        def seam_row(pairs):
            row = real_seam_row(pairs)
            routes[-1] = row is not None
            return row

        def checked(pairs):
            routes.append(None)
            row = real_row_product(pairs)
            assert {key: e for key, e in row.items() if not e.is_zero()} == plain_fold(pairs)
            return row

        monkeypatch.setattr(ncgl2.standard, "_seam_row", seam_row)
        monkeypatch.setattr(ncgl2.standard, "_row_product", checked)
        top_routes, other_routes = [], []
        for l in enumerate_lambda(5):
            delta = build_delta(l)
            top = delta.weights.index(l.wt())
            for X in (delta, build_nabla(l), build_M(l)):
                for k in range(X.dim):
                    X.row(k)
                    (route,) = routes
                    (top_routes if X is delta and k == top else other_routes).append(route)
                    routes.clear()
        assert len(top_routes) == len(enumerate_lambda(5))
        assert False not in top_routes and True in top_routes
        assert True in other_routes and False in other_routes

    def test_rewriting_seams_of_v_tensor_v_fall_back(self):
        # row (1, 0) of V # V multiplies (c, d) by (a, b): c.a, c.b, d.a
        # and d.b all rewrite
        c, d, a, b = map(gen, "cdab")
        pairs = [(2, [c, d]), (1, [a, b])]
        assert ncgl2.standard._seam_row(pairs) is None
        expected = {0: c * a, 1: c * b, 2: d * a, 3: d * b}
        assert ncgl2.standard._row_product(pairs) == expected
        assert factor_comodule((("S", 1), ("S", 1))).row(2) == [c * a, c * b, d * a, d * b]
        assert expected[0] != NCElement._raw({("c", "a"): 1})

    @pytest.mark.parametrize(
        "words",
        [[("b",), ("Di",), ("a",)], [("b",), (), ("Di", "a")]],
        ids=["one-letter-middle", "empty-middle"],
    )
    def test_a_window_across_three_factors_falls_back(self, words):
        # b.Di.a is a left side, though each seam alone joins normal words
        rows = [[NCElement._raw({w: 1})] for w in words]
        for t in range(len(rows) - 1):
            assert ncgl2.standard._seam_row([(1, rows[t]), (1, rows[t + 1])]) is not None
        pairs = [(1, row) for row in rows]
        assert ncgl2.standard._seam_row(pairs) is None
        assert ncgl2.standard._row_product(pairs) == {0: gen("a") * gen("Di") * gen("b")}

    @pytest.mark.parametrize("k", [8, 12])
    def test_canonical_map_of_d_power_makes_at_most_2k_rewrites(self, k, monkeypatch):
        # the 2^k products of Delta's top row are concatenations; the 2k
        # left are the merged R^-1 # V entries of the dual parts
        comodule_certificate()
        real, calls = ncgl2.ncalg._product, []

        def counted(left, right):
            calls.append(left + right)
            return real(left, right)

        monkeypatch.setattr(ncgl2.ncalg, "_product", counted)
        before = len(ncgl2.ncalg._NF_CACHE)
        assert canonical_map(lam(f"d^{k}")).rank() == k + 1
        assert len(calls) <= 2 * k
        assert len(ncgl2.ncalg._NF_CACHE) - before <= 4


def test_canonical_map_builds_only_inside_its_lazy_coactions():
    # the builders are the one home of the bases, the strides and Delta's
    # reversed multiplication order; canonical_map takes the lazy nabla and
    # reads its map through hom_from_delta, which reads one row of each
    # side, so it reads no coaction and runs no echelon
    # (tests/test_one_home.py keeps the parts, the row products and the
    # solvers out of it); a basis index is never spelt as a tuple of digits
    tree = ast.parse(Path(ncgl2.standard.__file__).read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}

    def names(node):
        found = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        return found | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}

    function = functions["canonical_map"]
    assert names(function).isdisjoint({"coaction", "Echelon"})
    calls = [n.func for n in ast.walk(function) if isinstance(n, ast.Call)]
    assert sorted(
        f.id for f in calls if isinstance(f, ast.Name) and f.id.startswith(("build_", "hom_"))
    ) == ["build_nabla", "hom_from_delta"]
    assert "_built" not in functions and "reduce" not in names(tree)
    assert "_factor_basis" not in functions and "product" not in names(tree)
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert ("itertools", "product") not in {(n.module, a.name) for n in imports for a in n.names}


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

    @pytest.mark.parametrize("n", range(7))
    def test_layer_words_are_the_normal_words_without_a_and_b(self, n):
        expected = sorted(
            w for w in enumerate_basis(n) if len(w) == n and not {"a", "b"} & set(w)
        )
        assert [word for word, _ in decompose_layer(n)] == expected

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
