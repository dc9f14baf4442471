"""Named comodules: standards, costandards, simples, multisets, layers."""

import ast
import hashlib
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

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
    layer_dimension,
    monoid_factors,
    nabla_factors,
    nabla_multiset,
)
from ncgl2.weights import LambdaWord, Weight, enumerate_lambda, parse_lambda
from test_comodules import direct_sum, left_fold


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
    (sol,) = nullspace_sparse(equations, s + 1)
    matrix = [[Fraction(0)] * delta.dim for _ in range(nabla.dim)]
    for (m, j), n in var_index.items():
        matrix[m][j] = sol[n] / sol[s]
    f = ComoduleMap(delta, nabla, matrix)
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
                assert X.weights == Comodule(X.coaction).weights, str(l)

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

    def test_only_the_factor_table_names_the_factor_builders(self):
        # each factor kind's character and entries are read from
        # standard._FACTORS alone, and factor_comodule builds the parts
        # from those entries; of the builders, only build_TV builds on
        # build_SymV, and the tests use them as oracles for the table
        names = {"build_SymV", "build_TV", "char_S", "char_T", "char_R"}
        allowed = {("standard.py", "_FACTORS"), ("standard.py", "build_TV")}
        package = Path(ncgl2.standard.__file__).parent
        hits = []
        for path in sorted(package.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                owner = getattr(top, "name", None)
                if isinstance(top, ast.Assign):
                    owner = getattr(top.targets[0], "id", None)
                if (path.name, owner) in allowed:
                    continue
                hits.extend(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(top)
                    if isinstance(node, ast.Name) and node.id in names
                    or isinstance(node, ast.Attribute) and node.attr in names
                )
        assert hits == []


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
        # rho(x) = a # x + b # y and rho(y) = c # x + d # y, with V's
        # entries; a polynomial of degree y in O # k[x, y] is stored as
        # {power of y: coefficient in O}
        (a, b), (c, d) = build_V().coaction
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

        def edited(part, memo):
            weights, entry = real(part, memo)
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

    def test_canonical_map_runs_no_linear_solve(self):
        # the map is read off Delta's top row by word lookups: no echelon,
        # no intertwining system
        tree = ast.parse(Path(ncgl2.standard.__file__).read_text())
        (function,) = [n for n in tree.body if getattr(n, "name", None) == "canonical_map"]
        names = {n.id for n in ast.walk(function) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(function) if isinstance(n, ast.Attribute)}
        assert names.isdisjoint({"Echelon", "_intertwiners", "nullspace_sparse"})

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
            digits, weights = ncgl2.standard._factor_basis(parts)
            N = build_nabla(l)
            assert digits == tuple(product(*(range(len(w)) for w, _ in parts))), str(l)
            assert weights == N.weights, str(l)
            w_plus = N.weights.index(l.wt())
            rows = [ncgl2.standard._factor_row(p, i) for p, i in zip(parts, digits[w_plus])]
            products = ncgl2.standard._row_product(rows)
            row = [products.get(key, NCElement({})) for key in digits]
            assert row == list(N.coaction[w_plus]), str(l)

    def test_streamed_dual_rows_match_left_dual(self):
        for l in enumerate_lambda(6):
            memo = {}
            for part in ncgl2.standard._factor_parts(nabla_factors(l.star_inv())):
                rows = [ncgl2.standard._factor_row(part, k) for k in range(len(part[0]))]
                L = left_dual(Comodule(rows, part[0]))
                dual = ncgl2.standard._dual(part, memo)
                assert dual[0] == L.weights, str(l)
                for i in range(L.dim):
                    assert ncgl2.standard._factor_row(dual, i) == list(L.coaction[i]), str(l)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_dual_parts_of_d_powers_are_signed_words(self, k):
        # each R^-1 of nabla(star_inv(d^k)) merges into the V after it,
        # and S^-1(Di * x) = S^-1(x) * D cancels down to one signed word
        # in a, b, c and d; merging it into the V before it would leave
        # the letters D and Di in the dual entries
        memo = {}
        for part in ncgl2.standard._factor_parts(nabla_factors(lam(f"d^{k}").star_inv())):
            weights, entry = ncgl2.standard._dual(part, memo)
            for i, j in product(range(len(weights)), repeat=2):
                ((word, c),) = entry(i, j).items()
                assert c in (1, -1) and set(word) <= set("abcd"), (k, i, j)

    def test_delta_top_row_is_the_reversed_product_of_dual_rows(self):
        for l in enumerate_lambda(5):
            memo = {}
            parts = [
                ncgl2.standard._dual(part, memo)
                for part in ncgl2.standard._factor_parts(nabla_factors(l.star_inv()))
            ]
            digits, weights = ncgl2.standard._factor_basis(parts)
            delta = build_delta(l)
            assert digits == tuple(product(*(range(len(w)) for w, _ in parts))), str(l)
            assert weights == delta.weights, str(l)
            v_plus = weights.index(l.wt())
            rows = [ncgl2.standard._factor_row(p, i) for p, i in zip(parts, digits[v_plus])]
            products = ncgl2.standard._row_product(rows[::-1])
            row = [products.get(key[::-1], NCElement({})) for key in digits]
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
    def test_d10_certificate_checks_delta_row_by_row_in_bounded_memory(self):
        # is_intertwiner reads the 1,024 rows of Delta(d^10) one at a time
        # and never builds its coaction; the child reports its own peak
        # RSS, in kB on Linux
        code = (
            "import resource\n"
            "from ncgl2.standard import canonical_map\n"
            "from ncgl2.weights import parse_lambda\n"
            "f = canonical_map(parse_lambda('d^10'))\n"
            "print(f.is_intertwiner(), callable(f.source._coaction),"
            " resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
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
        verdict, lazy, peak_kb = done.stdout.split()
        assert (verdict, lazy) == ("True", "True")
        assert int(peak_kb) < 250 * 1024


def test_canonical_map_builds_only_inside_its_lazy_coactions():
    # the builders are the one home of the bases, the digits and Delta's
    # reversed dual fold; canonical_map reads two rows of their lazy
    # comodules, and no whole product is tensored outside build_TV
    tree = ast.parse(Path(ncgl2.standard.__file__).read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}

    def names(node):
        found = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        return found | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}

    function = functions["canonical_map"]
    forbidden = {"_factor_parts", "_factor_basis", "_factor_row", "_row_product", "_dual", "tensor"}
    assert names(function).isdisjoint(forbidden | {"coaction"})
    calls = [n.func for n in ast.walk(function) if isinstance(n, ast.Call)]
    assert sorted(f.id for f in calls if isinstance(f, ast.Name) and f.id.startswith("build_")) == [
        "build_delta",
        "build_nabla",
    ]
    assert [f.value.id for f in calls if isinstance(f, ast.Attribute) and f.attr == "row"] == [
        "Delta",
        "Nabla",
    ]
    tensor_callers = [
        name
        for name, node in functions.items()
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "tensor"
    ]
    assert tensor_callers == ["build_TV"]
    assert "_built" not in functions and "reduce" not in names(tree)
    assert names(functions["build_delta"]).isdisjoint({"_factor_basis", "product", "tensor"})


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
