"""Comodule linear algebra: maps, duals, sub/quotient objects, characters."""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from ncgl2.comodules import (
    Comodule,
    ComoduleMap,
    VerificationError,
    are_isomorphic,
    char_mul,
    comodule_axiom_failures,
    comodule_from_regular,
    generated_subcomodule,
    highest_weight,
    hom_from_generators,
    hom_space,
    image,
    kernel,
    left_dual,
    quotient,
    subspace_comodule,
    tensor,
    torus_project,
    trivial,
    weight_decomposition,
)
import ncgl2
from ncgl2 import ncalg
from ncgl2.linalg import Echelon, accumulate, nullspace_sparse, rref
from ncgl2.ncalg import NCElement, gen, one, parse_expression, render_element
from ncgl2.standard import (
    build_R,
    build_SymV,
    build_TV,
    build_V,
    build_M,
    build_delta,
    build_nabla,
    canonical_map,
    factor_comodule,
    hom_from_delta,
)
from ncgl2.weights import Weight, enumerate_lambda, parse_lambda
from test_linalg import dense_nullspace, dense_rows, mat_vec
from test_ncalg import ANTIPODE_INV_IMAGES, letter_by_letter


V = build_V()
W = tensor(V, V)


def direct_sum(*parts: Comodule) -> Comodule:
    """The block-diagonal comodule of the parts."""
    offsets = [0]
    for part in parts:
        offsets.append(offsets[-1] + part.dim)
    coaction = [[NCElement({}) for _ in range(offsets[-1])] for _ in range(offsets[-1])]
    for part, start in zip(parts, offsets):
        for i in range(part.dim):
            for j in range(part.dim):
                coaction[start + i][start + j] = part.coaction[i][j]
    return Comodule(coaction)


def dense_is_intertwiner(f: ComoduleMap) -> bool:
    """The intertwining condition checked at every (i, m) and every k, j."""
    X, Y = f.source, f.target
    for i in range(X.dim):
        for m in range(Y.dim):
            lhs = NCElement({})
            for k in range(Y.dim):
                lhs = lhs + Y.coaction[k][m] * f.matrix[k][i]
            rhs = NCElement({})
            for j in range(X.dim):
                rhs = rhs + X.coaction[i][j] * f.matrix[m][j]
            if lhs != rhs:
                return False
    return True


def columns_of(matrix) -> list[dict[int, Fraction]]:
    """The sparse columns {k: F[k][i]} of a dense map matrix F, as Fractions."""
    return [{k: Fraction(x) for k, x in enumerate(column) if x} for column in zip(*matrix)]


def rendered(rows) -> list[list[str]]:
    """A coaction or map matrix as text, entry by entry."""
    return [[str(x) for x in row] for row in rows]


def sym_power_via_quotient(y: int):
    """S^y V as V^{(x) y} modulo adjacent transposition differences.

    Returns (quotient, projection from V^{(x) y}); an oracle for the
    direct construction in build_SymV, for y >= 2.
    """
    index = {bits: k for k, bits in enumerate(product((0, 1), repeat=y))}
    relations = [
        {index[bits]: 1, index[bits[:pos] + (1, 0) + bits[pos + 2:]]: -1}
        for bits in index
        for pos in range(y - 1)
        if bits[pos:pos + 2] == (0, 1)
    ]
    return quotient(left_fold([V] * y), relations)


def left_fold(factors) -> Comodule:
    """The plain left fold of tensor; trivial() if there are no factors."""
    if not factors:
        return trivial()
    result = factors[0]
    for factor in factors[1:]:
        result = tensor(result, factor)
    return result


DET_LINE = [[Fraction(0), Fraction(1), Fraction(-1), Fraction(0)]]
V1, S2, T1, R, RI = ("S", 1), ("S", 2), ("T", 1), ("R", 1), ("R", -1)
FACTOR_BUILDERS = {"S": build_SymV, "T": build_TV, "R": build_R}


class TestBasics:
    def test_standard_comodule(self):
        assert V.dim == 2
        assert comodule_axiom_failures(V) == []
        assert weight_decomposition(V) == {Weight(1, 0): 1, Weight(0, 1): 1}

    def test_trivial(self):
        T = trivial()
        assert T.dim == 1
        assert weight_decomposition(T) == {Weight(0, 0): 1}

    def test_determinant_lines(self):
        for k in (-2, -1, 1, 3):
            R = build_R(k)
            assert R.dim == 1
            assert weight_decomposition(R) == {Weight(k, k): 1}
            assert comodule_axiom_failures(R) == []

    def test_tensor_weights(self):
        assert weight_decomposition(W) == {
            Weight(2, 0): 1,
            Weight(1, 1): 2,
            Weight(0, 2): 1,
        }
        assert highest_weight(W) == (Weight(0, 2), 1)

    def test_tensor_many_matches_iterated(self):
        # factor_comodule is the lines-first tensor fold of a factor word
        left = factor_comodule([V1, V1, V1])
        right = tensor(tensor(V, V), V)
        assert are_isomorphic(left, right)

    @pytest.mark.parametrize(
        "word",
        [
            [],
            [V1],
            [R],
            [R, V1, S2],
            [V1, RI, S2],
            [V1, S2, R],
            [R, RI, V1, R, R, S2, RI, RI],
            [R, RI, R],
            [T1, R, T1, R, T1, R],
        ],
        ids=["none", "one", "one-line", "line-first", "line-middle", "line-last",
             "consecutive-lines", "only-lines", "dual-lines"],
    )
    def test_tensor_many_equals_left_fold(self, word):
        # merging the lines into their neighbours first changes neither
        # coaction nor weights
        folded = factor_comodule(word)
        plain = left_fold([FACTOR_BUILDERS[kind](n) for kind, n in word])
        assert folded.coaction == plain.coaction
        assert folded.weights == plain.weights

    def test_char_mul(self):
        cV = weight_decomposition(V)
        assert char_mul(cV, cV) == weight_decomposition(W)

    def test_non_diagonal_basis_raises(self):
        # V in the basis u1 = e1 + e2, u2 = e2 is a comodule, but its
        # coaction is not diagonal in the torus quotient, so it has no
        # basis weights and the weight-blocked hom solver rejects it
        a, b, c, d = (gen(x) for x in "abcd")
        X = Comodule(((a + c, b + d - a - c), (c, d - c)))
        assert comodule_axiom_failures(X) == []
        with pytest.raises(ValueError, match="torus-diagonal"):
            X.weights
        with pytest.raises(ValueError, match="torus-diagonal"):
            weight_decomposition(X)
        with pytest.raises(ValueError, match="torus-diagonal"):
            hom_space(X, build_V())

    def test_torus_project(self):
        # the torus image keeps only words in a, d, and the determinants
        assert torus_project(gen("b")) == {}
        assert torus_project(gen("a")) == {Weight(1, 0): Fraction(1)}
        assert torus_project(parse_expression("D^2")) == {Weight(2, 2): Fraction(1)}


class TestSubQuotient:
    def test_determinant_line_is_a_subcomodule(self):
        sub, incl = subspace_comodule(W, DET_LINE)
        assert sub.dim == 1
        assert incl.is_intertwiner()
        # the alternating line carries the determinant character
        assert are_isomorphic(sub, build_R(1))
        # a sparse dict spanning the same line gives the same result
        sparse_sub, sparse_incl = subspace_comodule(W, [{1: 2, 2: -2}])
        assert sparse_sub.coaction == sub.coaction
        assert sparse_incl.matrix == incl.matrix

    def test_non_subspace_rejected(self):
        with pytest.raises(ValueError):
            subspace_comodule(W, [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]])
        with pytest.raises(ValueError):
            subspace_comodule(W, [{0: 1}, {1: 1, 2: 1}])

    def test_quotient_is_symmetric_square(self):
        quo, proj = quotient(W, DET_LINE)
        assert quo.dim == 3
        assert proj.is_intertwiner()
        assert are_isomorphic(quo, build_SymV(2))
        assert rendered(quo.coaction) == [
            ["a^2", "b*a + a*b", "b^2"],
            ["a*c", "b*c + a*d", "b*d"],
            ["c^2", "d*c + c*d", "d^2"],
        ]
        assert rendered(proj.matrix) == [
            ["1", "0", "0", "0"],
            ["0", "1", "1", "0"],
            ["0", "0", "0", "1"],
        ]

    def test_sym_power_via_quotient(self):
        # the explicit symmetric power agrees with the quotient
        for y in (2, 3):
            S, proj = sym_power_via_quotient(y)
            assert proj.is_intertwiner()
            assert are_isomorphic(S, build_SymV(y))

    def test_kernel_image_of_projection(self):
        quo, proj = quotient(W, DET_LINE)
        ker, _ = kernel(proj)
        img, _ = image(proj)
        assert are_isomorphic(ker, build_R(1))
        assert img.dim == quo.dim

    def test_kernel_is_the_nullspace_of_the_map(self):
        # a projection, hom-space maps and canonical maps: the kernel has
        # dimension dim X - rank f, its inclusion is a comodule map that f
        # kills, and its span is the dense oracle's nullspace of F
        labels = list(enumerate_lambda(2))
        maps = [quotient(W, DET_LINE)[1], *hom_space(W, W)]
        maps += [f for l, m in product(labels, labels) for f in hom_space(build_delta(l), build_nabla(m))]
        maps += [canonical_map(lam) for lam in enumerate_lambda(3)]
        for f in maps:
            n = f.source.dim
            ker, incl = kernel(f)
            assert ker.dim == n - f.rank()
            assert incl.is_intertwiner()
            inclusion = dense_rows(incl.columns, n)
            assert all(not any(mat_vec(f.matrix, v)) for v in inclusion)
            assert rref(inclusion)[0] == rref(dense_nullspace(f.matrix, n))[0]
        assert sorted({kernel(f)[0].dim for f in maps}) == [0, 1, 4]

    def test_generated_subcomodule(self):
        g, incl = generated_subcomodule(W, [0, 0, 0, 1])
        # the top vector of V x V generates everything
        assert g.dim == 4
        line, _ = generated_subcomodule(W, DET_LINE[0])
        assert line.dim == 1
        # the top line of nabla(d.Di.d), at basis vector 3, generates L(d.Di.d)
        nabla = build_nabla(parse_lambda("d.Di.d"))
        L, incl = generated_subcomodule(nabla, [0, 0, 0, 1])
        assert rendered(L.coaction) == [
            ["a*Di*a", "a*Di*b", "b*Di*b"],
            ["c*Di*a + a*Di*c", "c*Di*b + a*Di*d", "d*Di*b + b*Di*d"],
            ["c*Di*c", "c*Di*d", "d*Di*d"],
        ]
        assert rendered(incl.matrix) == [
            ["1", "0", "0"], ["0", "1", "0"], ["0", "1", "0"], ["0", "0", "1"],
        ]

    def test_comodule_from_regular(self):
        # one matrix column of coefficients spans a copy of V
        C, basis = comodule_from_regular([gen("a"), gen("c")])
        assert C.dim == 2
        assert are_isomorphic(C, V)
        D_line, _ = comodule_from_regular([gen("D")])
        assert are_isomorphic(D_line, build_R(1))

    def test_comodule_from_regular_exact_basis_and_coaction(self):
        # the span is row reduced on the normal words in decreasing deglex
        # order: each basis element has coefficient 1 at its largest word,
        # which no other basis element contains
        X, basis = comodule_from_regular([gen("a"), gen("c"), gen("D")])
        assert [render_element(f) for f in basis] == ["D", "a", "c"]
        assert rendered(X.coaction) == [
            ["D", "0", "0"],
            ["0", "a", "b"],
            ["0", "c", "d"],
        ]
        X, basis = comodule_from_regular(
            [parse_expression("3/2*a*d - 2*b*c + 1/3*D"), parse_expression("c*Di - a")]
        )
        assert [render_element(f) for f in basis] == [
            "D", "a", "c", "a*Di", "b*a - 3/4*a*b", "b*c - 3/4*a*d", "c*Di", "d*c - 3/4*c*d",
        ]
        assert rendered(X.coaction) == [
            ["D", "0", "0", "0", "0", "0", "0", "0"],
            ["0", "a", "b", "0", "0", "0", "0", "0"],
            ["0", "c", "d", "0", "0", "0", "0", "0"],
            ["0", "0", "0", "a*Di", "0", "0", "b*Di", "0"],
            ["7/4*b*a", "0", "0", "0", "a^2", "b*a + a*b", "0", "b^2"],
            ["7/4*b*c", "0", "0", "0", "a*c", "b*c + a*d", "0", "b*d"],
            ["0", "0", "0", "c*Di", "0", "0", "d*Di", "0"],
            ["7/4*d*c", "0", "0", "0", "c^2", "d*c + c*d", "0", "d^2"],
        ]
        assert comodule_axiom_failures(X) == []


def hom_space_blocked_oracle(X: Comodule, Y: Comodule) -> list[list[list[Fraction]]]:
    """The matrices of the reduced basis of Hom(X, Y), an oracle for hom_space.

    The hand-written weight-blocked system: for every row i of X and
    target m, the equations in the entries of equal weight, grouped by
    word, with repeated equations dropped and the unknowns (k, i) in
    k-major order.
    """
    wx, wy = X.weights, Y.weights
    allowed = [(k, i) for k in range(Y.dim) for i in range(X.dim) if wy[k] == wx[i]]
    var_index = {pair: n for n, pair in enumerate(allowed)}
    equations, seen = [], set()
    cx, cy = X.coaction, Y.coaction
    for i in range(X.dim):
        for m in range(Y.dim):
            per_word = {}
            for k in range(Y.dim):
                if (k, i) in var_index:
                    for w, c in cy[k][m].items():
                        per_word.setdefault(w, {})[var_index[k, i]] = c
            for j in range(X.dim):
                if (m, j) in var_index:
                    for w, c in cx[i][j].items():
                        accumulate(per_word.setdefault(w, {}), ((var_index[m, j], -c),))
            for equation in per_word.values():
                key = frozenset(equation.items())
                if key and key not in seen:
                    seen.add(key)
                    equations.append(equation)
    matrices = []
    for sol in dense_rows(nullspace_sparse(equations, len(allowed)), len(allowed)):
        matrix = [[Fraction(0)] * X.dim for _ in range(Y.dim)]
        for (k, i), n in var_index.items():
            matrix[k][i] = sol[n]
        matrices.append(matrix)
    return matrices


class TestHom:
    def test_endomorphisms_of_standard(self):
        maps = hom_space(V, V)
        assert len(maps) == 1
        assert maps[0].rank() == 2

    def test_no_maps_between_different_characters(self):
        assert hom_space(build_R(1), build_R(2)) == []
        assert hom_space(V, build_R(1)) == []

    def test_weight_disjoint_pair_builds_no_system(self, monkeypatch):
        # Delta(d) has weights (0,1), (1,0) and nabla(d^2) has (2,0), (1,1),
        # (0,2): no unknown exists, so no system reaches the solver
        def no_system(equations, nvars):
            raise AssertionError("a weight-disjoint pair has no unknowns")

        X, Y = build_delta(parse_lambda("d")), build_nabla(parse_lambda("d^2"))
        assert set(X.weights).isdisjoint(Y.weights)
        monkeypatch.setattr(ncgl2.linalg, "nullspace_sparse", no_system)
        assert hom_space(X, Y) == []
        assert hom_space(Y, X) == []

    def test_weight_disjoint_pair_still_needs_a_torus_diagonal_basis(self):
        # the early exit reads the weights first, so a basis that has none
        # still raises, on either side
        a, b, c, d = (gen(x) for x in "abcd")
        X = Comodule(((a + c, b + d - a - c), (c, d - c)))
        line = build_R(1)
        with pytest.raises(ValueError, match="torus-diagonal"):
            hom_space(X, line)
        with pytest.raises(ValueError, match="torus-diagonal"):
            hom_space(line, X)

    def test_hom_tensor_square(self):
        # V x V is indecomposable: scalar endomorphisms only, the
        # determinant line includes but does not split off
        assert len(hom_space(W, W)) == 1
        assert len(hom_space(build_R(1), W)) == 1
        assert hom_space(W, build_R(1)) == []
        assert len(hom_space(W, build_SymV(2))) == 1
        assert hom_space(build_SymV(2), W) == []

    def test_weight_blocking_consistency(self, monkeypatch):
        # one uniform weight for every basis vector makes every matrix entry
        # an unknown, so the blocked system is checked against the full one
        from ncgl2.linalg import rref

        labels = list(enumerate_lambda(2))
        pairs = [(W, W)] + [
            (build_delta(lam), build_nabla(mu)) for lam in labels for mu in labels
        ]
        blocked = [hom_space(X, Y) for X, Y in pairs]
        monkeypatch.setattr(Comodule, "weights", property(lambda X: (Weight(0, 0),) * X.dim))
        for (X, Y), fast in zip(pairs, blocked):
            slow = hom_space(X, Y)
            span_fast = [[c for row in f.matrix for c in row] for f in fast]
            span_slow = [[c for row in f.matrix for c in row] for f in slow]
            assert rref(span_fast)[0] == rref(span_slow)[0], (X, Y)

    @pytest.mark.parametrize("kind", ["delta-nabla", "nabla-nabla", "W-W"])
    def test_bases_match_the_blocked_oracle(self, kind):
        # are_isomorphic tries the basis maps themselves, so the basis,
        # not only its span, must be the unique reduced one
        labels = list(enumerate_lambda(3))
        source = {"delta-nabla": build_delta, "nabla-nabla": build_nabla}
        if kind == "W-W":
            pairs = [(W, W)]
        else:
            sources = [source[kind](lam) for lam in labels]
            targets = [build_nabla(mu) for mu in labels]
            pairs = list(product(sources, targets))
        for X, Y in pairs:
            matrices = [[list(row) for row in f.matrix] for f in hom_space(X, Y)]
            assert matrices == hom_space_blocked_oracle(X, Y), (X, Y)

    def test_sparse_intertwiner_matches_dense_oracle(self):
        # every canonical map with ell <= 3, and each copy of it with one
        # entry raised by 1, is judged as by the full entry-by-entry check
        for lam in enumerate_lambda(3):
            f = canonical_map(lam)
            assert f.is_intertwiner()
            for k, i in product(range(f.target.dim), range(f.source.dim)):
                matrix = [list(row) for row in f.matrix]
                matrix[k][i] += 1
                g = ComoduleMap(f.source, f.target, columns_of(matrix))
                assert g.is_intertwiner() == dense_is_intertwiner(g), (str(lam), k, i)

    def test_are_isomorphic_negative(self):
        assert not are_isomorphic(V, build_SymV(2))
        assert not are_isomorphic(W, tensor(V, build_R(1)))

    def test_are_isomorphic_through_a_combination(self):
        # Hom(V+V, V+V) is M_2(k): four basis maps of rank 2, none
        # invertible, so only a combination of them is an isomorphism,
        # and are_isomorphic does not search for one
        VV = direct_sum(V, V)
        maps = hom_space(VV, VV)
        assert len(maps) == 4
        assert not any(f.is_isomorphism() for f in maps)
        with pytest.raises(RuntimeError, match="inconclusive"):
            are_isomorphic(VV, VV)

    def test_are_isomorphic_inconclusive_raises(self):
        # Hom(R+R+V, V+V) = Hom(V, V+V): every map has rank 2 of 4, so no
        # combination is invertible, but Hom has two dimensions
        X = direct_sum(build_R(1), build_R(1), V)
        Y = direct_sum(V, V)
        maps = hom_space(X, Y)
        assert len(maps) == 2
        assert all(f.rank() == 2 for f in maps)
        with pytest.raises(RuntimeError, match="inconclusive"):
            are_isomorphic(X, Y)


def flat_span(maps) -> list[dict]:
    """The reduced basis of the span of the maps, each flattened to {(k, i): F[k][i]}."""
    return Echelon(
        {(k, i): x for i, column in enumerate(f.columns) for k, x in column.items()} for f in maps
    ).basis()


class TestHomFromGenerators:
    @pytest.mark.parametrize("build", [build_nabla, build_M], ids=["nabla", "M"])
    def test_read_off_matches_hom_space_through_ell_4(self, build):
        # every pair with ell <= 4: the same dimension and span as the full
        # solve, and each returned map intertwines
        labels = list(enumerate_lambda(4))
        targets = [build(mu) for mu in labels]
        homs = hom_from_delta(labels, targets)
        nonzero = 0
        for lam, per_target in zip(labels, homs):
            delta = build_delta(lam)
            for mu, Y, maps in zip(labels, targets, per_target):
                expected = hom_space(delta, Y)
                assert len(maps) == len(expected), (str(lam), str(mu))
                assert flat_span(maps) == flat_span(expected), (str(lam), str(mu))
                assert all(f.is_intertwiner() for f in maps), (str(lam), str(mu))
                nonzero += bool(maps)
        assert (len(labels), nonzero) == (69, {build_nabla: 69, build_M: 100}[build])

    def test_two_dimensional_hom(self):
        # nabla(lam) # k^2 holds two copies of nabla(lam), so Hom has two
        # dimensions, spread over two target vectors of the top weight
        l = parse_lambda("d^2.Di.d")
        Y = tensor(build_nabla(l), direct_sum(trivial(), trivial()))
        ((maps,),) = hom_from_delta([l], [Y])
        assert len(maps) == 2
        assert all(f.is_intertwiner() for f in maps)
        assert flat_span(maps) == flat_span(hom_space(build_delta(l), Y))

    def test_reads_rows_without_building_a_coaction(self):
        l = parse_lambda("d^6")
        ((maps,),) = hom_from_delta([l], [build_nabla(l)])
        (f,) = maps
        assert f == canonical_map(l)
        assert callable(f.source._coaction) and callable(f.target._coaction)

    def test_owned_word_at_another_weight_is_an_equation(self):
        # a stand-in target, not a comodule, whose row at the weight of a
        # holds V's word a in both entries: reading it off would pair two
        # weights, so the equation at the second entry leaves no map (on
        # comodules these equations follow from the others)
        a, c, d = gen("a"), gen("c"), gen("d")
        Y = Comodule(((a, a), (c, d)), (Weight(1, 0), Weight(0, 1)))
        assert hom_from_generators([(V, 0)], [Y]) == [[[]]]

    def test_source_with_a_two_term_entry_raises(self):
        # nabla(d^2) = S^2 V: the row of its top vector holds a two-word entry
        N = build_nabla(parse_lambda("d^2"))
        top = N.weights.index(Weight(2, 0))
        assert any(len(entry.items()) > 1 for entry in N.row(top))
        with pytest.raises(VerificationError, match="is not generated by basis vector"):
            hom_from_generators([(N, top)], [N])

    def test_source_whose_row_repeats_a_word_raises(self):
        # the row of the first basis vector of nabla(d.Di.d) is one word per
        # entry, but its two middle entries are the same word a Di b
        N = build_nabla(parse_lambda("d.Di.d"))
        words = [next(iter(entry.items()))[0] for entry in N.row(0)]
        assert len(words) == N.dim and len(set(words)) == N.dim - 1
        with pytest.raises(VerificationError, match="one distinct word each"):
            hom_from_generators([(N, 0)], [N])


class TestDuals:
    def test_left_dual_of_standard(self):
        # dual pairing conventions: the left dual of V twists by
        # the inverse determinant on the right
        assert are_isomorphic(left_dual(V), tensor(V, build_R(-1)))
        assert are_isomorphic(tensor(left_dual(V), build_R(1)), V)

    def test_dual_of_determinant(self):
        assert are_isomorphic(left_dual(build_R(2)), build_R(-2))

    def test_double_dual_not_identity(self):
        # the antipode has infinite order, so the double left dual
        # has the character of V without being isomorphic to it
        dd = left_dual(left_dual(V))
        assert weight_decomposition(dd) == weight_decomposition(V)
        assert not are_isomorphic(dd, V)
        assert hom_space(V, dd) == []


    @pytest.mark.parametrize("lam", ["d^3", "d.Di.d^2"])
    def test_left_dual_matches_letter_by_letter_oracle(self, lam):
        N = build_nabla(parse_lambda(lam))
        dual = left_dual(N)
        for i in range(N.dim):
            for j in range(N.dim):
                assert dual.coaction[i][j] == letter_by_letter(N.coaction[j][i], ANTIPODE_INV_IMAGES)

    def test_duals_do_not_grow_the_global_cache(self):
        # S and S^-1 keep the intermediates of their rewrites in a dict
        # local to one call; each input is measured on its own
        X = build_nabla(parse_lambda("d^4"))
        entries = [entry for row in X.coaction for entry in row]
        tensors = [ncalg.coproduct(entry) for entry in entries]
        calls = {
            "left_dual": lambda: left_dual(X),
            "antipode": lambda: [ncalg.antipode(entry) for entry in entries],
            "antipode_inv": lambda: [ncalg.antipode_inv(entry) for entry in entries],
            "antipode_leg": lambda: [ncalg.antipode_leg(t, leg) for t in tensors for leg in (0, 1)],
        }
        for name, call in calls.items():
            before = len(ncalg._NF_CACHE)
            call()
            assert len(ncalg._NF_CACHE) == before, name


class TestInvariantChecks:
    def test_ragged_coaction_raises_value_error(self):
        with pytest.raises(ValueError):
            Comodule([[one(), one()], [one()]])

    def test_lazy_coaction_without_weights_raises_value_error(self):
        # the dimension of a lazy comodule is the number of its weights
        with pytest.raises(ValueError, match="needs its weights"):
            Comodule(V.coaction.__getitem__)

    def test_lazy_coaction_of_the_wrong_size_raises_on_first_read(self):
        calls = []

        def row(k):
            calls.append(k)
            return V.coaction[k]

        X = Comodule(row, (Weight(1, 0),))
        assert (X.dim, calls) == (1, [])
        with pytest.raises(ValueError, match="1 x 1 matrix"):
            X.coaction
        assert calls == [0]

    def test_row_calls_the_function_until_the_coaction_is_built(self):
        calls = []

        def row(k):
            calls.append(k)
            return V.coaction[k]

        X = Comodule(row, V.weights)
        assert X.row(1) == V.coaction[1] and calls == [1]
        assert X.coaction == V.coaction and calls == [1, 0, 1]
        assert X.row(1) is X.coaction[1] and calls == [1, 0, 1]

    def test_eager_coaction_with_the_wrong_weight_count_raises_value_error(self):
        with pytest.raises(ValueError, match="expected 2 weights, got 1"):
            Comodule(V.coaction, (Weight(1, 0),))

    def test_map_shape_raises_value_error(self):
        # one column for the 2-dim source, and a column reaching target index 2
        with pytest.raises(ValueError, match="expected 2 columns, got 1"):
            ComoduleMap(V, V, [{0: Fraction(1)}])
        with pytest.raises(ValueError, match=r"outside range\(2\)"):
            ComoduleMap(V, V, [{0: Fraction(1)}, {2: Fraction(1)}])

    def test_repr_prints_dimensions_without_a_rank(self, monkeypatch):
        # pytest calls repr on a failed assertion, and the rank of a large
        # map takes seconds
        def no_rank(rows):
            raise AssertionError("repr computed a rank")

        monkeypatch.setattr(ncgl2.linalg, "rank", no_rank)
        assert repr(canonical_map(parse_lambda("d.Di.d"))) == "ComoduleMap(3 -> 4)"

    def test_shape_check_runs_under_python_optimize(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import ncgl2

        code = (
            "from ncgl2.comodules import Comodule\n"
            "from ncgl2.ncalg import one\n"
            "try:\n"
            "    Comodule([[one(), one()], [one()]])\n"
            "except ValueError:\n"
            "    print('ValueError')\n"
        )
        src = str(Path(ncgl2.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ValueError\n"
