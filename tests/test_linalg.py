"""Exact rational linear algebra."""

import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ncgl2
from ncgl2.linalg import (
    accumulate,
    identity,
    mat_mul,
    mat_vec,
    nullspace,
    nullspace_sparse,
    rank,
    rref,
    same_row_space,
    solve,
    span_contains,
)

F = Fraction


def test_accumulate_cancelling_pair_deletes_key():
    acc = {"x": F(1, 2), "y": F(1)}
    accumulate(acc, [("x", F(-1, 2))])
    assert acc == {"y": F(1)}


def test_accumulate_zero_pair_adds_no_key():
    assert accumulate({}, [("x", F(0)), ("y", 0)]) == {}


def test_accumulate_mutates_and_returns_same_dict():
    acc = {"x": F(1)}
    assert accumulate(acc, iter([("x", F(2)), ("z", F(-3))])) is acc
    assert acc == {"x": F(3), "z": F(-3)}


def test_accumulate_tuple_keys_and_int_coefficients():
    acc = accumulate({}, [((1, ("a",)), 2), ((1, ("a",)), 3), ((0, ()), -1), ((0, ()), 1)])
    assert acc == {(1, ("a",)): 5}
    assert type(acc[(1, ("a",))]) is int


def test_accumulate_is_the_only_accumulation_loop():
    # Hand-written "add into a dict with a zero default" loops bypass the
    # no-stored-zero rule; accumulate() is the one place that adds.
    pattern = re.compile(r"\.get\([^()]*(?:\([^()]*\))?[^()]*,\s*(?:0|Fraction\(0\)|_ZERO)\)\s*[+-]")
    package = Path(ncgl2.__file__).parent
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_no_bare_assert_in_package():
    # python -O strips assert statements; invariant checks must raise
    package = Path(ncgl2.__file__).parent
    hits = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert hits == []


def test_rref_known():
    # hand-reduced
    mat = [[F(1), F(2), F(3)], [F(2), F(4), F(7)], [F(0), F(0), F(1)]]
    reduced, pivots = rref(mat)
    assert pivots == [0, 2]
    assert reduced[0] == [F(1), F(2), F(0)]
    assert reduced[1] == [F(0), F(0), F(1)]


def test_rank_and_nullspace():
    mat = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    assert rank(mat) == 2
    null = nullspace(mat)
    assert len(null) == 1
    v = null[0]
    assert mat_vec(mat, v) == [F(0), F(0)]


def test_solve_unique():
    mat = [[F(2), F(1)], [F(1), F(3)]]
    rhs = [F(5), F(10)]
    sol = solve(mat, rhs)
    assert sol is not None
    assert mat_vec(mat, sol) == rhs


def test_solve_inconsistent():
    mat = [[F(1), F(1)], [F(2), F(2)]]
    assert solve(mat, [F(1), F(3)]) is None


def test_span_and_row_space():
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert span_contains(rows, [F(2), F(3), F(5)])
    assert not span_contains(rows, [F(0), F(0), F(1)])
    assert same_row_space(rows, [[F(1), F(1), F(2)], [F(1), F(-1), F(0)]])
    assert not same_row_space(rows, [[F(1), F(0), F(0)]])


def test_nullspace_sparse_matches_dense():
    rows = [
        {0: F(1), 2: F(-1)},
        {1: F(2), 2: F(2)},
    ]
    dense = [[F(1), F(0), F(-1)], [F(0), F(2), F(2)]]
    sparse_basis = nullspace_sparse(rows, 3)
    dense_basis = nullspace(dense)
    assert same_row_space(sparse_basis, dense_basis)


def random_sparse_system(rng: random.Random) -> tuple[list[dict], int]:
    """A sparse system with int and rational entries and awkward rows."""
    nvars = rng.randint(1, 9)
    equations: list[dict] = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.1:
            equations.append(rng.choice([{}, {rng.randrange(nvars): 0}]))
        elif kind < 0.25 and equations:
            equations.append(dict(rng.choice(equations)))
        else:
            row: dict = {}
            for k in rng.sample(range(nvars), rng.randint(1, min(nvars, 4))):
                value = rng.choice([v for v in range(-7, 8) if v])
                if rng.random() < 0.3:
                    value = F(value, rng.randint(2, 9))
                row[k] = value
            if rng.random() < 0.3:
                factor = rng.choice([-6, -2, 4, 15])
                row = {k: v * factor for k, v in row.items()}
            equations.append(row)
    return equations, nvars


def dense_rows(equations: list[dict], nvars: int) -> list[list[F]]:
    return [[F(eq.get(k, 0)) for k in range(nvars)] for eq in equations]


@pytest.mark.parametrize("seed", range(8))
def test_nullspace_sparse_equals_dense_on_random_systems(seed):
    rng = random.Random(seed)
    for _ in range(60):
        equations, nvars = random_sparse_system(rng)
        sparse_basis = nullspace_sparse([dict(eq) for eq in equations], nvars)
        assert sparse_basis == nullspace(dense_rows(equations, nvars), nvars), equations
        assert all(type(x) is F for vec in sparse_basis for x in vec)


def test_nullspace_sparse_edge_systems():
    cases = [
        ([], 3),
        ([{}, {1: 0}], 2),
        ([{0: -4, 2: 6}, {0: -4, 2: 6}, {1: F(-3, 2), 2: F(9, 4)}], 3),
        ([{0: 6, 1: 10, 2: 14}, {1: -9, 2: 21}], 4),
        ([{0: F(2), 1: -2}, {0: 3, 1: 3}], 2),
    ]
    for equations, nvars in cases:
        sparse_basis = nullspace_sparse(equations, nvars)
        assert sparse_basis == nullspace(dense_rows(equations, nvars), nvars)
        assert all(type(x) is F for vec in sparse_basis for x in vec)
    assert nullspace_sparse([], 2) == [[F(1), F(0)], [F(0), F(1)]]
    assert nullspace_sparse([], 0) == []


SMALL = st.integers(min_value=-4, max_value=4).map(F)


@st.composite
def matrices(draw, max_dim=4):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = draw(st.integers(min_value=1, max_value=max_dim))
    return [[draw(SMALL) for _ in range(m)] for _ in range(n)]


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_nullity(mat):
    cols = len(mat[0])
    assert rank(mat) + len(nullspace(mat)) == cols


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_nullspace_vectors_annihilate(mat):
    for v in nullspace(mat):
        assert all(entry == 0 for entry in mat_vec(mat, v))


@given(matrices(max_dim=3), matrices(max_dim=3))
@settings(max_examples=60, deadline=None)
def test_rank_of_product_bounded(m1, m2):
    if len(m1[0]) != len(m2):
        return
    prod = mat_mul(m1, m2)
    assert rank(prod) <= min(rank(m1), rank(m2))


@given(st.integers(min_value=1, max_value=5))
def test_identity_is_full_rank(n):
    assert rank(identity(n)) == n
