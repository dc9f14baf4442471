"""Exact linear algebra: the sparse kernel and the fraction-free echelon."""

import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ncgl2
from ncgl2.linalg import (
    Echelon,
    accumulate,
    nullspace_sparse,
    rank,
    rref,
)

F = Fraction


# ---------------------------------------------------------------------------
# Dense Gauss-Jordan elimination over Fraction, an independent oracle for
# the fraction-free Echelon that every routine of the package runs on.

def dense_rref(rows) -> tuple[list[list[F]], list[int]]:
    mat = [[F(x) for x in row] for row in rows]
    pivots: list[int] = []
    if not mat:
        return [], []
    row_at = 0
    for col in range(len(mat[0])):
        pivot_row = next((r for r in range(row_at, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[row_at], mat[pivot_row] = mat[pivot_row], mat[row_at]
        inv = 1 / mat[row_at][col]
        mat[row_at] = [x * inv for x in mat[row_at]]
        for r in range(len(mat)):
            if r != row_at and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[row_at])]
        pivots.append(col)
        row_at += 1
        if row_at == len(mat):
            break
    return mat[:row_at], pivots


def dense_nullspace(rows, ncols: int) -> list[list[F]]:
    reduced, pivots = dense_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [F(0)] * ncols
        vec[free] = F(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][free]
        basis.append(vec)
    return basis


def mat_vec(A, x) -> list[F]:
    return [sum((F(a) * v for a, v in zip(row, x)), F(0)) for row in A]


def dense_rows(equations: list[dict], nvars: int) -> list[list[F]]:
    """Sparse vectors {k: x} written out as dense rows of length nvars."""
    return [[F(eq.get(k, 0)) for k in range(nvars)] for eq in equations]


def sparse_equations(rows) -> list[dict]:
    """The rows of a dense matrix as sparse equations {k: A[r][k]}."""
    return [{k: v for k, v in enumerate(row) if v} for row in rows]


def agrees_with_oracle(rows: list[list[F]], ncols: int) -> None:
    """rref, rank and nullspace_sparse equal the dense oracle's."""
    reduced, pivots = dense_rref(rows)
    assert rref(rows) == (reduced, pivots)
    assert all(type(x) is F for row in rref(rows)[0] for x in row)
    assert rank(rows) == len(pivots)
    sparse_basis = nullspace_sparse(sparse_equations(rows), ncols)
    assert dense_rows(sparse_basis, ncols) == dense_nullspace(rows, ncols)
    assert all(type(x) is F for vec in sparse_basis for x in vec.values())


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


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never references, outside __future__.

    A name listed in the module's __all__ counts as referenced.
    """
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_import_in_package_or_tests():
    package = Path(ncgl2.__file__).parent
    paths = sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert [hit for path in paths for hit in unused_imports(path)] == []


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


def test_no_module_imports_random():
    # a sampled check is evidence, not proof: every answer is exact, or
    # raises "inconclusive"
    package = Path(ncgl2.__file__).parent
    hits = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "random" for module in modules):
                hits.append(f"{path.name}:{node.lineno}")
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
    null = nullspace_sparse(sparse_equations(mat), 3)
    assert null == [{0: 1, 1: -1, 2: 1}]
    (v,) = dense_rows(null, 3)
    assert mat_vec(mat, v) == [F(0), F(0)]


def test_echelon_insert_len_and_basis():
    echelon = Echelon()
    assert echelon.insert({0: 2, 2: 6})
    assert echelon.insert([1, 1, 4])
    assert not echelon.insert({0: F(3, 2), 1: -3, 2: F(3, 2)})
    assert not echelon.insert({})
    assert len(echelon) == 2
    assert echelon.basis() == [{0: 1, 2: 3}, {1: 1, 2: 1}]
    assert all(type(x) is F for row in echelon.basis() for x in row.values())
    # rows stay integral and without content, whatever the input scale
    assert echelon.rows == {0: {0: 1, 2: 3}, 1: {1: 1, 2: 1}}
    assert all(type(x) is int for row in echelon.rows.values() for x in row.values())


def test_echelon_columns_are_any_ordered_keys():
    # the leading column is the smallest key, so negated keys reverse it
    echelon = Echelon([{"x": 1, "y": 1}, {"y": 2, "z": 4}])
    assert echelon.basis() == [{"x": 1, "z": -2}, {"y": 1, "z": 2}]
    reverse = Echelon([{-1: 1, -2: 1}, {-2: 2, -3: 4}])
    assert reverse.basis() == [{-3: 1, -1: F(-1, 2)}, {-2: 1, -1: 1}]


def test_span_and_row_space():
    # insert returns False exactly when the vector already lies in the span
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert not Echelon(rows).insert([F(2), F(3), F(5)])
    assert Echelon(rows).insert([F(0), F(0), F(1)])
    assert not Echelon(sparse_equations(rows)).insert({0: 2, 1: 3, 2: 5})
    assert Echelon(sparse_equations(rows)).insert({2: 1})
    assert rref(rows)[0] == rref([[F(1), F(1), F(2)], [F(1), F(-1), F(0)]])[0]
    assert rref(rows)[0] != rref([[F(1), F(0), F(0)]])[0]


def test_nullspace_sparse_matches_dense():
    rows = [
        {0: F(1), 2: F(-1)},
        {1: F(2), 2: F(2)},
    ]
    dense = [[F(1), F(0), F(-1)], [F(0), F(2), F(2)]]
    sparse_basis = nullspace_sparse(rows, 3)
    dense_basis = dense_nullspace(dense, 3)
    assert rref(dense_rows(sparse_basis, 3))[0] == rref(dense_basis)[0]


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


@pytest.mark.parametrize("seed", range(8))
def test_nullspace_sparse_equals_dense_on_random_systems(seed):
    rng = random.Random(seed)
    for _ in range(60):
        equations, nvars = random_sparse_system(rng)
        sparse_basis = nullspace_sparse([dict(eq) for eq in equations], nvars)
        dense = dense_rows(equations, nvars)
        assert dense_rows(sparse_basis, nvars) == dense_nullspace(dense, nvars), equations
        assert all(type(x) is F for vec in sparse_basis for x in vec.values())
        # one vector per free variable, in order: 1 there, no zero value,
        # and every other key at a pivot variable
        pivots = set(dense_rref(dense)[1])
        free = [k for k in range(nvars) if k not in pivots]
        assert len(sparse_basis) == len(free)
        for vec, k in zip(sparse_basis, free):
            assert vec[k] == 1
            assert all(vec.values())
            assert set(vec) - {k} <= pivots
        agrees_with_oracle(dense, nvars)


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
        assert dense_rows(sparse_basis, nvars) == dense_nullspace(dense_rows(equations, nvars), nvars)
        assert all(type(x) is F for vec in sparse_basis for x in vec.values())
    assert nullspace_sparse([], 2) == [{0: F(1)}, {1: F(1)}]
    assert nullspace_sparse([], 0) == []


SMALL = st.integers(min_value=-4, max_value=4).map(F)


@st.composite
def matrices(draw, max_dim=4):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = draw(st.integers(min_value=1, max_value=max_dim))
    return [[draw(SMALL) for _ in range(m)] for _ in range(n)]


@given(matrices(max_dim=5))
@settings(max_examples=150, deadline=None)
def test_kernel_equals_dense_oracle(mat):
    agrees_with_oracle(mat, len(mat[0]))


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_nullity(mat):
    cols = len(mat[0])
    assert rank(mat) + len(nullspace_sparse(sparse_equations(mat), cols)) == cols


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_nullspace_vectors_annihilate(mat):
    cols = len(mat[0])
    for v in dense_rows(nullspace_sparse(sparse_equations(mat), cols), cols):
        assert all(entry == 0 for entry in mat_vec(mat, v))


@given(matrices(max_dim=3), matrices(max_dim=3))
@settings(max_examples=60, deadline=None)
def test_rank_of_product_bounded(m1, m2):
    if len(m1[0]) != len(m2):
        return
    prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m2)] for row in m1]
    assert rank(prod) <= min(rank(m1), rank(m2))


@given(st.integers(min_value=1, max_value=5))
def test_identity_is_full_rank(n):
    assert rank([[int(i == j) for j in range(n)] for i in range(n)]) == n
