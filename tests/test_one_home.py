"""One home for each design decision: which package code may read a name.

ONE_HOME maps a package name to the owners allowed to read it, and the
reason (ROADMAP north-star item 2).  An owner is a module, "ncalg", or a
definition in it, "comodules:Comodule.weights", a top-level assignment
included ("standard:_FACTORS"); it covers everything nested inside it.  A
read is the Load of an ast.Name that its module binds at top level (by
def, class, assignment or import) or imports anywhere, or of an
ast.Attribute; so a local of the same name, such as the `tensor`
parameter of the ncalg leg maps or the `cache` local of ncalg._reduce,
is not a read.
"""

import ast
from pathlib import Path

import pytest

import ncgl2

TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(Path(ncgl2.__file__).parent.glob("*.py"))}

_REDEX = "ncalg:_first_redex ncalg:enumerate_basis ncalg:_LHS3_HEADS"
_NF_CACHE = "ncalg:_product ncalg:_reduce"
_LEG_MAPS = "ncalg:coproduct ncalg:coproduct_leg ncalg:counit_leg ncalg:antipode_leg"
_PRODUCTS = "standard:factor_comodule standard:build_delta"
_ENTRIES = "standard:_FACTORS standard:_twisted_entry"

# name: (the owners that may read it, the decision that has its one home there)
ONE_HOME = {
    "RULES": (
        "ncalg:_LHS2 ncalg:_LHS3 ncalg:check_confluence standard:comodule_certificate",
        "the redex index is built from RULES, and the pattern oracle never reads it",
    ),
    "_LHS2": (_REDEX, "the redex index is the one test of normality"),
    "_LHS3": (_REDEX, "the redex index is the one test of normality"),
    "_LHS3_HEADS": (_REDEX, "the redex index is the one test of normality"),
    "_NF_CACHE": (_NF_CACHE, "only _product grows the normal-form cache, through _reduce"),
    "_NF_CACHE_LIMIT": (_NF_CACHE, "only _product clears the normal-form cache"),
    "cache": ("standard:comodule_certificate", "_NF_CACHE is the one cache; the certificate runs once"),
    "lru_cache": ("standard:comodule_certificate", "_NF_CACHE is the one cache; the certificate runs once"),
    "_map_leg": (_LEG_MAPS, "one leg map applies every Hopf map to one leg of a tensor"),
    "nullspace_sparse": (
        "comodules:_intertwiners comodules:kernel comodules:hom_from_generators",
        "every solve is an intertwining system, a kernel, or the equations of a generating row",
    ),
    "generator_owners": (
        "standard:canonical_map comodules:hom_from_generators",
        "one owner table shows that a row's vector generates its comodule",
    ),
    "_intertwiners": (
        "comodules:hom_space borel:_maps_from_line",
        "one builder of intertwining equations",
    ),
    "torus_project": ("comodules:Comodule.weights", "Comodule.weights scans a coaction once and keeps it"),
    "matrix": ("", "maps are sparse columns; only callers outside the package read .matrix"),
    "tensor": ("standard:build_TV", "products are built from parts; build_TV is the factor table's oracle"),
    "left_dual": ("standard:build_TV", "duals are built from parts; build_TV is the factor table's oracle"),
    "build_SymV": ("standard:build_TV", "the builders are the factor table's oracles"),
    "build_TV": ("", "the builders are the factor table's oracles"),
    "_FACTORS": ("standard:_factor_parts standard:factor_char standard:factor_dim", "one factor table"),
    "_sym_entry": (_ENTRIES, "one factor table"),
    "_det_entry": (_ENTRIES, "one factor table"),
    "_twisted_entry": (_ENTRIES, "one factor table"),
    "char_S": ("standard:_FACTORS", "one factor table"),
    "char_T": ("standard:_FACTORS", "one factor table"),
    "char_R": ("standard:_FACTORS", "one factor table"),
    "_merged": ("standard:_factor_parts", "a line merges into the factor beside it in one place"),
    "_factor_parts": (_PRODUCTS, "nabla, M, Delta and the classifier's blocks read the same parts"),
    "_row_product": (_PRODUCTS, "canonical_map reads rows of the product comodules, not their parts"),
    "_seam_row": (
        "standard:_row_product",
        "a product row is concatenated only where its seams are certified, and folded otherwise",
    ),
    "_dual": ("standard:build_delta", "Delta's dual parts have one home"),
    "_factor_row": ("standard:_product_comodule", "part rows are read only inside a product comodule"),
    "_power_word": (
        "weights:parse_lambda weights:parse_weight",
        "one scanner for the power words of labels and weights",
    ),
    "_power_text": (
        "ncalg:render_word weights:render_weight weights:LambdaWord.__str__",
        "one printer for the power words of normal words, labels and weights",
    ),
    "_runs": (
        "ncalg:render_word weights:LambdaWord.__str__ weights:LambdaWord.atoms",
        "a word is grouped into its letter runs in one place",
    ),
    "transfer_flags": (
        "simples:_neighbour_pairs checks:_suite_sl2",
        "one adjacency table, read by one neighbour scan and certified by the sl2 oracle",
    ),
    "_move": (
        "simples:_classify_segment simples:_exchange_neighbours",
        "the greedy transfers and the exchange isomorphisms make one unit move",
    ),
}


def _bound(node: ast.AST) -> list[str]:
    """The names a statement binds: a def or class, assignment targets, imports."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        return [n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def _reads():
    """(name, owner path, line) for every read in the package."""
    for module, tree in TREES.items():
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        module_names = {name for statement in tree.body + imports for name in _bound(statement)}
        stack = [(tree, module)]
        while stack:
            node, path = stack.pop()
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in module_names:
                yield node.id, path, node.lineno
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr, path, node.lineno
            for child in ast.iter_child_nodes(node):
                named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or (
                    node is tree and isinstance(child, (ast.Assign, ast.AnnAssign))
                )
                names = _bound(child) if named else []
                separator = "." if ":" in path else ":"
                stack.append((child, f"{path}{separator}{names[0]}" if names else path))


READS = list(_reads())


@pytest.mark.parametrize("name", ONE_HOME)
def test_name_is_read_only_at_its_home(name):
    owners, reason = ONE_HOME[name]
    strays = [
        f"{path} (line {line})"
        for read, path, line in READS
        if read == name and not any(path == o or path.startswith((o + ".", o + ":")) for o in owners.split())
    ]
    assert strays == [], reason


def test_every_row_names_a_bound_name():
    # a row whose name no module binds guards nothing; lru_cache is kept
    # out before any module imports it
    bound = {name for tree in TREES.values() for node in ast.walk(tree) for name in _bound(node)}
    assert set(ONE_HOME) - bound <= {"lru_cache"}
