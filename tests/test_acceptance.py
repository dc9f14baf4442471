"""Acceptance gate: one test per headline property, at its stated bound.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Each criterion is implemented once, as a suite in
`ncgl2.checks` (the same code `ncgl2 check` runs); each test here runs its
suites at a fixed bound and asserts the exact list of (name, pass,
details) results.  The details carry the criterion's literal data, so a
suite that drops or weakens a check fails its test.  The few assertions
no suite reports are written out after the list.
"""

from collections import Counter

from ncgl2.borel import every_subcomodule_contains
from ncgl2.checks import run_check_suite
from ncgl2.comodules import are_isomorphic, left_dual
from ncgl2.standard import build_L, build_nabla, delta_multiset, nabla_multiset
from ncgl2.weights import enumerate_lambda


def suite_results(names, n):
    return [
        (r["name"], r["pass"], r["details"])
        for r in run_check_suite(names, {"len": n})
    ]


def test_criterion_01_confluence_and_basis_enumeration():
    """All overlap ambiguities resolve; enumerators agree up to length 6."""
    assert suite_results(["confluence"], 6) == [
        (
            "confluence.overlaps-joinable",
            True,
            "10 overlap words, all rewrite paths converge",
        ),
        (
            "confluence.basis-matches-pattern-count-len6",
            True,
            "18553 normal words of length <= 6",
        ),
    ]


def test_criterion_02_hopf_axioms_and_antipode_square():
    """Coassociativity, counit, convolution inverses on words of length <= 4."""
    assert suite_results(["hopf"], 4) == [
        ("hopf.coassociativity", True, "basis length <= 4"),
        ("hopf.counit", True, "basis length <= 4"),
        ("hopf.antipode-convolution", True, "both sides, basis length <= 4"),
        ("hopf.antipode-inverse", True, "basis length <= 4"),
        ("hopf.antipode-not-involutive", True, "S^2(a) = Di*a*D differs from a"),
    ]


def test_criterion_03_layer_decomposition_counts_basis():
    """Each graded layer of the algebra is a sum of costandard dimensions."""
    assert suite_results(["layers"], 6) == [
        (
            "layers.layer-identity-len6",
            True,
            "costandard sums [1, 6, 30, 142, 666, 3118, 14590] "
            "match word counts per length",
        ),
    ]


def test_criterion_04_costandard_multiset_recursion():
    """The filtration multisets match the worked examples and all audits."""
    assert suite_results(["multisets"], 5) == [
        (
            "multisets.example-d4",
            True,
            "N(d^4) = ['D.d^2', 'D^2', 'd.D.d', 'd^2.D', 'd^4']",
        ),
        ("multisets.example-d2Did", True, "N(d^2.Di.d) = ['d', 'd^2.Di.d']"),
        ("multisets.top-multiplicity-one-len5", True, "168 words"),
        ("multisets.dimension-audit-len5", True, "168 words"),
        ("multisets.character-audit-len5", True, "168 words"),
        ("multisets.strictly-below-audit-len5", True, "168 words"),
    ]
    # star-duality audit: the standard multiset is the mirrored one
    for lam in enumerate_lambda(5):
        mirrored = Counter(
            {mu.star(): m for mu, m in nabla_multiset(lam.star_inv()).items()}
        )
        assert delta_multiset(lam) == mirrored, str(lam)


def test_criterion_05_hom_delta_nabla_is_diagonal():
    """dim Hom(standard, costandard) is 1 on the diagonal, 0 off it."""
    assert suite_results(["simples"], 3) == [
        (
            "simples.hom-delta-nabla-diagonal-len3",
            True,
            "28x28 pairs, dim Hom = [lam == mu]",
        ),
    ]


def test_criterion_06_unique_semi_invariant_line():
    """Costandards have one upper-triangular semi-invariant, at their weight."""
    assert suite_results(["nab"], 4) == [
        (
            "nab.upper-semi-invariant-line-len4",
            True,
            "69 words, unique line exactly at the top weight",
        ),
        (
            "nab.socle-probe-len3",
            True,
            "every probed subcomodule contains the top weight vector",
        ),
    ]
    # exact socle certificate: every nonzero subcomodule contains the top line
    for lam in enumerate_lambda(4):
        nab = build_nabla(lam)
        top = nab.weights.index(lam.wt())
        assert every_subcomodule_contains(nab, top), str(lam)


def test_criterion_07_truncated_induction_matches_prediction():
    """Solved induced spaces equal the combinatorial basis on the grid."""
    assert suite_results(["induced"], 3) == [
        (
            "induced.truncated-induction-grid-len3",
            True,
            "dimensions match the monomial prediction on |i|,|j| <= 2",
        ),
        ("induced.vanishing-off-dominant-len3", True, "zero outside the dominant cone"),
    ]


def test_criterion_08_classifier_matches_canonical_map():
    """Block expressions predict the simple's dimension for all ell <= 8."""
    assert suite_results(["classifier"], 8) == [
        (
            "classifier.crosscheck-len8",
            True,
            "2377 words: block dim = canonical rank, characters agree",
        ),
        ("classifier.named-examples", True, "three reference classifications"),
        ("classifier.adjacency-table-len8", True, "every emitted expression passes"),
    ]
    # duality permutes simples by the star map
    for lam in enumerate_lambda(3):
        L, _ = build_L(lam)
        Lstar, _ = build_L(lam.star())
        assert are_isomorphic(left_dual(L), Lstar), str(lam)


def test_criterion_09_differential_operator_oracle():
    """Rank flags of the raising operator follow one inequality; E1 E2 = E2 E1."""
    assert suite_results(["sl2"], 8) == [
        (
            "sl2.rank-flags-grid-8",
            True,
            "injectivity/surjectivity match the adjacency inequalities",
        ),
        (
            "sl2.transfer-commutation",
            True,
            "the two donations into a shared middle commute (degrees <= 4)",
        ),
    ]


def test_criterion_10_move_order_invariance_and_saturation():
    """The move order is star- and translation-invariant; down-sets close up."""
    assert suite_results(["poset"], 4) == [
        ("poset.below-sets-saturated-len4", True, "closed under covers"),
        ("poset.star-invariance-len4", True, "mu < lam iff mu* < lam*"),
        (
            "poset.translation-invariance-len4",
            True,
            "strict order survives one-letter multiplication on either side",
        ),
        (
            "poset.hom-implies-order-len3",
            True,
            "nonzero nabla-homs only point down the refined order",
        ),
    ]
