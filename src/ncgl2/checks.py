"""Named verification suites over the whole engine.

Each suite re-runs one family of structural facts at a configurable size
bound and reports one result per fact: a dict with "name", "pass", and
"details".  The suites are the acceptance criteria: they are the only
implementation of each criterion, `ncgl2 check` runs them, and
`tests/test_acceptance.py` wraps them at fixed bounds and asserts their
exact results.  They are deliberately cross-cutting: they compare
independent constructions against each other (rewriting against pattern
counting, the filtration multisets against the run-length dimensions and
the characters of M(lam), the greedy classifier against exact ranks,
quantized inequalities against classical differential operators), so a
regression anywhere in the stack trips at least one of them.

>>> results = run_check_suite(["sl2"], {"len": 3})
>>> all(r["pass"] for r in results)
True
"""

from __future__ import annotations

__all__ = ["SUITE_NAMES", "run_check_suite"]


def _result(name: str, ok: bool, details: str) -> dict:
    return {"name": name, "pass": bool(ok), "details": details}


# ---------------------------------------------------------------------------
# individual suites


def _suite_confluence(bounds: dict) -> list[dict]:
    from .ncalg import check_confluence, enumerate_basis, enumerate_basis_by_pattern

    n = bounds.get("len", 4)
    report = check_confluence()
    out = [
        _result(
            "overlaps-joinable",
            report["pass"],
            f"{report['count']} overlap words, all rewrite paths converge",
        )
    ]
    rewriting = set(enumerate_basis(n))
    pattern = set(enumerate_basis_by_pattern(n))
    out.append(
        _result(
            f"basis-matches-pattern-count-len{n}",
            rewriting == pattern,
            f"{len(rewriting)} normal words of length <= {n}",
        )
    )
    return out


def _suite_hopf(bounds: dict) -> list[dict]:
    from .ncalg import (
        NCElement,
        antipode,
        antipode_inv,
        antipode_leg,
        coproduct,
        coproduct_leg,
        counit,
        counit_leg,
        enumerate_basis,
        gen,
        multiply_legs,
        one,
    )

    n = bounds.get("len", 2)
    basis = enumerate_basis(n)
    coassoc = counit_ax = conv = inv = True
    # one image per normal word for the whole sweep: memo holds coproducts,
    # s_memo antipodes; each is filled on first use and only read after
    memo: dict = {}
    s_memo: dict = {}
    for w in basis:
        el = NCElement({w: 1})
        two = coproduct(el, memo)
        left = coproduct_leg(two, 0, memo)
        right = coproduct_leg(two, 1, memo)
        if left != right:
            coassoc = False
        if multiply_legs(counit_leg(two, 0)) != el or multiply_legs(counit_leg(two, 1)) != el:
            counit_ax = False
        eps = counit(el) * one()
        if multiply_legs(antipode_leg(two, 0, s_memo)) != eps:
            conv = False
        if multiply_legs(antipode_leg(two, 1, s_memo)) != eps:
            conv = False
        # S(w) through s_memo, which the convolution checks above filled
        s_el = NCElement._raw({v: c for (v,), c in antipode_leg({(w,): 1}, 0, s_memo).items()})
        if antipode_inv(s_el) != el or antipode(antipode_inv(el)) != el:
            inv = False
    out = [
        _result("coassociativity", coassoc, f"basis length <= {n}"),
        _result("counit", counit_ax, f"basis length <= {n}"),
        _result("antipode-convolution", conv, f"both sides, basis length <= {n}"),
        _result("antipode-inverse", inv, f"basis length <= {n}"),
    ]
    a = gen("a")
    s2 = antipode(antipode(a))
    out.append(
        _result(
            "antipode-not-involutive",
            s2 != a,
            f"S^2(a) = {s2} differs from a",
        )
    )
    return out


def _suite_layers(bounds: dict) -> list[dict]:
    from collections import Counter

    from .ncalg import enumerate_basis
    from .standard import layer_dimension

    n = bounds.get("len", 4)
    by_len = Counter(len(w) for w in enumerate_basis(n))
    ok = True
    sizes = []
    for k in range(n + 1):
        predicted = layer_dimension(k)
        sizes.append(predicted)
        if predicted != by_len[k]:
            ok = False
    return [
        _result(
            f"layer-identity-len{n}",
            ok,
            f"costandard sums {sizes} match word counts per length",
        )
    ]


def _suite_multisets(bounds: dict) -> list[dict]:
    from .linalg import accumulate
    from .standard import (
        char_M,
        char_delta,
        char_nabla,
        delta_multiset,
        factor_dim,
        monoid_factors,
        nabla_factors,
        nabla_multiset,
    )
    from .weights import enumerate_lambda, parse_lambda

    n = bounds.get("len", 4)
    out = []
    n4 = sorted(str(m) for m in nabla_multiset(parse_lambda("d^4")).elements())
    out.append(
        _result(
            "example-d4",
            n4 == ["D.d^2", "D^2", "d.D.d", "d^2.D", "d^4"],
            f"N(d^4) = {n4}",
        )
    )
    n21 = sorted(str(m) for m in nabla_multiset(parse_lambda("d^2.Di.d")).elements())
    out.append(
        _result("example-d2Did", n21 == ["d", "d^2.Di.d"], f"N(d^2.Di.d) = {n21}")
    )

    dims = chars = order = once = True
    count = 0
    for lam in enumerate_lambda(n):
        count += 1
        m_dim = factor_dim(monoid_factors(lam))
        target = char_M(lam)
        for multiset, factors, char in (
            (nabla_multiset(lam), nabla_factors, char_nabla),
            (delta_multiset(lam), lambda mu: nabla_factors(mu.star_inv()), char_delta),
        ):
            once &= multiset[lam] == 1
            # dimensions from the factor words, not from built comodules; the
            # builders are checked against factor_dim in the test suite
            dim, total = 0, {}
            for mu, k in multiset.items():
                dim += factor_dim(factors(mu)) * k
                accumulate(total, ((w, k * m) for w, m in char(mu).items()))
                order &= mu == lam or mu.lt1(lam)
            dims &= dim == m_dim
            chars &= total == target
    out.append(_result(f"top-multiplicity-one-len{n}", once, f"{count} words"))
    out.append(_result(f"dimension-audit-len{n}", dims, f"{count} words"))
    out.append(_result(f"character-audit-len{n}", chars, f"{count} words"))
    out.append(_result(f"strictly-below-audit-len{n}", order, f"{count} words"))
    return out


def _suite_simples(bounds: dict) -> list[dict]:
    from .standard import build_nabla, hom_from_delta
    from .weights import enumerate_lambda

    n = bounds.get("len", 2)
    words = list(enumerate_lambda(n))
    homs = hom_from_delta(words, [build_nabla(mu) for mu in words])
    ok = all(
        len(maps) == (s == t)
        for s, per_target in enumerate(homs)
        for t, maps in enumerate(per_target)
    )
    return [
        _result(
            f"hom-delta-nabla-diagonal-len{n}",
            ok,
            f"{len(words)}x{len(words)} pairs, dim Hom = [lam == mu]",
        )
    ]


def _suite_nab(bounds: dict) -> list[dict]:
    from .borel import BOREL_UPPER, every_subcomodule_contains, semi_invariants
    from .standard import build_nabla, char_nabla
    from .weights import Weight, enumerate_lambda

    n = bounds.get("len", 3)
    sub_n = min(n, 3)
    unique = True
    socle = True
    count = 0
    for lam in enumerate_lambda(n):
        count += 1
        N = build_nabla(lam)
        top = lam.wt()
        off_support = Weight(top.i + 1, top.j + 1)
        for t in [*char_nabla(lam), off_support]:
            d = len(semi_invariants(N, BOREL_UPPER, t))
            if d != (1 if t == top else 0):
                unique = False
        if lam.ell() <= sub_n:
            top_index = N.weights.index(top)
            if not every_subcomodule_contains(N, top_index):
                socle = False
    return [
        _result(
            f"upper-semi-invariant-line-len{n}",
            unique,
            f"{count} words, unique line exactly at the top weight",
        ),
        # named as in the reference output of `check all --len 4`,
        # though the check is now an exact certificate
        _result(
            f"socle-probe-len{sub_n}",
            socle,
            "every probed subcomodule contains the top weight vector",
        ),
    ]


def _suite_induced(bounds: dict) -> list[dict]:
    from .borel import induced_predicted, induced_truncated
    from .weights import Weight, is_dominant

    n = bounds.get("len", 3)
    ok = True
    dominant_zero = True
    for length in range(n + 1):
        for i in range(-2, 3):
            for j in range(-2, 3):
                t = Weight(i, j)
                actual = len(induced_truncated(t, length))
                predicted = len(induced_predicted(t, length))
                if actual != predicted:
                    ok = False
                if not is_dominant(t) and actual != 0:
                    dominant_zero = False
    out = [
        _result(
            f"truncated-induction-grid-len{n}",
            ok,
            "dimensions match the monomial prediction on |i|,|j| <= 2",
        ),
        _result(
            f"vanishing-off-dominant-len{n}",
            dominant_zero,
            "zero outside the dominant cone",
        ),
    ]
    return out


def _suite_classifier(bounds: dict) -> list[dict]:
    from .simples import ClassifierError, classify, classify_crosscheck
    from .weights import enumerate_lambda, parse_lambda

    n = bounds.get("len", 4)
    # classify validates its expression against the adjacency table, so a
    # ClassifierError fails that table and leaves the label unchecked
    consistent = table_ok = True
    count = 0
    for lam in enumerate_lambda(n):
        count += 1
        try:
            consistent &= classify_crosscheck(lam)["consistent"]
        except ClassifierError:
            consistent = table_ok = False
    out = [
        _result(
            f"crosscheck-len{n}",
            consistent,
            f"{count} words: block dim = canonical rank, characters agree",
        )
    ]
    examples = [
        ("d.Di.d^2", "T2 * S1", 6),
        ("d.Di.d.Di.d^3", "T3 * S2", 12),
        ("d.Di.d^4.Di.d.Di.d.Di.d.Di.d", "T1 * Ri * S3 * T5", 48),
    ]
    ex_ok = True
    for text, want, want_dim in examples:
        expr = classify(parse_lambda(text))
        if expr.render() != want or expr.dim != want_dim:
            ex_ok = False
    out.append(_result("named-examples", ex_ok, "three reference classifications"))
    out.append(
        _result(
            f"adjacency-table-len{n}", table_ok, "every emitted expression passes"
        )
    )
    return out


def _suite_sl2(bounds: dict) -> list[dict]:
    from .simples import sl2_commutation_check, sl2_rank_oracle, transfer_flags

    n = bounds.get("len", 8)
    # the oracle certifies the adjacency table the classifier reads
    ok = all(
        (report["injective"], report["surjective"]) == transfer_flags(a, b)
        for a in range(n + 1)
        for b in range(n + 1)
        for report in (sl2_rank_oracle(a, b, "left"), sl2_rank_oracle(b, a, "right"))
    )
    return [
        _result(
            f"rank-flags-grid-{n}",
            ok,
            "injectivity/surjectivity match the adjacency inequalities",
        ),
        _result(
            "transfer-commutation",
            sl2_commutation_check(4),
            "the two donations into a shared middle commute (degrees <= 4)",
        ),
    ]


def _suite_poset(bounds: dict) -> list[dict]:
    from .comodules import hom_space
    from .standard import build_nabla
    from .weights import LambdaWord, enumerate_lambda, is_saturated, pi_below

    n = bounds.get("len", 4)
    star_ok = mult_ok = saturated = True
    letters = [LambdaWord(("d",)), LambdaWord(("D",)), LambdaWord(("Di",))]
    for lam in enumerate_lambda(n):
        below = pi_below(lam)
        if not is_saturated(below | {lam}):
            saturated = False
        for mu in below:
            if not mu.star().lt1(lam.star()):
                star_ok = False
            for nu in letters:
                if not (nu * mu).lt1(nu * lam) or not (mu * nu).lt1(lam * nu):
                    mult_ok = False
    out = [
        _result(f"below-sets-saturated-len{n}", saturated, "closed under covers"),
        _result(f"star-invariance-len{n}", star_ok, "mu < lam iff mu* < lam*"),
        _result(
            f"translation-invariance-len{n}",
            mult_ok,
            "strict order survives one-letter multiplication on either side",
        ),
    ]
    hom_n = min(n, 3)
    hom_ok = True
    words = list(enumerate_lambda(hom_n))
    nablas = {lam: build_nabla(lam) for lam in words}
    for zeta in words:
        for eta in words:
            if len(hom_space(nablas[zeta], nablas[eta])) > 0:
                if not eta.le1(zeta):
                    hom_ok = False
    out.append(
        _result(
            f"hom-implies-order-len{hom_n}",
            hom_ok,
            "nonzero nabla-homs only point down the refined order",
        )
    )
    return out


SUITES = {
    "confluence": _suite_confluence,
    "hopf": _suite_hopf,
    "layers": _suite_layers,
    "multisets": _suite_multisets,
    "simples": _suite_simples,
    "nab": _suite_nab,
    "induced": _suite_induced,
    "classifier": _suite_classifier,
    "sl2": _suite_sl2,
    "poset": _suite_poset,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_check_suite(names, bounds: dict | None = None) -> list[dict]:
    """Run the named suites and return one result dict per individual check.

    `names` is an iterable of suite names (or the single name "all"); the
    optional `bounds` dict (key "len") rescales each suite's sweep.
    """
    bounds = dict(bounds or {})
    if isinstance(names, str):
        names = [names]
    todo = []
    for name in names:
        if name == "all":
            todo.extend(SUITES)
        elif name in SUITES:
            todo.append(name)
        else:
            raise KeyError(f"unknown check suite {name!r} (have {', '.join(SUITE_NAMES)})")
    results = []
    for name in todo:
        for r in SUITES[name](bounds):
            r = dict(r)
            r["name"] = f"{name}.{r['name']}"
            results.append(r)
    return results
