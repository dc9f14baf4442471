"""Exact symbolic engine for the universal quantum group of 2x2 matrices.

The package is organized bottom up:

  linalg     sparse vectors {key: coefficient} and the one accumulate()
             that adds into them, and the one fraction-free elimination,
             which hands back sparse Fraction vectors (rref alone writes
             dense rows)
  weights    the weight monoid Lambda, its star involutions and two orders,
             and the one scanner and printer of letter^exponent words
  ncalg      free algebra on a, b, c, d, D, Di with the defining rewrite
             system, normal forms, and the Hopf structure
  comodules  finite dimensional right comodules and maps between them
  standard   the named comodules V, R, S^yV, T^yV, M, nabla, Delta, L
  borel      Borel and torus quotients, semi-invariants, truncated induction
  simples    the block classifier for simple comodules and its sl2 oracle
  checks     named verification suites used by the command line tool
  cli        command line entry point (installed as `ncgl2`)
"""

from .ncalg import (
    NCElement,
    antipode,
    antipode_inv,
    coproduct,
    counit,
    enumerate_basis,
    gen,
    normal_form,
    parse_expression,
    render_element,
    ExprSyntaxError,
)
from .weights import (
    LambdaWord,
    LambdaSyntaxError,
    Weight,
    enumerate_lambda,
    parse_lambda,
    parse_weight,
    pi_below,
)
from .comodules import (
    Comodule,
    ComoduleMap,
    VerificationError,
    are_isomorphic,
    hom_space,
    left_dual,
    tensor,
    weight_decomposition,
)
from .standard import (
    build_L,
    build_M,
    build_R,
    build_SymV,
    build_TV,
    build_V,
    build_delta,
    build_nabla,
    canonical_map,
    delta_multiset,
    nabla_multiset,
)
from .borel import (
    BOREL_LOWER,
    BOREL_UPPER,
    induced_truncated,
    psi,
    semi_invariants,
)
from .simples import BlockExpression, classify, sl2_rank_oracle
from .checks import run_check_suite

__all__ = [
    "NCElement",
    "antipode",
    "antipode_inv",
    "coproduct",
    "counit",
    "enumerate_basis",
    "gen",
    "normal_form",
    "parse_expression",
    "render_element",
    "ExprSyntaxError",
    "LambdaWord",
    "LambdaSyntaxError",
    "Weight",
    "enumerate_lambda",
    "parse_lambda",
    "parse_weight",
    "pi_below",
    "Comodule",
    "ComoduleMap",
    "VerificationError",
    "are_isomorphic",
    "hom_space",
    "left_dual",
    "tensor",
    "weight_decomposition",
    "build_L",
    "build_M",
    "build_R",
    "build_SymV",
    "build_TV",
    "build_V",
    "build_delta",
    "build_nabla",
    "canonical_map",
    "delta_multiset",
    "nabla_multiset",
    "BOREL_LOWER",
    "BOREL_UPPER",
    "induced_truncated",
    "psi",
    "semi_invariants",
    "BlockExpression",
    "classify",
    "sl2_rank_oracle",
    "run_check_suite",
]
