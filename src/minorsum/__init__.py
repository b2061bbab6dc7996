"""Exact minor-summation and Pfaffian identity toolkit.

Exact linear algebra over the integers, rationals, and multivariate integer
polynomials; determinant and Pfaffian kernels; checkers for a family of
minor-summation and Pfaffian factorization identities; skew Schur
polynomials; and non-intersecting lattice-path counting that exercises the
identities on real instances.
"""

import importlib

from .errors import (
    ConfigError,
    CrossingStepsError,
    ExponentLimitError,
    IndexRangeError,
    InexactDivisionError,
    MinorSumError,
    ParityError,
    RingMismatchError,
    RouteMismatchError,
    ScalarParseError,
    ShapeError,
    SkewSymmetryError,
    StaircaseError,
    UnknownIdentityError,
)
from .ring import (
    QQ,
    ZZ,
    IntegerRing,
    Poly,
    PolynomialRing,
    RationalRing,
    Ring,
    Scalar,
    ring_from_json_tag,
)
from .combinat import (
    IndexSet,
    as_partition,
    inv_word,
    is_horizontal_strip,
    lambda_of,
    subsets,
)
from .matrix import (
    Matrix,
    augment_hat,
    concat_columns,
    det,
    det_bareiss,
    matrix_from_json_dict,
    matrix_to_json_dict,
    outer_product,
    pfaffian,
    pfaffian_bareiss,
    pfaffian_walk,
)
from .identities import (
    IDENTITY_IDS,
    IdentityReport,
    check_ab,
    check_ab2,
    check_byun,
    check_cauchy_binet_pf,
    check_closed_forms,
    check_cor7,
    check_det_pf_square,
    check_iswa,
    check_lemma_aux,
    check_lemma_iswa,
    check_main1,
    check_main2,
    check_okada,
    check_rank1,
    f_AB,
    g_AB,
    minor_sum,
    sign_from_binom2,
    x1_closed_form,
    x2_closed_form,
)
__version__ = "0.1.0"

# The symmetric-function, path and command line modules load on first
# access to one of their names, so that importing the package for the
# identity checkers does not import them, and so that `python -m
# minorsum.cli` does not find the command line module already imported.
# A name, once read, is bound here, so later reads cost no call.
_LAZY = {
    "symfun": ("check_cauchy", "h_complete", "skew_schur", "xy_ring"),
    "paths": ("PathProblem", "count_fixed", "count_free", "count_paths", "lindstrom_matrix"),
    "cli": ("RunReport", "VerifyConfig", "run_verify"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    owner = _LAZY_OWNER.get(name, name)
    if owner not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{owner}")
    if owner == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


__all__ = [
    "ConfigError",
    "CrossingStepsError",
    "ExponentLimitError",
    "IndexRangeError",
    "InexactDivisionError",
    "MinorSumError",
    "ParityError",
    "RingMismatchError",
    "RouteMismatchError",
    "ScalarParseError",
    "ShapeError",
    "SkewSymmetryError",
    "StaircaseError",
    "UnknownIdentityError",
    "QQ",
    "ZZ",
    "IntegerRing",
    "Poly",
    "PolynomialRing",
    "RationalRing",
    "Ring",
    "Scalar",
    "ring_from_json_tag",
    "IndexSet",
    "as_partition",
    "inv_word",
    "is_horizontal_strip",
    "lambda_of",
    "subsets",
    "Matrix",
    "augment_hat",
    "concat_columns",
    "det",
    "det_bareiss",
    "matrix_from_json_dict",
    "matrix_to_json_dict",
    "outer_product",
    "pfaffian",
    "pfaffian_bareiss",
    "pfaffian_walk",
    "IDENTITY_IDS",
    "IdentityReport",
    "check_ab",
    "check_ab2",
    "check_byun",
    "check_cauchy",
    "check_cauchy_binet_pf",
    "check_closed_forms",
    "check_cor7",
    "check_det_pf_square",
    "check_iswa",
    "check_lemma_aux",
    "check_lemma_iswa",
    "check_main1",
    "check_main2",
    "check_okada",
    "check_rank1",
    "f_AB",
    "g_AB",
    "minor_sum",
    "sign_from_binom2",
    "x1_closed_form",
    "x2_closed_form",
    "h_complete",
    "skew_schur",
    "xy_ring",
    "PathProblem",
    "count_fixed",
    "count_free",
    "count_paths",
    "lindstrom_matrix",
    "RunReport",
    "VerifyConfig",
    "run_verify",
    "__version__",
]
