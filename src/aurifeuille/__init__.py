"""Exact arithmetic for cyclotomic polynomials Phi_n, their Gauss factor
pair (A_n, B_n) and Lucas/Aurifeuillian factor pair (C_n, D_n), a rational
power-series cross-check of both constructions, and the resulting integer
factorizations of m^(2n) * n^n +- 1 — including the shortcut that finds
the smaller Aurifeuillian factor by rounding a truncated series.
"""

from .errors import (
    AurifeuilleError,
    BadConstantTerm,
    BadResidueClass,
    InternalInconsistency,
    NegativeTarget,
    NonIntegerStep,
    NonIntegralOracle,
    NotOddSquareFree,
    NotSquareFree,
    NTooSmall,
    RoundingFailed,
)
from .numthy import (
    ClassNumberData,
    NumTheoryContext,
    PellUnit,
    class_number_neg,
    fundamental_unit,
    is_squarefree,
    jacobi,
    make_context,
)
from .poly import IntPolynomial
from .cyclotomic import f_poly, phi_moebius
from .gauss import GaussPair, algorithm_d
from .lucas import LucasPair, algorithm_l, verify_lucas
from .series_oracle import (
    RationalSeries,
    f_series,
    g_series,
    gauss_via_series,
    lucas_via_series,
    series_exp_like,
    series_sqrt,
)
from .factorizer import (
    AurifeuilleResult,
    FactorList,
    factor_by_polynomials,
    factor_by_rounding,
    full_factorization,
    hat_f,
)

__version__ = "0.1.0"
