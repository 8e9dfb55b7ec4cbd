"""Acceptance suite: one test per stated criterion, each printing a single

    ACCEPTANCE <k> (<label>): PASS|FAIL

line (run pytest with -s to see the lines for passing criteria).  Every
tolerance and range is pinned here, not derived at runtime.
"""

import cmath
import math
import random
from fractions import Fraction
from time import perf_counter

from hypothesis import given, settings, strategies as st

import aurifeuille.lucas as lucas
import aurifeuille.numthy as numthy
from aurifeuille.cyclotomic import f_poly, phi_moebius
from aurifeuille.factorizer import (
    factor_by_polynomials,
    factor_by_rounding,
    full_factorization,
    hat_f,
)
from aurifeuille.gauss import algorithm_d
from aurifeuille.lucas import algorithm_l, verify_lucas
from aurifeuille.numthy import (
    class_number_neg,
    fundamental_unit,
    is_squarefree,
    jacobi,
    make_context,
)
from aurifeuille.poly import IntPolynomial
from aurifeuille.series_oracle import gauss_via_series, lucas_via_series

from _oracles import (
    expand_classes,
    factor_list_product,
    horner,
    phi_bound,
    ratio_estimate,
    squarefree_range,
)


def _run(k, label, body):
    failures = []
    try:
        body(failures)
    except Exception as err:  # the verdict line must print regardless
        failures.append(f"exception {type(err).__name__}: {err}")
    ok = not failures
    print(f"ACCEPTANCE {k} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {k} ({label}): " + "; ".join(failures[:5])


def _desc(coeffs):
    return IntPolynomial.from_descending(coeffs)


def test_criterion_1_reference_coefficients():
    def body(failures):
        start = perf_counter()
        expected = {
            "Phi_15": (phi_moebius(15), _desc([1, -1, 0, 1, -1, 1, 0, -1, 1])),
            "F_14": (
                f_poly(14),
                _desc([1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1]),
            ),
            "A_15": (algorithm_d(15).poly_a(), _desc([2, -1, -4, -1, 2])),
            "B_15": (algorithm_d(15).poly_b(), _desc([1, 0, -1, 0])),
            "C_15": (algorithm_l(15).poly_c(), _desc([1, 8, 13, 8, 1])),
            "D_15": (algorithm_l(15).poly_d(), _desc([1, 3, 3, 1])),
            "C_14": (algorithm_l(14).poly_c(), _desc([1, 7, 3, -7, 3, 7, 1])),
            "D_14": (algorithm_l(14).poly_d(), _desc([1, 2, -1, -1, 2, 1])),
            "A_5": (algorithm_d(5).poly_a(), _desc([2, 1, 2])),
            "B_5": (algorithm_d(5).poly_b(), _desc([1, 0])),
            "A_3": (algorithm_d(3).poly_a(), _desc([2, 1])),
            "C_2": (algorithm_l(2).poly_c(), _desc([1, 1])),
            "D_2": (algorithm_l(2).poly_d(), _desc([1])),
            "C_7": (algorithm_l(7).poly_c(), _desc([1, 3, 3, 1])),
            "D_7": (algorithm_l(7).poly_d(), _desc([1, 1, 1])),
        }
        for name, (got, want) in expected.items():
            if got != want:
                failures.append(f"{name}: got {got}, want {want}")
        elapsed = perf_counter() - start
        if elapsed >= 1.0:
            failures.append(f"runtime {elapsed:.2f}s exceeds 1s budget")

    _run(1, "reference coefficient listings", body)


def test_criterion_2_worked_trace_fidelity():
    def body(failures):
        ctx = make_context(15)
        gq = expand_classes(numthy._ramanujan_classes(ctx.primes, 4), (1,), 4)
        qr = [(gq[k], jacobi(k, 15)) for k in (1, 2, 3, 4)]
        if [q for q, _ in qr] != [1, 1, -2, 1]:
            failures.append(f"gauss q_1..q_4 = {[q for q, _ in qr]}")
        if [r for _, r in qr] != [1, 1, 0, 1]:
            failures.append(f"gauss r_1..r_4 = {[r for _, r in qr]}")
        pair = algorithm_d(15)
        for name, got, want in (
            ("alpha_1", pair.alpha[1], -1),
            ("beta_1", pair.beta[1], 1),
            ("alpha_2", pair.alpha[2], -4),
            ("beta_2", pair.beta[2], 0),
        ):
            if got != want:
                failures.append(f"{name} = {got}, want {want}")
        # Lucas q_k: (15|k) for odd k, residue classes in i = k/2 for even k
        even = expand_classes(*lucas._classes(ctx, 2), 2)
        lq = [jacobi(15, k) if k % 2 else even[k // 2] for k in (1, 2, 3, 4)]
        if lq != [1, -1, 0, 1]:
            failures.append(f"lucas q_1..q_4 = {lq}")
        lpair = algorithm_l(15)
        for name, got, want in (
            ("gamma_1", lpair.gamma[1], 8),
            ("delta_1", lpair.delta[1], 3),
            ("gamma_2", lpair.gamma[2], 13),
        ):
            if got != want:
                failures.append(f"{name} = {got}, want {want}")

    _run(2, "worked-trace fidelity", body)


def test_criterion_3_identity_suites():
    def body(failures):
        start = perf_counter()
        gauss_checked = []
        lucas_checked = []
        for n in range(3, 302, 2):
            if not is_squarefree(n):
                continue
            gauss_checked.append(n)
            if not algorithm_d(n).identity_holds():
                failures.append(f"algorithm_d({n}).identity_holds() failed")
        for n in range(2, 302):
            if not is_squarefree(n):
                continue
            lucas_checked.append(n)
            if not verify_lucas(n):
                failures.append(f"verify_lucas({n}) failed")
        elapsed = perf_counter() - start
        if elapsed > 60.0:
            failures.append(f"runtime {elapsed:.1f}s exceeds 60s budget")
        # The historically fragile regime must actually be in the sweep.
        if 35 not in gauss_checked or 35 not in lucas_checked:
            failures.append("n = 35 was not covered")
        below_180 = [n for n in range(2, 180) if is_squarefree(n)]
        if [n for n in lucas_checked if n < 180] != below_180:
            failures.append("square-free coverage below 180 has gaps")

    _run(3, "identity suites to 301", body)


def test_criterion_4_oracle_equivalence():
    def body(failures):
        for n in range(5, 302, 2):
            if not is_squarefree(n):
                continue
            if gauss_via_series(n) != algorithm_d(n):
                failures.append(f"gauss oracle mismatch at n={n}")
        for n in squarefree_range(2, 301):
            if lucas_via_series(n) != algorithm_l(n):
                failures.append(f"lucas oracle mismatch at n={n}")

    _run(4, "series-oracle equivalence", body)


@settings(max_examples=5)
@given(n=st.sampled_from(squarefree_range(302, 501)))
def test_criterion_4_oracle_draws_to_501(n):
    assert lucas_via_series(n) == algorithm_l(n), f"lucas oracle mismatch at n={n}"
    if n % 2:
        assert gauss_via_series(n) == algorithm_d(n), f"gauss oracle mismatch at n={n}"


def test_criterion_5_truncated_estimate():
    def body(failures):
        windows = (
            (2, 2, "4.89"),
            (2, 32, "1984.98"),
            (5, 3, "1470.99924"),
            (15, 1, "19231.00217"),
        )
        for n, m, printed in windows:
            lo = float(printed)
            step = 10.0 ** -len(printed.split(".")[1])
            value = float(hat_f(n, m))
            if not lo <= value < lo + step:
                failures.append(
                    f"hat({n},{m}) = {value!r} outside [{printed}, +{step})"
                )
        for n in squarefree_range(2, 60):
            for m in (1, 2, 3, 4):
                exact = factor_by_polynomials(n, m)
                rounded = factor_by_rounding(n, m)
                if rounded.F_minus != exact.F_minus:
                    failures.append(
                        f"rounded F- disagrees with exact at n={n}, m={m}"
                    )
                if not (rounded.residual < 0.5):
                    failures.append(
                        f"|hat - F-| = {rounded.residual} at n={n}, m={m}"
                    )

    _run(5, "truncated-series estimate within 1/2", body)


def test_criterion_6_factorization_reproduction():
    def body(failures):
        cases = (
            (2, Fraction(32), 2**22 + 1, ((5, 1), (397, 1), (2113, 1))),
            (
                15,
                Fraction(1),
                15**15 + 1,
                ((2, 4), (31, 1), (211, 1), (1531, 1), (19231, 1), (142111, 1)),
            ),
            (
                7,
                Fraction(2, 5),
                25**7 + 28**7,
                ((29, 1), (43, 1), (53, 1), (296507, 1)),
            ),
        )
        for n, m, target, factors in cases:
            _split, flist = full_factorization(n, m)
            if flist.target != target:
                failures.append(f"target mismatch at n={n}, m={m}")
            if flist.factors != factors:
                failures.append(
                    f"factors at n={n}, m={m}: {flist.factors}"
                )
            if not flist.complete or factor_list_product(flist) != target:
                failures.append(f"product check failed at n={n}, m={m}")

    _run(6, "classical factorizations", body)


def test_criterion_7_class_number_and_unit():
    def body(failures):
        if class_number_neg(15).h != 2:
            failures.append(f"h(-15) = {class_number_neg(15).h}")
        if class_number_neg(3).h != 1:
            failures.append(f"h(-3) = {class_number_neg(3).h}")
        unit = fundamental_unit(5)
        if (unit.u, unit.v) != (3, 1):
            failures.append(f"unit(5) = ({unit.u}, {unit.v})")
        for n in squarefree_range(3, 500):
            if n % 4 != 3:
                continue
            data = class_number_neg(n)
            if n > 3 and data.sigma % n:
                failures.append(f"n = {n} does not divide sigma = {data.sigma}")

    _run(7, "class number and fundamental unit", body)


def test_criterion_8_growth_bounds():
    def body(failures):
        rng = random.Random(870)
        for _ in range(250):
            n = rng.randrange(1, 121)
            radius = 1.0 + rng.uniform(0.02, 24.0)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z = radius * cmath.exp(1j * theta)
            if abs(horner(phi_moebius(n).coeffs, z)) >= phi_bound(n, radius):
                failures.append(f"Phi bound violated at n={n}, R={radius}")
            if n >= 2 and is_squarefree(n):
                n_prime = make_context(n).n_prime
                if abs(horner(f_poly(n).coeffs, z)) >= phi_bound(n_prime, radius):
                    failures.append(f"F bound violated at n={n}, R={radius}")

    _run(8, "growth-bound sampling", body)


def test_criterion_9_ratio_law():
    def body(failures):
        for n, m in ((2, 32), (15, 1), (5, 3)):
            observed, predicted = ratio_estimate(n, m)
            rel = abs(observed - predicted) / predicted
            if rel > 2.0 / n:
                failures.append(
                    f"(n={n}, m={m}): relative gap {rel:.4f} > {2.0 / n:.4f}"
                )

    _run(9, "factor-ratio law at example points", body)
