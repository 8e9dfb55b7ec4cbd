"""Standing mutation checks: each exactness argument keeps a test that fails
when the argument's bound is broken.

Each mutant is one textual edit to `src/aurifeuille`, applied to a copy of
`src/` in a temporary directory.  The ids that must catch it run against
that copy in a fresh interpreter and fail there.  Every id passes on an
unmutated copy, checked once for the module in one run of all of them.
A mutant whose text no longer occurs in the source fails here too, so
that a change to the code cannot retire its check silently.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LAMBDA_SUM_ACROSS_LEAVES = (
    "tests/test_factorizer.py::test_lambda_sum_is_the_floor_of_the_exact_sum_across_leaves"
)

MUTANTS = {
    "four-point-width-one-byte-short": (
        "poly.py",
        "self.width = bound.bit_length() // 8 + 1",
        "self.width = bound.bit_length() // 8",
        ["tests/test_poly.py::test_mul_at_the_slot_bound"],
    ),
    "zero-test-reads-only-plus-minus-x": (
        "poly.py",
        "return not any(x)",
        "return not any(x[:2])",
        ["tests/test_poly.py::test_identity_check_needs_the_points_plus_and_minus_i_x"],
    ),
    "h2-shift-one-bit-short": (
        "poly.py",
        "(even - re) >> (2 * quarter + 1)",
        "(even - re) >> (2 * quarter)",
        ["tests/test_poly.py::test_kronecker_binary_branch_matches_schoolbook"],
    ),
    "pair-blocks-trailing-block-full-span": (
        "poly.py",
        "last = y ** (count - _EVAL_LEAF * (len(blocks) - 1))",
        "last = y ** _EVAL_LEAF",
        [LAMBDA_SUM_ACROSS_LEAVES],
    ),
    "pair-blocks-denominators-swapped": (
        "poly.py",
        "tops[i] * (dens[i + 1] * (last if i + 1 == end else yspan))\n"
        "            + tops[i + 1] * (dens[i] * xspan)",
        "tops[i] * (dens[i] * (last if i + 1 == end else yspan))\n"
        "            + tops[i + 1] * (dens[i + 1] * xspan)",
        [LAMBDA_SUM_ACROSS_LEAVES],
    ),
    "cyclotomic-indices-even-n-times-two": (
        "factorizer.py",
        "c = ctx.n_prime // odd[-1]",
        "c = min(ctx.n_prime // odd[-1], 2)",
        ["tests/test_factorizer.py::test_cyclotomic_indices_are_the_divisors_of_n_prime_below_2000"],
    ),
    "base-10-width-one-digit-short": (
        "poly.py",
        "self.width = _DECIMAL.create_decimal(2 * bound).adjusted() + 1",
        "self.width = _DECIMAL.create_decimal(2 * bound).adjusted()",
        ["tests/test_poly.py::test_mul_at_the_slot_bound_above_the_cutoff"],
    ),
    "feed-slot-bound-halved": (
        "numthy.py",
        "slots = _layout(size * top * (max(map(abs, pb)) or 1), size)",
        "slots = _layout(size * top * (max(map(abs, pb)) or 1) // 2, size)",
        ["tests/test_numthy.py::test_feed_at_its_slot_bound"],
    ),
    "feed-slot-bound-takes-only-u": (
        "numthy.py",
        "top = max(max(map(abs, ub)), max(map(abs, vb)), 1)",
        "top = max(max(map(abs, ub)), 1)",
        ["tests/test_numthy.py::test_feed_bound_takes_the_wider_of_u_and_v"],
    ),
    "pm1-stage-1-without-the-l-seed": (
        "factorizer.py",
        "a = pow(2, k * _pm1_powers(), n)",
        "a = pow(2, _pm1_powers(), n)",
        ["tests/test_factorizer.py::test_pm1_finds_the_prime_whose_p_minus_1_is_b2_smooth"],
    ),
    "pm1-without-stage-2": (
        "factorizer.py",
        "        (_RHO_LEG, _PM1_STAGE2_PRODUCTS, _pm1_stage2),\n",
        "",
        ["tests/test_factorizer.py::test_pm1_splits_31_2_after_one_leg_of_rho"],
    ),
    "series-sqrt-scale-one-factor-of-2-short": (
        "series_oracle.py",
        "scale = 2  # 2^(2k-1) e^(k-1)",
        "scale = 1  # 2^(2k-1) e^(k-1)",
        ["tests/test_series_oracle.py::test_sqrt_of_cyclotomic_15"],
    ),
    "odd-sieve-leaves-prime-squares": (
        "factorizer.py",
        "start = p * p // 2",
        "start = p * p // 2 + p",
        ["tests/test_factorizer.py::test_pm1_plan_pairs_every_prime_of_stage_2_once"],
    ),
    "fundamental-unit-norm-minus-4-not-squared": (
        "numthy.py",
        "u, v = (u * u + n * v * v) // 2, u * v",
        "pass",
        ["tests/test_numthy.py::test_fundamental_unit_examples"],
    ),
}


def _copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def _run(src: Path, ids: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--hypothesis-profile=mutants", *ids,
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def catching_ids_pass(tmp_path_factory):
    """Every id that catches a mutant, run once on an unmutated copy."""
    src = _copy_src(tmp_path_factory.mktemp("unmutated") / "src")
    ids = sorted({i for *_, catching in MUTANTS.values() for i in catching})
    done = _run(src, ids)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(tmp_path, catching_ids_pass, name):
    module, before, after, ids = MUTANTS[name]
    src = _copy_src(tmp_path / "src")
    path = src / "aurifeuille" / module
    text = path.read_text()
    assert text.count(before) == 1, f"{name}: {before!r} is not in {module} once"
    path.write_text(text.replace(before, after))
    done = _run(src, ids)
    # 1: tests ran and some failed, as opposed to a collection or usage error.
    assert done.returncode == 1, done.stdout + done.stderr
