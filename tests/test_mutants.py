"""Standing mutation checks: each exactness argument keeps a test that fails
when the argument's bound is broken.

Each mutant is one textual edit to `src/aurifeuille`, applied to a copy of
`src/` in a temporary directory.  The ids that must catch it run against
that copy in a fresh interpreter: they pass on the unmutated copy and fail
on the mutant.  A mutant whose text no longer occurs in the source fails
here too, so that a change to the code cannot retire its check silently.
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
}


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


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(tmp_path, name):
    module, before, after, ids = MUTANTS[name]
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    done = _run(src, ids)
    assert done.returncode == 0, done.stdout + done.stderr

    path = src / "aurifeuille" / module
    text = path.read_text()
    assert text.count(before) == 1, f"{name}: {before!r} is not in {module} once"
    path.write_text(text.replace(before, after))
    done = _run(src, ids)
    # 1: tests ran and some failed, as opposed to a collection or usage error.
    assert done.returncode == 1, done.stdout + done.stderr
