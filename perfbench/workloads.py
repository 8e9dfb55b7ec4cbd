"""The four workloads: a fixed list of operations each, and how each
operation's output is checked.

An operation calls the program through module attributes looked up at call
time (``cli.main``, ``factorizer.factor_by_rounding``, ...), so that the
traced run, which rebinds those attributes, sees every call.  The seed
only fixes the order of the operations in a pass and the points the
checks evaluate at; the operations themselves never change, because their
costs differ a thousandfold and a seeded choice would move `wall_s` from
one seed to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import checks
from aurifeuille import cli, factorizer, series_oracle

# (n, m) for `aurif factor N M --json`: every square-free n <= 31 with
# m in {1, 2, 3}.  Twelve of them end with "complete: no" today (see
# README.md) and count as failed operations.
FACTOR_INTEGER = [
    (n, m)
    for n in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30, 31)
    for m in (1, 2, 3)
]
FACTOR_RATIONAL = [(7, "2/5"), (10, "1/2"), (11, "3/2"), (13, "3/2"), (15, "2/3"), (19, "1/3")]

SPLIT_N = (1001, 1501, 2002, 2003, 3001)
SPLIT_M = (1, 7)
SPLIT_RATIONAL_M = Fraction(2, 5)

# Large primes, and n with three to five prime factors.  15015 is left
# out: one phi_moebius(15015) takes longer than the rest of the pass.
VERIFY_N = (1009, 2003, 3001, 1155, 2145, 2310, 3003, 5005)

# Square-free n from 30 to 110, odd and even; the Gauss pair is only
# defined for odd n.
ORACLE_N = (30, 31, 35, 42, 43, 46, 55, 61, 66, 70, 73, 78, 79, 85, 91, 97, 102, 105, 110)

CHECK_POINTS = 3


class Raised(str):
    """The output of an operation that raised: the exception, as text."""


class Operation:
    """One call into the program and the check of its output.

    An operation fails when it raises or when `failed` says so of its
    output (a nonzero exit code of a command)."""

    def __init__(self, label, call, check, failed=lambda output: False):
        self.label = label
        self.call = call
        self._check = check
        self._failed = failed

    def run(self):
        try:
            return self.call()
        except Exception as err:  # a raising operation counts as failed
            return Raised(f"{type(err).__name__}: {err}")

    def failed(self, output) -> bool:
        return isinstance(output, Raised) or bool(self._failed(output))

    def check(self, output, rng: random.Random) -> list[str]:
        if isinstance(output, Raised):
            return [f"{self.label}: raised {output}"]
        try:
            return self._check(output, rng)
        except (ValueError, KeyError, TypeError, IndexError) as err:
            return [f"{self.label}: unreadable output ({type(err).__name__}: {err})"]


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _coeffs(poly_json) -> list[int]:
    if poly_json.get("order") != "ascending":
        raise ValueError("polynomial JSON without ascending order")
    return [int(c) for c in poly_json["coeffs"]]


def _cli_failed(output) -> bool:
    return output[0] != 0


def _factor_op(n: int, m: str) -> Operation:
    argv = ["factor", str(n)]
    argv += ["--rational", m] if "/" in m else [m]
    argv.append("--json")

    def check(output, rng):
        code, text = output
        data = json.loads(text)
        split = data["aurifeuillian"]
        return checks.check_factor(
            n,
            Fraction(m),
            int(data["target"]),
            int(split["F_minus"]),
            int(split["F_plus"]),
            [(int(p), e) for p, e in data["factors"]],
            data["complete"] and code == 0,
        )

    return Operation(f"aurif {' '.join(argv)}", lambda: _run_cli(argv), check, _cli_failed)


def _split_op(route: str, n: int, m) -> Operation:
    def call():
        return getattr(factorizer, route)(n, m)

    def check(result, rng):
        exact = route == "factor_by_polynomials"
        return checks.check_split(
            n,
            Fraction(m),
            result.int_minus,
            result.int_plus,
            Fraction(result.F_minus) if exact else None,
            Fraction(result.F_plus) if exact else None,
            None if exact else checks.exact_value(result.hat_F),
        )

    return Operation(f"{route}({n}, {m})", call, check)


def _verify_op(command: str, n: int) -> Operation:
    argv = [command, str(n), "--json"]

    def check(output, rng):
        code, text = output
        data = json.loads(text)
        points = checks.sample_points(rng, CHECK_POINTS)
        problems = [] if code == 0 else [f"aurif {command} {n}: exit code {code}"]
        if command == "phi":
            problems += checks.check_phi(n, _coeffs(data["phi"]), points)
            return problems
        if data["identity"] is not True:
            problems.append(f"aurif {command} {n}: identity not reported OK")
        if command == "gauss":
            problems += checks.check_gauss(n, _coeffs(data["A"]), _coeffs(data["B"]), points)
        else:
            problems += checks.check_lucas(n, _coeffs(data["C"]), _coeffs(data["D"]), points)
        return problems

    return Operation(f"aurif {' '.join(argv)}", lambda: _run_cli(argv), check, _cli_failed)


def _oracle_op(kind: str, n: int) -> Operation:
    def call():
        return getattr(series_oracle, f"{kind}_via_series")(n)

    def check(pair, rng):
        points = checks.sample_points(rng, CHECK_POINTS)
        if kind == "gauss":
            return checks.check_gauss(
                n, list(reversed(pair.alpha)), list(reversed(pair.beta[1:])), points
            )
        return checks.check_lucas(
            n, list(reversed(pair.gamma)), list(reversed(pair.delta)), points
        )

    return Operation(f"{kind}_via_series({n})", call, check)


def _factor_ops():
    pairs = [(n, str(m)) for n, m in FACTOR_INTEGER] + FACTOR_RATIONAL
    return [_factor_op(n, m) for n, m in pairs]


def _split_ops():
    ops = []
    for n in SPLIT_N:
        for m in SPLIT_M:
            ops.append(_split_op("factor_by_rounding", n, m))
            ops.append(_split_op("factor_by_polynomials", n, m))
        ops.append(_split_op("factor_by_polynomials", n, SPLIT_RATIONAL_M))
    return ops


def _verify_ops():
    ops = []
    for n in VERIFY_N:
        commands = ("phi", "gauss", "lucas") if n % 2 else ("phi", "lucas")
        ops += [_verify_op(command, n) for command in commands]
    return ops


def _oracle_ops():
    ops = []
    for n in ORACLE_N:
        kinds = ("gauss", "lucas") if n % 2 else ("lucas",)
        ops += [_oracle_op(kind, n) for kind in kinds]
    return ops


WORKLOADS = {
    "factor": _factor_ops,
    "split": _split_ops,
    "verify": _verify_ops,
    "oracle": _oracle_ops,
}


def build(name: str, seed: int) -> list[Operation]:
    """The workload's operations in the order the seed fixes."""
    ops = WORKLOADS[name]()
    random.Random(seed).shuffle(ops)
    return ops
