"""Command-line interface.

Subcommands:

  phi N         print Phi_N
  gauss N       print the pair A_N, B_N and check the defining identity
  lucas N       print the pair C_N, D_N and check the defining identity;
                --eval M additionally evaluates the split at x = M^2*N
                from the pair (`LucasPair.split_at`)
  factor N [M]  factor M^(2N) * N^N +- 1 (M defaults to 1; --rational P/Q
                for fractional M); the split comes from the rounding
                route for integer M, the polynomial route for P/Q, and
                each piece is factored by Brent's rho after the primes
                of 2N are divided out
  verify ...    run the identity checks (optionally the series oracle)
                for one n or a range
  classnum N    the class-number/unit data attached to N

Each command computes every pair once: the identity check, the split
evaluation and the oracle comparison all read the pair the command holds.
Exit status is 0 only when every requested check passed.  ``--json``
output is deterministic (sorted keys) and all big integers are rendered
as decimal strings, whatever their number of digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import factorizer, numthy, series_oracle
from .cyclotomic import phi_moebius
from .errors import AurifeuilleError
from .gauss import algorithm_d
from .lucas import algorithm_l


def main(argv: list[str] | None = None) -> int:
    # Targets and split factors can have any number of digits; Python
    # 3.11+ caps int <-> str conversion at 4300 digits by default.  The
    # cap is lifted for this call only, and the caller's is restored.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (AurifeuilleError, ValueError, TypeError, ZeroDivisionError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: building it costs more than a small command.
    parser = argparse.ArgumentParser(
        prog="aurif",
        description="Cyclotomic and Aurifeuillian factor polynomials, "
        "and the integer factorizations they produce.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("phi", help="print the cyclotomic polynomial Phi_N")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_phi)

    p = sub.add_parser("gauss", help="Gauss pair A_N, B_N with identity check")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_gauss)

    p = sub.add_parser("lucas", help="Lucas pair C_N, D_N with identity check")
    p.add_argument("n", type=int)
    p.add_argument(
        "--eval",
        dest="eval_m",
        metavar="M",
        help="also evaluate the split at x = M^2 * N (M integer or P/Q)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_lucas)

    p = sub.add_parser(
        "factor",
        help="factor M^(2N) * N^N +- 1 by its cyclotomic pieces and rho",
    )
    p.add_argument("n", type=int)
    p.add_argument("m", type=int, nargs="?", default=None)
    p.add_argument(
        "--rational",
        metavar="P/Q",
        help="use a rational M = P/Q (polynomial route only)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("verify", help="run the factor-pair identity checks")
    p.add_argument("n", type=int, nargs="?", default=None)
    p.add_argument(
        "--range", dest="bounds", nargs=2, type=int, metavar=("A", "B")
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also compare against the power-series construction",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("classnum", help="class number / fundamental unit data")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_classnum)

    return parser


def _emit_json(data) -> None:
    print(json.dumps(data, sort_keys=True))


def _cmd_phi(args) -> int:
    poly = phi_moebius(args.n)
    if args.json:
        _emit_json({"n": args.n, "phi": poly.to_json_dict()})
    else:
        print(poly.to_text())
    return 0


def _cmd_gauss(args) -> int:
    pair = algorithm_d(args.n)
    ok = pair.identity_holds()
    if args.json:
        _emit_json(
            {
                "n": args.n,
                "A": pair.poly_a().to_json_dict(),
                "B": pair.poly_b().to_json_dict(),
                "identity": ok,
            }
        )
    else:
        print(f"A = {pair.poly_a().to_text()}")
        print(f"B = {pair.poly_b().to_text()}")
        print(f"identity: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_lucas(args) -> int:
    pair = algorithm_l(args.n)
    ok = pair.identity_holds()
    eval_data = None
    if args.eval_m is not None:
        m = factorizer._rational_m(Fraction(args.eval_m))
        scale = m.denominator ** (2 * pair.d)
        lo, hi = pair.split_at(m.numerator, m.denominator)
        eval_data = (m, Fraction(lo, scale), Fraction(hi, scale))
    if args.json:
        data = {
            "n": args.n,
            "C": pair.poly_c().to_json_dict(),
            "D": pair.poly_d().to_json_dict(),
            "identity": ok,
        }
        if eval_data is not None:
            m, lo, hi = eval_data
            data["eval"] = {
                "m": str(m),
                "F_minus": str(lo),
                "F_plus": str(hi),
            }
        _emit_json(data)
    else:
        print(f"C = {pair.poly_c().to_text()}")
        print(f"D = {pair.poly_d().to_text()}")
        print(f"identity: {'OK' if ok else 'FAILED'}")
        if eval_data is not None:
            m, lo, hi = eval_data
            print(f"F_minus = {lo}")
            print(f"F_plus = {hi}")
    return 0 if ok else 1


def _cmd_factor(args) -> int:
    if args.rational is not None and args.m is not None:
        raise ValueError("give either a positional integer M or --rational")
    # `full_factorization` checks m's sign.
    if args.rational is not None:
        m = Fraction(args.rational)
    else:
        m = Fraction(1 if args.m is None else args.m)
    split, factors = factorizer.full_factorization(args.n, m)
    if args.json:
        data = {
            "target": str(factors.target),
            "aurifeuillian": {
                "F_minus": str(split.int_minus),
                "F_plus": str(split.int_plus),
            },
            "factors": [[str(p), e] for p, e in factors.factors],
            "complete": factors.complete,
            "probable": [str(p) for p in factors.probable],
        }
        _emit_json(data)
    else:
        print(f"n = {args.n}, m = {m}, x = {split.x}")
        print(f"target = {factors.target}")
        if split.hat_F is not None:
            print(f"F_hat = {split.hat_F}")
        print(f"F_minus = {split.int_minus}")
        print(f"F_plus = {split.int_plus}")
        rendered = " * ".join(
            str(p) if e == 1 else f"{p}^{e}" for p, e in factors.factors
        )
        print(f"factors: {rendered}")
        print(f"complete: {'yes' if factors.complete else 'no'}")
        probable = ", ".join(str(p) for p in factors.probable)
        print(f"probable primes: {probable or 'none'}")
    return 0 if factors.complete else 1


def _cmd_verify(args) -> int:
    if (args.n is None) == (args.bounds is None):
        raise ValueError("give exactly one of N or --range A B")
    if args.bounds is not None:
        lo, hi = args.bounds
    else:
        lo = hi = args.n
    checked = 0
    failed = 0
    for n in range(max(2, lo), hi + 1):
        if not numthy.is_squarefree(n):
            continue
        lucas_pair = algorithm_l(n)
        failed += not _report(f"n={n} lucas", lucas_pair.identity_holds())
        checked += 1
        if n % 2 and n >= 3:
            gauss_pair = algorithm_d(n)
            failed += not _report(f"n={n} gauss", gauss_pair.identity_holds())
            checked += 1
        if args.oracle:
            if n % 2 and n > 3:
                same = series_oracle.gauss_via_series(n) == gauss_pair
                failed += not _report(f"n={n} gauss-oracle", same)
                checked += 1
            same = series_oracle.lucas_via_series(n) == lucas_pair
            failed += not _report(f"n={n} lucas-oracle", same)
            checked += 1
    print(f"{checked - failed} of {checked} checks passed")
    return 0 if failed == 0 and checked > 0 else 1


def _cmd_classnum(args) -> int:
    n = args.n
    if n % 4 == 3:
        data = numthy.class_number_neg(n)
        if args.json:
            _emit_json(
                {
                    "n": n,
                    "sigma": str(data.sigma),
                    "h": data.h,
                    "w": data.w,
                }
            )
        else:
            print(f"sigma = {data.sigma}")
            print(f"h(-{n}) = {data.h}")
            print(f"w = {data.w}")
    else:
        unit = numthy.fundamental_unit(n)
        if args.json:
            _emit_json({"n": n, "u": str(unit.u), "v": str(unit.v)})
        else:
            print(f"fundamental unit: ({unit.u} + {unit.v}*sqrt({n}))/2")
    return 0


def _report(label: str, ok: bool) -> bool:
    print(f"{label}: {'OK' if ok else 'FAILED'}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
