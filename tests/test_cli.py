"""The aurif command-line interface, driven through main(argv)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aurifeuille
from aurifeuille import cli, factorizer, gauss, lucas
from aurifeuille.cli import main

from _counting import count_calls


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_text(capsys):
    code, out, err = run(capsys, "phi", "1")
    assert code == 0 and err == ""
    assert out == "x - 1\n"
    code, out, _ = run(capsys, "phi", "15")
    assert out == "x^8 - x^7 + x^5 - x^4 + x^3 - x + 1\n"


def test_phi_json(capsys):
    code, out, _ = run(capsys, "phi", "12", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "n": 12,
        "phi": {"order": "ascending", "coeffs": ["1", "0", "-1", "0", "1"]},
    }


def test_phi_json_many_primes(capsys):
    code, out, _ = run(capsys, "phi", "15015", "--json")
    assert code == 0
    assert len(json.loads(out)["phi"]["coeffs"]) == 5761  # phi(15015) + 1


def test_gauss_text(capsys):
    code, out, _ = run(capsys, "gauss", "15")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A = 2*x^4 - x^3 - 4*x^2 - x + 2"
    assert lines[1] == "B = x^3 - x"
    assert lines[2] == "identity: OK"


def test_lucas_text_and_eval(capsys):
    code, out, _ = run(capsys, "lucas", "15")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "C = x^4 + 8*x^3 + 13*x^2 + 8*x + 1"
    assert lines[1] == "D = x^3 + 3*x^2 + 3*x + 1"
    assert lines[2] == "identity: OK"

    code, out, _ = run(capsys, "lucas", "15", "--eval", "1")
    assert code == 0
    assert "F_minus = 19231" in out
    assert "F_plus = 142111" in out

    code, out, _ = run(capsys, "lucas", "7", "--eval", "2/5")
    assert code == 0
    assert "F_minus = 1247/15625" in out


def test_lucas_json_eval(capsys):
    code, out, _ = run(capsys, "lucas", "2", "--eval", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["C"] == {"order": "ascending", "coeffs": ["1", "1"]}
    assert data["D"] == {"order": "ascending", "coeffs": ["1"]}
    assert data["identity"] is True
    assert data["eval"] == {"m": "2", "F_minus": "5", "F_plus": "13"}


def test_factor_text(capsys):
    code, out, _ = run(capsys, "factor", "2", "32")
    assert code == 0
    lines = out.splitlines()
    assert "target = 4194305" in lines
    assert "F_minus = 1985" in lines
    assert "F_plus = 2113" in lines
    assert "factors: 5 * 397 * 2113" in lines
    assert "complete: yes" in lines
    assert any(line.startswith("F_hat = 1984.98") for line in lines)


def test_factor_json_classical_example(capsys):
    code, out, _ = run(capsys, "factor", "2", "32", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "aurifeuillian": {"F_minus": "1985", "F_plus": "2113"},
        "complete": True,
        "factors": [["5", 1], ["397", 1], ["2113", 1]],
        "probable": [],
        "target": "4194305",
    }


def test_factor_json_roundtrips_bytewise(capsys):
    code, out, _ = run(capsys, "factor", "15", "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    data = json.loads(out)
    assert data["factors"] == [
        ["2", 4],
        ["31", 1],
        ["211", 1],
        ["1531", 1],
        ["19231", 1],
        ["142111", 1],
    ]


# The `aurif factor N M --json` commands of the benchmark's `factor`
# workload: every square-free n <= 31 with m = 1, 2, 3, and six rational m.
FACTOR_ARGVS = [
    ["factor", str(n), str(m), "--json"]
    for n in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30, 31)
    for m in (1, 2, 3)
] + [
    ["factor", str(n), "--rational", m, "--json"]
    for n, m in ((7, "2/5"), (10, "1/2"), (11, "3/2"), (13, "3/2"), (15, "2/3"), (19, "1/3"))
]


def test_factor_workload_outputs_are_pinned(capsys):
    # Factor lists, `complete`, `probable` and the exit codes of all 63,
    # as one sha256 over "label, exit code, stdout" in label order.
    outputs = []
    for argv in FACTOR_ARGVS:
        code, out, _ = run(capsys, *argv)
        outputs.append(f"aurif {' '.join(argv)}\n{code}\n{out}")
    assert len(outputs) == 63
    digest = hashlib.sha256("".join(sorted(outputs)).encode()).hexdigest()
    assert digest == "42b2685a802de37607a8f8993bf3fbede4ea61eee1dc757fbe8ca4452edfe917"


def test_factor_rational(capsys):
    code, out, _ = run(capsys, "factor", "7", "--rational", "2/5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["target"] == str(25**7 + 28**7)
    assert data["factors"] == [["29", 1], ["43", 1], ["53", 1], ["296507", 1]]
    assert data["aurifeuillian"] == {"F_minus": "1247", "F_plus": "296507"}


def test_factor_rational_excludes_positional_m(capsys):
    code, out, err = run(capsys, "factor", "7", "2", "--rational", "2/5")
    assert code == 2
    assert out == ""
    assert "error: ValueError" in err


@pytest.mark.parametrize(
    "argv", [("lucas", "7", "--eval", "0"), ("factor", "7", "--rational", "0/1")]
)
def test_m_below_one_is_refused_with_one_message(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error: ValueError: need m > 0" in err


def test_factor_incomplete_sets_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(factorizer, "RHO_STEP_LIMIT", 0)
    code, out, _ = run(capsys, "factor", "15")
    assert code == 1
    assert "complete: no" in out


def test_factor_completes_with_primes_past_a_million(capsys):
    code, out, _ = run(capsys, "factor", "23")
    assert code == 0
    lines = out.splitlines()
    assert "complete: yes" in lines
    assert "probable primes: none" in lines
    factors = next(line for line in lines if line.startswith("factors: "))
    assert {"1641281", "1522029233"} <= set(factors[9:].split(" * "))


def test_factor_lists_probable_primes(capsys):
    code, out, _ = run(capsys, "factor", "23", "--rational", "3/2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["complete"] is True
    assert data["probable"] == ["15271241147628528180233497"]
    assert ["15271241147628528180233497", 1] in data["factors"]


def test_factor_default_m_is_one(capsys):
    code, out, _ = run(capsys, "factor", "5")
    assert code == 0
    assert "target = 3124" in out
    assert "factors: 2^2 * 11 * 71" in out


def test_factor_negative_target_is_refused(capsys):
    code, out, err = run(capsys, "factor", "5", "--rational", "2/5")
    assert code == 2 and out == ""
    assert "error: NegativeTarget" in err


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["gauss", "15"], (1, 0)),
        (["lucas", "15", "--eval", "1"], (0, 1)),
        (["verify", "15", "--oracle"], (1, 1)),
        (["factor", "15", "1"], (0, 0)),
        (["factor", "7", "--rational", "2/5"], (0, 1)),
    ],
)
def test_each_recurrence_runs_once_per_command(capsys, monkeypatch, argv, runs):
    d_calls = count_calls(monkeypatch, gauss, "algorithm_d")
    l_calls = count_calls(monkeypatch, lucas, "algorithm_l")
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert (len(d_calls), len(l_calls)) == runs


@pytest.mark.parametrize(
    "argv, routes",
    [
        (["factor", "15", "1"], (1, 0)),
        (["factor", "7", "--rational", "2/5"], (0, 1)),
    ],
)
def test_factor_builds_one_split(capsys, monkeypatch, argv, routes):
    # Integer m takes the split from the rounding route alone, rational m
    # from the polynomial route alone.  The rounding route is counted at
    # `_rounding_split`, which `full_factorization` calls with the F_n it
    # builds among its pieces and `factor_by_rounding` wraps.
    rounding = count_calls(monkeypatch, factorizer, "_rounding_split")
    polynomials = count_calls(monkeypatch, factorizer, "factor_by_polynomials")
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert (len(rounding), len(polynomials)) == routes


@pytest.fixture
def uncapped_int_str():
    """Lift the int <-> str digit cap for the test, where Python has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(before)


def test_lucas_eval_prints_integers_past_4300_digits(capsys, uncapped_int_str):
    code, out, err = run(
        capsys, "lucas", "401", "--eval", "10000000000", "--json"
    )
    assert code == 0 and err == ""
    data = json.loads(out)
    lo, hi = data["eval"]["F_minus"], data["eval"]["F_plus"]
    assert len(lo) > 4300 and len(hi) > 4300
    # 401 is a prime = 1 (mod 4), so F_401 = Phi_401 = (x^401 - 1)/(x - 1).
    # Reading the digits back needs the cap lifted here too: `main`
    # restores the caller's cap when it returns.
    x = 10**20 * 401
    assert int(lo) * int(hi) == (x**401 - 1) // (x - 1)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this Python does not cap int <-> str conversion",
)
@pytest.mark.parametrize("limit", [0, 640, sys.int_info.default_max_str_digits])
def test_main_restores_the_callers_int_str_cap(capsys, limit):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code, out, _ = run(capsys, "lucas", "401", "--eval", "10000000000", "--json")
        assert code == 0 and len(out) > 8600
        assert sys.get_int_max_str_digits() == limit
        with pytest.raises(SystemExit):
            main(["factor"])
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(before)


def run_fresh(*statements):
    """Run the statements in a fresh interpreter that imports the package
    under test; return its exit code and standard error."""
    src = str(Path(aurifeuille.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", "; ".join(statements)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stderr


def test_no_command_loads_mpmath():
    # A fresh interpreter: the rounding route computes its estimate in
    # integer fixed point, so factoring at integer m, as text or JSON,
    # loads mpmath no more than verifying identities does.
    code, err = run_fresh(
        "import sys",
        "from aurifeuille.cli import main",
        "assert main(['verify', '15']) == 0",
        "assert main(['factor', '7', '2', '--json']) == 0",
        "assert main(['factor', '7', '2']) == 0",
        "assert 'mpmath' not in sys.modules",
    )
    assert code == 0, err


def test_estimate_prints_under_the_default_digit_cap():
    # F- at n = 3001 has 17326 bits, far past Python's default cap of
    # 4300 digits for int <-> str; str(hat_F) reads only 20 digits.
    code, err = run_fresh(
        "import sys",
        "from aurifeuille.factorizer import factor_by_rounding",
        "assert getattr(sys, 'get_int_max_str_digits', lambda: 4300)() == 4300",
        "text = str(factor_by_rounding(3001, 1).hat_F)",
        "assert text == '2.9155653298823591164e+5215', text",
    )
    assert code == 0, err


def test_commands_load_neither_dataclasses_nor_mpmath():
    # Start-up stays free of the dataclasses import and its code
    # generation, and of mpmath, on every route that does not round.
    # (inspect is not checked: Python 3.13's standard library loads it.)
    commands = [
        ["phi", "105"],
        ["gauss", "105"],
        ["lucas", "105", "--json"],
        ["verify", "105"],
        ["factor", "7", "--rational", "2/5", "--json"],
    ]
    code, err = run_fresh(
        "import sys",
        "import aurifeuille",
        "from aurifeuille.cli import main",
        f"assert [main(argv) for argv in {commands!r}] == [0] * {len(commands)}",
        "assert 'dataclasses' not in sys.modules, 'dataclasses'",
        "assert 'mpmath' not in sys.modules, 'mpmath'",
    )
    assert code == 0, err


def test_verify_single_and_range(capsys):
    code, out, _ = run(capsys, "verify", "15")
    assert code == 0
    lines = out.splitlines()
    assert "n=15 lucas: OK" in lines
    assert "n=15 gauss: OK" in lines
    assert lines[-1] == "2 of 2 checks passed"

    # Square-free n in [2, 10]: lucas for 2, 3, 5, 6, 7, 10 and gauss
    # for 3, 5, 7 — nine checks.
    code, out, _ = run(capsys, "verify", "--range", "2", "10")
    assert code == 0
    assert out.splitlines()[-1] == "9 of 9 checks passed"


def test_verify_oracle(capsys):
    code, out, _ = run(capsys, "verify", "--range", "5", "7", "--oracle")
    assert code == 0
    lines = out.splitlines()
    assert "n=5 gauss-oracle: OK" in lines
    assert "n=5 lucas-oracle: OK" in lines
    assert "n=6 lucas-oracle: OK" in lines
    assert "n=7 gauss-oracle: OK" in lines
    assert lines[-1] == "10 of 10 checks passed"


def test_verify_requires_exactly_one_selector(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "ValueError" in err
    code, _, err = run(capsys, "verify", "9", "--range", "2", "5")
    assert code == 2 and "ValueError" in err


def test_verify_empty_range_fails(capsys):
    # A range with no square-free members checks nothing and must not
    # report success.
    code, out, _ = run(capsys, "verify", "--range", "8", "9")
    assert code == 1
    assert out.splitlines()[-1] == "0 of 0 checks passed"


def test_classnum_residue_three(capsys):
    code, out, _ = run(capsys, "classnum", "15")
    assert code == 0
    lines = out.splitlines()
    assert "sigma = -30" in lines
    assert "h(-15) = 2" in lines
    assert "w = 2" in lines
    code, out, _ = run(capsys, "classnum", "3", "--json")
    data = json.loads(out)
    assert data == {"h": 1, "n": 3, "sigma": "-1", "w": 6}


def test_classnum_unit(capsys):
    code, out, _ = run(capsys, "classnum", "5")
    assert code == 0
    assert out == "fundamental unit: (3 + 1*sqrt(5))/2\n"
    code, out, _ = run(capsys, "classnum", "13", "--json")
    assert json.loads(out) == {"n": 13, "u": "11", "v": "3"}
    code, out, _ = run(capsys, "classnum", "97", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 97, "u": "125619266", "v": "12754704"}


def test_classnum_rejects_even_unit_case(capsys):
    code, _, err = run(capsys, "classnum", "2")
    assert code == 2
    assert "BadResidueClass" in err


def test_errors_are_reported_not_raised(capsys):
    code, _, err = run(capsys, "phi", "0")
    assert code == 2 and err.startswith("error: ValueError")
    code, _, err = run(capsys, "gauss", "14")
    assert code == 2 and "NotOddSquareFree" in err
    code, _, err = run(capsys, "lucas", "12")
    assert code == 2 and "NotSquareFree" in err
    code, _, err = run(capsys, "factor", "12")
    assert code == 2 and "NotSquareFree" in err


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


CONSECUTIVE = [
    ["lucas", "15", "--eval", "2/5", "--json"],
    ["phi", "12"],
    ["factor", "7", "2", "--json"],
    ["gauss", "15"],
    ["verify", "--range", "2", "12"],
    ["factor", "11", "--rational", "3/2"],
    ["verify", "21"],
    ["lucas", "15"],
    ["classnum", "7", "--json"],
]


def test_consecutive_calls_give_the_outputs_of_fresh_calls(capsys):
    # The parser is built once per process; each call must still parse
    # from the defaults, with nothing left over from the call before.
    fresh = []
    for argv in CONSECUTIVE:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [run(capsys, *argv) for argv in CONSECUTIVE] == fresh
    assert [run(capsys, *argv) for argv in reversed(CONSECUTIVE)] == fresh[::-1]


def test_bad_arguments_exit_with_argparse_errors_after_good_calls(capsys):
    run(capsys, "phi", "12")
    for argv in (["frobnicate"], ["phi", "twelve"], ["verify", "--range", "2"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: aurif") and "error:" in err
    assert run(capsys, "phi", "12") == (0, "x^4 - x^2 + 1\n", "")
