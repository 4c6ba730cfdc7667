"""Golden regression of `xxz exponents` and `xxz saddles` at two space-like
points, and of the h-mode ground-state commands `xxz solve`, `velocities` and
`strings --rmax 8` at the same two anisotropies with h = h_c / 2.

The exponents and saddles files under tests/data/golden are the stdout of
the code before the saddle scans were hoisted out of the velocity loop; the
solve, velocities and strings files were generated on commit 2d0125f, before
the Nystrom condition number came from the LU (gecon) instead of an explicit
inverse. The q-mode `xxz solve` files (solve_q_*) at the two space-like
points were generated on commit 0d2b44f, before the endpoint values Z(q) and
eps(q) that give h in q mode came from the one Nystrom interpolant. Only the
`thresholds` entries of the saddles files were rewritten, by the first commit
after fa4e8fe, which reads them off the extrema of V_r = eps_r'/p_r' instead
of a bisection on saddle counts (v_inf exactly where V_r is monotone). The
exponents_{timelike,conformal,spin1} files pin the regimes the space-like
tables do not reach, all at the 0.4204pi point: a time-like v = v_F / 2
(kappa_v = -1, hole counts), a v = 1.5 v_inf (Umklapp terms only) and the
space-like v with --spin 1; they were generated on commit 077e5ee, before the
table was assembled in one pass over the occupied saddles. Counts,
row order and integer fields must match exactly; floats must agree to 1e-12
relative (complex pairs by modulus).
"""
import json
from pathlib import Path

import pytest

from xxzchain.cli import run

DATA = Path(__file__).parent / "data" / "golden"
REL = 1e-12

# v = v_F + 0.5 (v_inf - v_F) at order 32, as printed by `xxz solve`
POINTS = {
    "0.4204pi": ["--q", "0.45", "--v", "4.013679514704407"],
    "0.7295pi": ["--q", "0.3", "--v", "1.7766875744773518"],
}
COMMON = ["--order", "32", "--rmax", "2"]
EXTRA = {"exponents": ["--bound", "2"], "saddles": []}

# further regimes at 0.4204pi: v = v_F / 2, v = 1.5 v_inf, --spin 1
REGIMES = {
    "timelike": ["--v", "1.7934807418413727"],
    "conformal": ["--v", "6.6605963185891035"],
    "spin1": ["--v", "4.013679514704407", "--spin", "1"],
}

# h = h_c / 2 = 4 cos(zeta / 2)^2 at the default order 128
GROUND_POINTS = {
    "0.4204pi": ["--h", "2.4949450672604048"],
    "0.7295pi": ["--h", "0.6797344435306228"],
}
GROUND_EXTRA = {"solve": [], "velocities": [], "strings": ["--rmax", "8"]}

INT_KEYS = {
    "ell_plus", "ell_minus", "n0", "n1", "strings", "s_gamma",
    "counts", "n_sp", "carrier", "index", "eps_sign", "minimal",
}
COMPLEX_KEYS = {"omega", "u_value", "C_n"}


def _assert_match(got, want, path="$", exact=False):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            sub = f"{path}.{key}"
            if key in COMPLEX_KEYS and want[key] is not None:
                assert len(got[key]) == len(want[key]) == 2, sub
                g, w = complex(*got[key]), complex(*want[key])
                assert abs(g - w) <= REL * abs(w), (sub, got[key], want[key])
            else:
                _assert_match(got[key], want[key], sub, exact or key in INT_KEYS)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_match(g, w, f"{path}[{i}]", exact)
    elif exact or isinstance(want, (bool, str)) or want is None:
        assert type(got) is type(want) and got == want, (path, got, want)
    else:
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert abs(got - want) <= REL * abs(want), (path, got, want)


@pytest.mark.parametrize("command", ["exponents", "saddles"])
@pytest.mark.parametrize("zeta", sorted(POINTS))
def test_matches_golden(command, zeta, capsys):
    argv = [command, "--zeta", zeta] + POINTS[zeta] + COMMON + EXTRA[command]
    assert run(argv) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / f"{command}_zeta{zeta}.json").read_text())
    _assert_match(got, want)


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_exponent_regimes_match_golden(regime, capsys):
    argv = ["exponents", "--zeta", "0.4204pi", "--q", "0.45"] + REGIMES[regime]
    assert run(argv + COMMON + EXTRA["exponents"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / f"exponents_{regime}_zeta0.4204pi.json").read_text())
    _assert_match(got, want)


def test_exponents_match_mpmath_phases(capsys):
    # written by tests/data/make_exponents_mpmath_golden.py: the program with
    # every complex bare phase from a 40-digit mpmath path integral
    argv = [
        "exponents", "--zeta", "0.42701173523317626pi", "--q", "0.6892213825918673",
        "--order", "32", "--v", "4.380638060358626", "--rmax", "2", "--bound", "2",
        "--spin", "0",
    ]
    assert run(argv) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / "exponents_mpmath_zeta0.42701173523317626pi.json").read_text())
    _assert_match(got, want)


@pytest.mark.parametrize("command", sorted(GROUND_EXTRA))
@pytest.mark.parametrize("zeta", sorted(GROUND_POINTS))
def test_ground_state_matches_golden(command, zeta, capsys):
    argv = [command, "--zeta", zeta] + GROUND_POINTS[zeta] + GROUND_EXTRA[command]
    assert run(argv) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / f"{command}_zeta{zeta}.json").read_text())
    _assert_match(got, want)


@pytest.mark.parametrize("zeta", sorted(POINTS))
def test_q_mode_solve_matches_golden(zeta, capsys):
    argv = ["solve", "--zeta", zeta] + POINTS[zeta][:2] + ["--order", "32"]
    assert run(argv) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / f"solve_q_zeta{zeta}.json").read_text())
    _assert_match(got, want)
