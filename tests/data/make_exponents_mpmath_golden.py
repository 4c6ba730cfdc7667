"""Write golden/exponents_mpmath_zeta0.42701173523317626pi.json: the stdout of
`xxz exponents` at one space-like point with every complex bare phase taken
from the 40-digit mpmath path integral of make_bare_phase_reference.py.

It patches DressedSet._theta_complex, through which every complex bare phase
went up to commit 4721326, so run it on the src/ of that commit:

    PYTHONPATH=<checkout of 4721326>/src python3 tests/data/make_exponents_mpmath_golden.py

Real arguments keep the program's arctan form. mpmath is needed only here.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path

from make_bare_phase_reference import mp_theta
from xxzchain.cli import run
from xxzchain.dressed import DressedSet

ZETA = "0.42701173523317626pi"
ARGV = [
    "exponents", "--zeta", ZETA, "--q", "0.6892213825918673", "--order", "32",
    "--v", "4.380638060358626", "--rmax", "2", "--bound", "2", "--spin", "0",
]
OUT = Path(__file__).parent / "golden" / f"exponents_mpmath_zeta{ZETA}.json"


def main():
    program_theta = DressedSet._theta_complex
    memo = {}

    def theta(self, z, eta):
        if abs(z.imag) < 1e-14:
            return program_theta(self, z, eta)
        if (z, eta) not in memo:
            memo[z, eta] = mp_theta(z.real, z.imag, eta)
        return memo[z, eta]

    DressedSet._theta_complex = theta
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(ARGV)
    if code != 0:
        raise SystemExit(f"xxz exited {code}")
    OUT.write_text(out.getvalue())
    print(f"wrote {OUT} ({len(memo)} complex phases from mpmath)")


if __name__ == "__main__":
    main()
