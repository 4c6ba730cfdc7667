"""Set functions of explicit rapidity sets: oracles for the exponent tables.

A `RapiditySet` lists the holes, particles and string rapidities of one
excited state. `excitation_energy_momentum` sums its dressed energy and
momentum, `theta_upsilon` its boundary exponents from the dressed phases,
and `conformal_exponent` gives the closed form of the pure-Umklapp states.
The tests hold `xxzchain.assembler` and the acceptance criteria to them.

`sign_im_u_at_infinity` integrates the tail of u_r' for the sign of Im u_r
far out on a line Im lam = y, and `expected_sign_at_infinity` tabulates that
sign for the three velocity regimes; the saddle tests hold them together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import pi

import numpy as np

from xxzchain.assembler import REAL_TOL, _realize
from xxzchain.errors import SignInconsistencyError, ValidationError
from xxzchain.quadrature import _legendre_rule
from xxzchain.saddles import u_r, v_infinity
from xxzchain.strings import string_exists

ASYMPTOTIC_PROBE_X = 12.0


@dataclass(frozen=True)
class RapiditySet:
    """Rapidities of one excited state, gathered as a set function input.

    ``particles`` are fundamental-species rapidities (real outside the
    Fermi zone or on the line Im = pi/2); ``strings`` maps r >= 2 to the
    rapidities of r-bound states on their carrier line.
    """

    s_gamma: int
    ell_plus: int
    ell_minus: int
    holes: tuple = ()
    particles: tuple = ()
    strings: tuple = ()

    def string_items(self):
        return [(r, tuple(vals)) for r, vals in self.strings]


def _check_domains(Y: RapiditySet, ds) -> None:
    for mu in Y.holes:
        if abs(complex(mu).imag) > REAL_TOL:
            raise ValidationError(f"hole rapidity must be real: {mu!r}")
    for nu in Y.particles:
        im = complex(nu).imag
        if min(abs(im), abs(im - math.pi / 2)) > REAL_TOL:
            raise ValidationError(f"particle rapidity off its carrier lines: {nu!r}")
    for r, vals in Y.string_items():
        spec = string_exists(r, ds.zeta)
        for nu in vals:
            if abs(complex(nu).imag - spec.line_im) > REAL_TOL:
                raise ValidationError(
                    f"{r}-string rapidity off the line Im = {spec.line_im!r}: {nu!r}"
                )


def conformal_rapidity_set(ell: int, s_gamma: int = 0) -> RapiditySet:
    """Pure-Umklapp state labelled so that theta_upsilon closes as
    ell*Z(q) - upsilon*s_gamma/(2 Z(q)).

    The label ell runs over all integers, so the family is invariant
    under ell -> -ell; this particular assignment of the deficiencies
    (ell_+ = s_gamma - ell, ell_- = ell) is the one for which the
    closed-form exponent carries +ell*Z(q).
    """
    return RapiditySet(s_gamma=s_gamma, ell_plus=s_gamma - ell, ell_minus=ell)


def excitation_energy_momentum(Y: RapiditySet, v: float, ds):
    """(E, P, U) of the excited state Y at velocity ratio v.

    E and P are the dressed energy and momentum totals relative to the
    ground state; U = P - E/v - pi*s collects the reduced phase whose
    stationary points drive the saddle analysis.
    """
    if v == 0:
        raise ValidationError("velocity ratio v must be nonzero")
    _check_domains(Y, ds)
    E = 0.0 + 0.0j
    P = 0.0 + 0.0j
    for nu in Y.particles:
        E += complex(ds.eps_r(nu, 1))
        P += complex(ds.p_r(nu, 1))
    for r, vals in Y.string_items():
        for nu in vals:
            E += complex(ds.eps_r(nu, r))
            P += complex(ds.p_r(nu, r))
    for mu in Y.holes:
        E -= complex(ds.eps_r(mu, 1))
        P -= complex(ds.p_r(mu, 1))
    P += ds.p_F * (Y.ell_plus - Y.ell_minus) + math.pi * Y.s_gamma
    U = P - E / v - math.pi * Y.s_gamma
    E_out = _realize(E, "excitation energy")
    P_out = _realize(P, "excitation momentum")
    return E_out, P_out, complex(U)


def shift_exponent(omega, Y: RapiditySet, ds) -> float:
    """theta(omega | Y): the boundary exponent kernel of the state Y.

    Sum of dressed phases seen from omega -- holes enter with +phi_1,
    particles and strings with -phi_r, the Umklapp deficiencies through
    the endpoint phases, and the operator spin through Z(omega)/2.
    """
    _check_domains(Y, ds)
    val = 0.0 + 0.0j
    for mu in Y.holes:
        val += ds.phi(1, omega, mu)
    val += 0.5 * Y.s_gamma * complex(ds.Z(omega))
    for nu in Y.particles:
        val -= ds.phi(1, omega, nu)
    for r, vals in Y.string_items():
        for nu in vals:
            val -= ds.phi(r, omega, nu)
    for upsilon, ell in ((1, Y.ell_plus), (-1, Y.ell_minus)):
        if ell:
            val -= ell * ds.phi(1, omega, upsilon * ds.q)
    if abs(complex(omega).imag) < REAL_TOL:
        return _realize(val, "shift exponent at real omega")
    return complex(val)


def theta_upsilon(Y: RapiditySet, upsilon: int, ds) -> float:
    """Critical exponent of the Fermi boundary upsilon*q for the state Y."""
    if upsilon not in (1, -1):
        raise ValidationError(f"upsilon must be +1 or -1: {upsilon}")
    ell = Y.ell_plus if upsilon == 1 else Y.ell_minus
    return shift_exponent(upsilon * ds.q, Y, ds) - upsilon * ell


def conformal_exponent(ell: int, s_gamma: int, upsilon: int, ds) -> float:
    """Closed form ell*Z(q) - upsilon*s_gamma / (2 Z(q))."""
    Zq = float(ds.Z(ds.q))
    return ell * Zq - upsilon * s_gamma / (2.0 * Zq)


def sign_im_u_at_infinity(r: int, v: float, y: float, side: int,
                          ds) -> int:
    """Numerical sign of Im u_r at lam = side*12 + i y."""
    if side not in (1, -1):
        raise ValidationError("side must be +1 or -1")
    if not (-pi / 2 < y < pi / 2):
        raise ValidationError("y must lie in (-pi/2, pi/2)")
    # Im u_r vanishes at Re(lam) -> +-inf, so the imaginary part at the probe
    # is (minus) the tail integral of u_r'; u_r' is exact up to roundoff,
    # which keeps the exponentially small tail sign-resolvable.
    x0 = ASYMPTOTIC_PROBE_X
    species = max(r, 1)
    tail = 0.0 + 0.0j
    edges = [x0, x0 + 3, x0 + 8, x0 + 15, x0 + 25]
    nodes, wts = _legendre_rule(32)
    for a, b in zip(edges, edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        pts = side * (mid + half * nodes) + 1j * y
        vals = np.asarray(u_r(pts, v, species, ds, 1))
        tail += side * half * np.sum(wts * vals)
    im = -float(np.imag(tail))
    if abs(im) < 1e-30:
        raise SignInconsistencyError(
            f"Im u_{r} = {im:.3e} at probe x = {side * x0}: inconclusive"
        )
    return 1 if im > 0 else -1


def expected_sign_at_infinity(r: int, v: float, y: float, side: int,
                              ds, vinf: float | None = None) -> int:
    """Tabulated asymptotic sign of Im u_r for the three velocity regimes."""
    vinf = v_infinity(ds) if vinf is None else vinf
    base = math.sin(r * ds.zeta) * math.sin(2 * y)
    if base == 0:
        raise ValidationError("degenerate table entry: sin(r zeta) sin(2y) = 0")
    s = 1 if base > 0 else -1
    if abs(v) > vinf:
        return s
    if v > 0:
        return -s if side == 1 else s
    return s if side == 1 else -s
