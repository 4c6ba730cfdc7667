"""Set functions of explicit rapidity sets: oracles for the exponent tables.

A `RapiditySet` lists the holes, particles and string rapidities of one
excited state. `excitation_energy_momentum` sums its dressed energy and
momentum, `theta_upsilon` its boundary exponents from the dressed phases,
and `conformal_exponent` gives the closed form of the pure-Umklapp states.
The tests hold `xxzchain.assembler` and the acceptance criteria to them.

`sign_im_u_at_infinity` integrates the tail of u_r' for the sign of Im u_r
far out on a line Im lam = y, and `expected_sign_at_infinity` tabulates that
sign for the three velocity regimes; the saddle tests hold them together.

`Polyline`, `integrate_segment` and `integrate_polyline` integrate along
piecewise-straight complex paths by Gauss-Legendre per segment; the kernel
tests hold the closed-form bare phases to them.

`phi` is the dressed phase phi_r(lam, mu) at any lam by the node route: its
node values from the Nystrom solve, then the interpolant. The dressed tests
hold `DressedSet.boundary_phases`, the adjoint route at lam = +-q, to it.

`REFERENCE_TABLE`, `reference_lookup` and `reference_diff` tabulate the
r-string classification intervals for r = 2..8 and compare a `catalog` with
them; `check_condition_equivalence` compares the two condition families of
`xxzchain.strings` below pi/2. `phi11` is the two-particle factor
sinh(x) / sinh(x - i zeta) of the contour identities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import pi, sin
from typing import Callable, Sequence

import numpy as np

from xxzchain.assembler import REAL_TOL, _realize
from xxzchain.dressed import _conv
from xxzchain.errors import (
    IntegrationError,
    PoleProximityError,
    SignInconsistencyError,
    ValidationError,
)
from xxzchain.kernels import bare_phase, string_combinatorics
from xxzchain.quadrature import _legendre_rule
from xxzchain.saddles import u_r, v_infinity
from xxzchain.strings import _exists_low, _exists_takahashi, catalog, string_exists

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


def phi(ds, r: int, lam, mu):
    """phi_r(lam, mu) by the node route: the node values of phi_r(., mu) solve
    A f = g for the driving term g = theta_r(. - mu) / 2 pi + m_r / 2, its real
    and imaginary parts apart; then g(lam) minus `_conv` of them."""
    mu = complex(mu)
    m_r = string_combinatorics(r, ds.zeta).m_r

    def driving(z):
        z = np.asarray(z, dtype=complex)
        # flat, so that bare_phase returns an array for a scalar z too
        return (bare_phase(z.reshape(-1), r, ds.zeta) / (2 * pi) + m_r / 2).reshape(z.shape)

    g = driving(ds.quad.nodes - mu)
    values = ds.lu.solve(g.real) + 1j * ds.lu.solve(g.imag)
    return driving(np.asarray(lam) - mu) - _conv(ds.quad, ds.zeta, lam, values)


def shift_exponent(omega, Y: RapiditySet, ds) -> float:
    """theta(omega | Y): the boundary exponent kernel of the state Y.

    Sum of dressed phases seen from omega -- holes enter with +phi_1,
    particles and strings with -phi_r, the Umklapp deficiencies through
    the endpoint phases, and the operator spin through Z(omega)/2.
    """
    _check_domains(Y, ds)
    val = 0.0 + 0.0j
    for mu in Y.holes:
        val += phi(ds, 1, omega, mu)
    val += 0.5 * Y.s_gamma * complex(ds.Z(omega))
    for nu in Y.particles:
        val -= phi(ds, 1, omega, nu)
    for r, vals in Y.string_items():
        for nu in vals:
            val -= phi(ds, r, omega, nu)
    for upsilon, ell in ((1, Y.ell_plus), (-1, Y.ell_minus)):
        if ell:
            val -= ell * phi(ds, 1, omega, upsilon * ds.q)
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


@dataclass(frozen=True)
class Polyline:
    """An ordered piecewise-straight path in the complex plane."""

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValidationError("polyline needs at least 2 vertices")
        for u, w in zip(self.vertices, self.vertices[1:]):
            if u == w:
                raise ValidationError("consecutive vertices must be distinct")

    @staticmethod
    def of(points: Sequence[complex]) -> "Polyline":
        return Polyline(tuple(complex(p) for p in points))

    def reversed(self) -> "Polyline":
        return Polyline(tuple(reversed(self.vertices)))

    def segments(self):
        return list(zip(self.vertices, self.vertices[1:]))


def integrate_segment(f: Callable, a: complex, b: complex, order: int = 32) -> complex:
    """Gauss-Legendre integral of f along the straight segment [a, b]."""
    x, w = _legendre_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pts = mid + half * x
    vals = np.asarray(f(pts))
    if not np.all(np.isfinite(vals)):
        bad = pts[~np.isfinite(vals)][0]
        raise IntegrationError(f"non-finite integrand sample at {bad}")
    return half * np.sum(w * vals)


def integrate_polyline(f: Callable, path: Polyline, order_per_segment: int = 32) -> complex:
    """Sum of per-segment Gauss-Legendre integrals along the polyline."""
    return sum(
        integrate_segment(f, a, b, order_per_segment) for a, b in path.segments()
    )


def check_condition_equivalence(zeta: float, r: int) -> bool:
    """Empirically compare the two condition families at zeta < pi/2."""
    if not (0 < zeta < pi / 2):
        raise ValidationError("equivalence check is defined for zeta in (0, pi/2)")
    ex_low, sig_low = _exists_low(r, zeta)
    ex_tak, sig_tak = _exists_takahashi(r, zeta)
    if ex_low != ex_tak:
        return False
    if ex_low and sig_low != sig_tak:
        return False
    return True


def _sgn_sin(k: int, zeta: float) -> int:
    return 1 if sin(k * zeta) > 0 else -1


# reference classification intervals for r = 2..8: (lo, hi, sigma, sign_factor)
# with expected sgn p'_r = sign_factor * sgn[sin(r zeta)]
REFERENCE_TABLE: dict[int, list[tuple[float, float, int, int]]] = {
    2: [(0, pi / 2, 0, 1), (pi / 2, pi, 0, 1)],
    3: [
        (0, pi / 3, 0, 1),
        (pi / 3, pi / 2, 0, 1),
        (pi / 2, 2 * pi / 3, 1, -1),
        (2 * pi / 3, pi, 1, -1),
    ],
    4: [(0, pi / 3, 0, 1), (2 * pi / 3, pi, 0, 1)],
    5: [
        (0, pi / 4, 0, 1),
        (pi / 3, pi / 2, 1, -1),
        (pi / 2, 2 * pi / 3, 0, 1),
        (3 * pi / 4, pi, 1, -1),
    ],
    6: [(0, pi / 5, 0, 1), (4 * pi / 5, pi, 0, 1)],
    7: [
        (0, pi / 6, 0, 1),
        (pi / 4, pi / 3, 1, -1),
        (2 * pi / 5, pi / 2, 0, 1),
        (pi / 2, 3 * pi / 5, 1, -1),
        (2 * pi / 3, 3 * pi / 4, 0, 1),
        (5 * pi / 6, pi, 1, -1),
    ],
    8: [
        (0, pi / 7, 0, 1),
        (pi / 3, 2 * pi / 5, 0, 1),
        (3 * pi / 5, 2 * pi / 3, 0, 1),
        (6 * pi / 7, pi, 0, 1),
    ],
}


def reference_lookup(r: int, zeta: float):
    """(exists, sigma, sgn p'_r) from the built-in classification intervals.

    Returns (False, None, None) when zeta falls in no listed interval.
    Only r = 2..8 are tabulated.
    """
    rows = REFERENCE_TABLE.get(r)
    if rows is None:
        return None
    for lo, hi, sigma, factor in rows:
        if lo < zeta < hi:
            return True, sigma, factor * _sgn_sin(r, zeta)
    return False, None, None


def reference_diff(zeta: float, r_max: int, ds=None) -> list[dict]:
    """Side-by-side comparison of computed catalog vs the built-in table."""
    rows = []
    for spec in catalog(zeta, min(r_max, 8), ds=ds):
        if spec.r == 1:
            continue
        ref = reference_lookup(spec.r, zeta)
        ref_exists, ref_sigma, ref_sgn = ref
        agree = spec.exists == ref_exists and (
            not spec.exists
            or (
                spec.sigma_r == ref_sigma
                and (spec.sgn_p_prime is None or spec.sgn_p_prime == ref_sgn)
            )
        )
        rows.append(
            {
                "r": spec.r,
                "exists": spec.exists,
                "sigma": spec.sigma_r,
                "sgn_p_prime": spec.sgn_p_prime,
                "ref_exists": ref_exists,
                "ref_sigma": ref_sigma,
                "ref_sgn_p_prime": ref_sgn,
                "agree": agree,
            }
        )
    return rows


def phi11(x, zeta: float):
    """Elementary two-particle factor sinh(x) / sinh(x - i*zeta).

    Vectorized over x; raises PoleProximityError if any argument comes
    within 1e-8 of a pole (x = i*zeta mod i*pi).
    """
    x = np.asarray(x, dtype=complex)
    shifted = x - 1j * zeta
    # distance of shifted from the lattice i*pi*Z
    im = np.mod(shifted.imag + pi / 2, pi) - pi / 2
    dist = np.abs(shifted.real + 1j * im)
    if np.any(dist < 1e-8):
        bad = np.asarray(x).ravel()[np.argmin(np.atleast_1d(dist))]
        raise PoleProximityError(f"phi11 evaluated within 1e-8 of a pole at x={bad}")
    out = np.sinh(x) / np.sinh(shifted)
    if out.ndim == 0:
        return complex(out)
    return out
