"""Closed-form kernels of the model and the bare phases.

K(lam|eta) = sin(2 eta) / (2 pi sinh(lam + i eta) sinh(lam - i eta))
           = sin(2 eta) / (pi (cosh 2 lam - cos 2 eta)),

with simple poles at lam = +- i eta mod i pi. The bound-state kernel is
K_r = K(.|zeta (r+1)/2) + K(.|zeta (r-1)/2). Bare phases are antiderivatives
of 2 pi K along the two-segment path [0, i Im lam] then [i Im lam, lam],
with poles passed on the left.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, hypot, pi, sin

import numpy as np

from .errors import ContourError, PoleProximityError, ValidationError
from .quadrature import integrate_segment

_ETA_ZERO_TOL = 1e-15
POLE_ERROR_DIST = 1e-12
POLE_SHIFT_TRIGGER = 1e-4
POLE_SHIFT = 1e-6
_SUBTRACT_WINDOW = 0.6


def w_hat(eta: float) -> float:
    """Hat reduction of an angle mod pi into [0, pi); K(.|eta) only depends on this."""
    return eta - pi * floor(eta / pi)


def _pole_distance(lam, eta_hat: float):
    """Distance of lam to the pole lattice {i(+-eta_hat + pi k)}; for real lam
    only its minimum, hypot(min|lam|, min(eta_hat, pi - eta_hat))."""
    if not np.iscomplexobj(lam):
        return hypot(np.min(np.abs(lam)), min(eta_hat, pi - eta_hat))
    lam = np.asarray(lam, dtype=complex)
    best = None
    for s in (1.0, -1.0):
        dd = lam.imag - s * eta_hat
        dd = dd - pi * np.round(dd / pi)
        d = np.hypot(lam.real, dd)
        best = d if best is None else np.minimum(best, d)
    return best


def kernel_k(lam, eta: float):
    """The kernel K(lam|eta); i pi periodic and even in lam."""
    lam = np.asarray(lam)
    s2 = sin(2 * eta)
    if abs(s2) < _ETA_ZERO_TOL:
        return np.zeros(lam.shape) if lam.shape else 0.0
    if np.min(_pole_distance(lam, w_hat(eta))) < POLE_ERROR_DIST:
        raise PoleProximityError(f"kernel_k sampled within {POLE_ERROR_DIST} of a pole")
    out = s2 / (pi * (np.cosh(2 * lam) - np.cos(2 * eta)))
    return out


def kernel_k_d1(lam, eta: float):
    """d/dlam of K(lam|eta)."""
    lam = np.asarray(lam)
    s2 = sin(2 * eta)
    if abs(s2) < _ETA_ZERO_TOL:
        return np.zeros(lam.shape) if lam.shape else 0.0
    if np.min(_pole_distance(lam, w_hat(eta))) < POLE_ERROR_DIST:
        raise PoleProximityError("kernel_k_d1 sampled at a pole")
    d = np.cosh(2 * lam) - np.cos(2 * eta)
    return -2 * s2 * np.sinh(2 * lam) / (pi * d * d)


def kernel_k_d2(lam, eta: float):
    """d^2/dlam^2 of K(lam|eta)."""
    lam = np.asarray(lam)
    s2 = sin(2 * eta)
    if abs(s2) < _ETA_ZERO_TOL:
        return np.zeros(lam.shape) if lam.shape else 0.0
    if np.min(_pole_distance(lam, w_hat(eta))) < POLE_ERROR_DIST:
        raise PoleProximityError("kernel_k_d2 sampled at a pole")
    d = np.cosh(2 * lam) - np.cos(2 * eta)
    sh = np.sinh(2 * lam)
    return s2 * (-4 * np.cosh(2 * lam) / (pi * d * d) + 8 * sh * sh / (pi * d * d * d))


def kernel_kr(lam, r: int, zeta: float):
    """Bound-state kernel K_r; for r = 1 the eta = 0 summand vanishes."""
    return kernel_k(lam, zeta * (r + 1) / 2) + kernel_k(lam, zeta * (r - 1) / 2)


@dataclass(frozen=True)
class KernelParams:
    """Anisotropy bookkeeping; warns when zeta/pi is numerically rational."""

    zeta: float
    eta: float | None = None
    near_rational: bool = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.zeta < pi):
            raise ValidationError(f"zeta must lie in (0, pi), got {self.zeta}")
        frac = Fraction(self.zeta / pi).limit_denominator(64)
        flag = abs(self.zeta / pi - float(frac)) < 1e-9 and frac != 0
        object.__setattr__(self, "near_rational", flag)
        if flag:
            warnings.warn(
                f"zeta/pi is within 1e-9 of the rational {frac}; "
                "string classification may be degenerate",
                stacklevel=2,
            )


@dataclass(frozen=True)
class StringCombinatorics:
    r: int
    ell_r: int
    m_r: int
    kappa_r: int
    s_k: tuple


def string_combinatorics(r: int, zeta: float) -> StringCombinatorics:
    """Integer data attached to an r-string at anisotropy zeta."""
    if r < 1:
        raise ValidationError(f"r must be >= 1, got {r}")
    if not (0.0 < zeta < pi):
        raise ValidationError(f"zeta must lie in (0, pi), got {zeta}")
    ell_r = 1 - r + 2 * floor(r * zeta / (2 * pi))
    m_r = (
        2
        - r
        - (1 if r == 1 else 0)
        + 2 * (floor(zeta * (r + 1) / (2 * pi)) + floor(zeta * (r - 1) / (2 * pi)))
    )
    kappa_r = floor((r - 1) * zeta / pi)
    s_k = tuple(1 if sin(k * zeta) > 0 else -1 for k in range(1, r + 1))
    return StringCombinatorics(r=r, ell_r=ell_r, m_r=m_r, kappa_r=kappa_r, s_k=s_k)


# ---------------------------------------------------------------------------
# bare phases
# ---------------------------------------------------------------------------


def _segment_point_distance(a: complex, b: complex, p: complex) -> float:
    """Distance from point p to the straight segment [a, b] (a point if a == b)."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = ((p - a) * ab.conjugate()).real / denom
    t = min(1.0, max(0.0, t))
    return abs(a + t * ab - p)


def _poles_near_segment(a: complex, b: complex, eta_hat: float, window: float):
    """Poles i(+-eta_hat + pi k) of K(.|eta) within `window` of segment [a, b]."""
    lo = min(a.imag, b.imag) - window - 1.0
    hi = max(a.imag, b.imag) + window + 1.0
    out = []
    for s in (1.0, -1.0):
        k0 = floor((lo - s * eta_hat) / pi) - 1
        k1 = floor((hi - s * eta_hat) / pi) + 1
        for k in range(k0, k1 + 1):
            p = 1j * (s * eta_hat + pi * k)
            if _segment_point_distance(a, b, p) < window:
                # residue of 2 pi K(.|eta) at this pole is -i s
                out.append((p, -1j * s))
    return out


def _phase_segment(a: complex, b: complex, eta: float, order: int, shift: float) -> complex:
    """int_a^b 2 pi K(mu - 0+ | eta) dmu along a straight segment.

    Simple poles close to the segment are subtracted analytically (at their
    position displaced by +shift, realizing the left-avoidance of samples
    displaced by -shift) and restored through the principal-branch log of the
    endpoint ratio; the smooth remainder is integrated by Gauss-Legendre.
    """
    ehat = w_hat(eta)
    if abs(sin(2 * eta)) < _ETA_ZERO_TOL:
        return 0.0
    near = _poles_near_segment(a, b, ehat, _SUBTRACT_WINDOW)
    dmin = min((_segment_point_distance(a, b, p) for p, _ in near), default=np.inf)
    eps = shift if dmin < POLE_SHIFT_TRIGGER else 0.0
    shifted = [(p + eps, res) for p, res in near]
    for p, _ in shifted:
        if min(abs(a - p), abs(b - p)) < 1e-10 or (
            eps == 0.0 and _segment_point_distance(a, b, p) < 1e-10
        ):
            raise ContourError(f"bare-phase path passes through the pole at {p}")

    def smooth(mu):
        vals = 2 * pi * kernel_k(mu - eps, eta)
        for p, res in shifted:
            vals = vals - res / (mu - p)
        return vals

    total = integrate_segment(smooth, a, b, order)
    for p, res in shifted:
        total += res * np.log((b - p) / (a - p))
    return complex(total)


def _bare_phase_1_contour(lam: complex, eta: float, order: int, shift: float) -> complex:
    total = 0.0 + 0.0j
    mid = 1j * lam.imag
    if abs(mid) > 0:
        total += _phase_segment(0.0 + 0.0j, mid, eta, order, shift)
    if abs(lam - mid) > 0:
        total += _phase_segment(mid, complex(lam), eta, order, shift)
    return total


def bare_phase_1(lam, eta: float, order: int = 64, richardson: bool = False):
    """Bare two-particle phase theta(lam|eta) with poles passed on the left.

    On the real axis this reduces to 2 arctan(tanh(lam) cot(eta_hat)); off the
    axis the two-segment path is integrated with pole-aware quadrature.
    """
    ehat = w_hat(eta)
    lam_arr = np.asarray(lam, dtype=complex)
    scalar = lam_arr.ndim == 0
    pts = np.atleast_1d(lam_arr)
    out = np.empty(pts.shape, dtype=complex)
    if abs(sin(2 * eta)) < _ETA_ZERO_TOL and (ehat < 1e-12 or pi - ehat < 1e-12):
        # K(.|eta) vanishes identically
        out[:] = 0.0
    else:
        real_mask = np.abs(pts.imag) < 1e-14
        if np.any(real_mask):
            x = pts.real[real_mask]
            out[real_mask] = 2 * np.arctan(np.tanh(x) / np.tan(ehat))
        for idx in np.argwhere(~real_mask):
            z = complex(pts[tuple(idx)])
            if richardson:
                f1 = _bare_phase_1_contour(z, eta, order, POLE_SHIFT)
                f2 = _bare_phase_1_contour(z, eta, order, 2 * POLE_SHIFT)
                out[tuple(idx)] = 2 * f1 - f2
            else:
                out[tuple(idx)] = _bare_phase_1_contour(z, eta, order, POLE_SHIFT)
    if scalar:
        val = complex(out[0])
        return val.real if abs(val.imag) == 0.0 else val
    return out


def bare_phase(lam, r: int, zeta: float, order: int = 64, richardson: bool = False):
    """Bound-state bare phase theta_r = theta(.|zeta(r+1)/2) + theta(.|zeta(r-1)/2)."""
    if r < 1:
        raise ValidationError(f"r must be >= 1, got {r}")
    hi = bare_phase_1(lam, zeta * (r + 1) / 2, order=order, richardson=richardson)
    if r == 1:
        return hi
    return hi + bare_phase_1(lam, zeta * (r - 1) / 2, order=order, richardson=richardson)
