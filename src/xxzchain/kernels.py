"""Closed-form kernels of the model and the bare phases.

K(lam|eta) = sin(2 eta) / (2 pi sinh(lam + i eta) sinh(lam - i eta))
           = sin(2 eta) / (pi (cosh 2 lam - cos 2 eta)),

with simple poles at lam = +- i eta mod i pi. It is real on the real line,
and on the lines Im lam = +-pi/2 by the half-period identity
K(t + i pi/2|eta) = K(t|eta + pi/2) for real t: cosh(2t + i pi) = -cosh 2t,
and 2(eta + pi/2) flips the sign of both sin 2 eta and cos 2 eta. The shifted
eta carries the poles along, so the pole guard measures the same distance.

The bound-state kernel is K_r = K(.|zeta (r+1)/2) + K(.|zeta (r-1)/2).
The bare phase theta(lam|eta) is the integral of 2 pi K along the
two-segment path [0, i Im lam] then [i Im lam, lam], with poles passed on
the left. Since 2 pi K(mu|eta) = -i [coth(mu - i eta) - coth(mu + i eta)],
it is -i [g(lam) - g(0)] with g = log sinh(mu - i eta) - log sinh(mu + i eta)
continued along the path: a log modulus, whole multiples of pi for the zeros
the vertical leg crosses, and an atan2 for the horizontal leg.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, hypot, pi, sin

import numpy as np

from .errors import ContourError, PoleProximityError, ValidationError

_ETA_ZERO_TOL = 1e-15
_ORDERS = frozenset((0, 1, 2))
POLE_ERROR_DIST = 1e-12
PHASE_POLE_DIST = 1e-10


def w_hat(eta: float) -> float:
    """Hat reduction of an angle mod pi into [0, pi); K(.|eta) only depends on this."""
    return eta - pi * floor(eta / pi)


def _pole_line_distance(im, eta_hat: float):
    """Distance of Im(lam) (a float or an array) to the pole lines
    {+-eta_hat + pi k} of K(.|eta): pi/2 - |(d mod pi) - pi/2| for d = im -+ eta_hat."""
    return np.minimum(
        pi / 2 - abs((im - eta_hat) % pi - pi / 2), pi / 2 - abs((im + eta_hat) % pi - pi / 2)
    )


def _pole_distance(lam, eta_hat: float):
    """Distance of lam to the pole lattice {i(+-eta_hat + pi k)}; for real lam
    only its minimum, hypot(min|lam|, min(eta_hat, pi - eta_hat))."""
    if not np.iscomplexobj(lam):
        return hypot(np.min(np.abs(lam)), min(eta_hat, pi - eta_hat))
    lam = np.asarray(lam, dtype=complex)
    return np.hypot(lam.real, _pole_line_distance(lam.imag, eta_hat))


def _near_pole(lam, eta_hat: float, tol: float) -> bool:
    """np.min(_pole_distance(lam, eta_hat)) < tol. For real lam this is False
    from eta alone when min(eta_hat, pi - eta_hat) >= tol, since
    hypot(a, b) >= b; only otherwise is the matrix scanned. For finite complex
    lam the line distance is taken only in the strip |Re lam| < tol, since
    hypot(Re lam, d) >= |Re lam| outside it; NaN and inf (a non-finite sum)
    take the full path."""
    lam = np.asarray(lam)
    if lam.dtype.kind != "c":
        return min(eta_hat, pi - eta_hat) < tol and _pole_distance(lam, eta_hat) < tol
    if lam.size and np.isfinite(lam.sum()):
        lam = lam[np.abs(lam.real) < tol]
        if not lam.size:
            return False
    return bool(np.min(_pole_distance(lam, eta_hat)) < tol)


def kernel_k(lam, eta: float, k=0):
    """The kernel K(lam|eta) (k = 0) or its k-th lam-derivative (k = 1, 2);
    i pi periodic in lam, even for k = 0 and 2, odd for k = 1. A tuple k of
    orders gives a tuple with one array per order, all from one 2 lam, one
    cosh, one sinh and one d = cosh 2 lam - cos 2 eta."""
    run = isinstance(k, tuple)
    orders = k if run else (k,)
    if not orders or not _ORDERS.issuperset(orders):
        raise ValidationError(f"kernel derivative order must be 0, 1 or 2, got {k}")
    lam = np.asarray(lam)
    s2 = sin(2 * eta)
    if abs(s2) < _ETA_ZERO_TOL:
        out = [np.zeros(lam.shape) if lam.shape else 0.0 for _ in orders]
    elif _near_pole(lam, w_hat(eta), POLE_ERROR_DIST):
        raise PoleProximityError(f"kernel_k sampled within {POLE_ERROR_DIST} of a pole")
    else:
        lam2 = 2 * lam
        ch = np.cosh(lam2)
        sh = np.sinh(lam2) if orders != (0,) else None
        d = ch - np.cos(2 * eta)
        # on a Nystrom matrix these are large: keep alive only what the orders read
        lam2, ch = None, ch if 2 in orders else None
        out = []
        for o in orders:
            if o == 0:
                out.append(s2 / (pi * d))
            elif o == 1:
                out.append(-2 * s2 * sh / (pi * d * d))
            else:
                out.append(s2 * (-4 * ch / (pi * d * d) + 8 * sh * sh / (pi * d * d * d)))
    return tuple(out) if run else out[0]


def kernel_kr(lam, r: int, zeta: float, k=0, shift: float = 0.0):
    """k-th lam-derivative of the bound-state kernel
    K_r = K(.|zeta (r+1)/2) + K(.|zeta (r-1)/2), each eta raised by `shift`;
    a tuple k gives one array per order, as `kernel_k`. For r = 1 the second
    summand is K(.|0) = 0 and is not built. With shift = pi/2 and real lam
    this is K_r^(k)(lam + i pi/2), in real arithmetic."""
    hi = kernel_k(lam, zeta * (r + 1) / 2 + shift, k)
    if r == 1:
        return hi
    lo = kernel_k(lam, zeta * (r - 1) / 2 + shift, k)
    return tuple([a + b for a, b in zip(hi, lo)]) if isinstance(k, tuple) else hi + lo


@dataclass(frozen=True)
class KernelParams:
    """Anisotropy bookkeeping; warns when zeta/pi is numerically rational."""

    zeta: float
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


def _vanishes(eta: float) -> bool:
    """Whether theta(.|eta) is taken as 0: sin 2 eta = 0, or the pole lines
    i(+-eta_hat + pi k) pinch the real axis (eta_hat within 1e-12 of 0 or pi)."""
    ehat = w_hat(eta)
    return abs(sin(2 * eta)) < _ETA_ZERO_TOL or min(ehat, pi - ehat) < 1e-12


def bare_phase_1(lam, eta: float):
    """Bare two-particle phase theta(lam|eta) with poles passed on the left.

    On the real axis (a real dtype, or |Im lam| < 1e-14) this is
    2 arctan(tanh(lam) cot(eta_hat)), returned as a real dtype for real input.
    Elsewhere it is the closed form of the integral of 2 pi K along the path
    0 -> i Im lam -> lam; raises ContourError within 1e-10 of a pole, and on a
    pole line returns the limit from the side farther from the real axis.
    """
    lam_arr = np.asarray(lam)
    pts = np.atleast_1d(lam_arr)
    out = np.zeros(pts.shape, dtype=complex if np.iscomplexobj(pts) else float)
    if not _vanishes(eta):
        ehat = w_hat(eta)
        real = np.abs(pts.imag) < 1e-14
        out[real] = 2 * np.arctan(np.tanh(pts.real[real]) / np.tan(ehat))
        if not real.all():
            out[~real] = _bare_phase_off_axis(pts[~real], ehat)
    if lam_arr.ndim:
        return out
    val = complex(out[0])
    return val.real if val.imag == 0.0 else val


def _bare_phase_off_axis(lam, ehat: float):
    """theta = -i [g(lam) - g(0)] with g = log sinh(mu - i ehat) - log sinh(mu + i ehat)
    continued along 0 -> i b -> x + i b (b != 0), the vertical leg at Re mu = -0.

    For each factor sinh(mu + i a_s), a_s = b - s ehat: its argument drops by
    pi sgn(b) at each zero crossed on the vertical leg (floor(a_s / pi) counts
    them), changes continuously by atan2(cosh x sin a, sinh x cos a) on the
    horizontal leg, and its modulus is sqrt(sinh^2 x + sin^2 a).
    """
    if _near_pole(lam, ehat, PHASE_POLE_DIST):
        raise ContourError(f"bare phase evaluated within {PHASE_POLE_DIST} of a pole")
    x, b = lam.real, lam.imag
    th, sech = np.tanh(x), 1 / np.cosh(x)
    # zeros crossed are counted from floor(a_s / pi) at b = 0: -1 for s = 1, 0 for s = -1
    out = np.full(lam.shape, -pi, dtype=complex)
    for s in (1.0, -1.0):
        a = b - s * ehat
        k = np.round(a / pi)
        parity = 1 - 2 * np.mod(k, 2)  # (-1)^k: sin a has the sign of parity (a - k pi)
        sa = np.sin(a)
        # on a pole line, the side beyond it (larger |Im lam|): the end zero is crossed
        sa = np.where(sa == 0, np.copysign(0.0, parity * b), sa)
        floor_a = k - (parity * np.copysign(1.0, sa) < 0)
        horiz = np.arctan2(sa, th * np.cos(a)) - np.copysign(pi / 2, sa)
        # log(|sinh(x + i a)|^2 / cosh^2 x); the cosh^2 x cancels between s = +-1
        log_mod = np.log(th * th + (sa * sech) ** 2)
        out += s * (horiz - pi * floor_a - 0.5j * log_mod)
    return out


def bare_phase(lam, r: int, zeta: float):
    """Bound-state bare phase theta_r = theta(.|zeta(r+1)/2) + theta(.|zeta(r-1)/2)."""
    if r < 1:
        raise ValidationError(f"r must be >= 1, got {r}")
    hi = bare_phase_1(lam, zeta * (r + 1) / 2)
    if r == 1:
        return hi
    return hi + bare_phase_1(lam, zeta * (r - 1) / 2)
