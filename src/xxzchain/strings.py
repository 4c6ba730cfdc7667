"""Existence, parity and momentum-sign classification of r-string bound states.

Two inequality families decide existence: the product conditions
sgn-compatible with sin(k zeta) sin((r-k) zeta) for zeta > pi/2, and the
floor-indexed conditions built on kappa_r for zeta < pi/2. Both are
implemented independently so their empirical equivalence can be checked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import floor, pi, sin

import numpy as np

from .errors import (
    DegenerateAnisotropyError,
    InvalidStringError,
    RegimeMismatchError,
    SignInconsistencyError,
    ValidationError,
)

DEGENERATE_TOL = 1e-12
REGIME_LIMIT_SHIFT = 1e-6


@dataclass(frozen=True)
class StringSpec:
    """Classification record for one string length r."""

    r: int
    exists: bool
    sigma_r: int | None
    line_im: float | None
    sgn_p_prime: int | None
    regime: str


def _sin_checked(x: float) -> float:
    val = sin(x)
    if abs(val) < DEGENERATE_TOL:
        raise DegenerateAnisotropyError(
            f"sin({x}) = {val:.3e} is degenerate; zeta too close to a "
            "rational multiple of pi for a stable verdict"
        )
    return val


def _exists_takahashi(r: int, zeta: float) -> tuple[bool, int | None]:
    """Product conditions valid for zeta > pi/2; returns (exists, sigma)."""
    prods = [
        _sin_checked(k * zeta) * _sin_checked((r - k) * zeta) for k in range(1, r)
    ]
    if all(p > 0 for p in prods):
        return True, 0
    if all(p < 0 for p in prods):
        return True, 1
    return False, None


def _exists_low(r: int, zeta: float) -> tuple[bool, int | None]:
    """Floor-indexed conditions valid for zeta < pi/2; returns (exists, sigma)."""
    kappa = floor((r - 1) * zeta / pi)

    def w(p):
        return floor((p - kappa / 2 + (r - 1) * zeta / (2 * pi)) * pi / zeta)

    freq = pi * zeta / (pi - zeta)
    sign = (-1) ** kappa
    p = 0
    while w(p) < r - 1:
        for k in range(max(1, w(p) + 1), min(r - 2, w(p + 1) - 1) + 1):
            lhs = sign * _sin_checked(freq * (k - p)) * _sin_checked(
                freq * (r - k + p - kappa - 1)
            )
            if lhs <= 0:
                return False, None
        p += 1
        if p > 4 * r:
            break
    return True, kappa % 2


def string_exists(r: int, zeta: float) -> StringSpec:
    """Decide existence and parity of the r-string at anisotropy zeta."""
    if r < 1:
        raise ValidationError(f"r must be a positive integer, got {r}")
    if not (0 < zeta < pi):
        raise ValidationError(f"zeta must lie in (0, pi), got {zeta}")
    if r == 1:
        return StringSpec(1, True, None, None, None, "particle-hole")

    if abs(zeta - pi / 2) < DEGENERATE_TOL:
        lo = string_exists(r, pi / 2 - REGIME_LIMIT_SHIFT)
        hi = string_exists(r, pi / 2 + REGIME_LIMIT_SHIFT)
        if lo.exists != hi.exists or (lo.exists and lo.sigma_r != hi.sigma_r):
            raise RegimeMismatchError(
                f"regime limits disagree at zeta = pi/2 for r = {r}: "
                f"low gives {lo}, high gives {hi}"
            )
        return StringSpec(r, lo.exists, lo.sigma_r, lo.line_im, None, "boundary")

    if zeta > pi / 2:
        exists, sigma = _exists_takahashi(r, zeta)
        regime = "product-conditions"
    else:
        exists, sigma = _exists_low(r, zeta)
        regime = "floor-conditions"
    line_im = sigma * pi / 2 if exists else None
    return StringSpec(r, exists, sigma, line_im, None, regime)


def momentum_sign(r: int, ds) -> int:
    """Sign of p'_r on the carrier line, checked at five separated points."""
    if r == 1:
        carrier_im = 0.0
    else:
        spec = string_exists(r, ds.zeta)
        if not spec.exists:
            raise InvalidStringError(
                f"no {r}-string exists at zeta = {ds.zeta}; momentum sign undefined"
            )
        carrier_im = spec.line_im
    xs = (0.31, 0.87, 1.53, 2.24, 3.12)
    vals = ds.p_r_d(np.array(xs) + 1j * carrier_im, r)
    samples = []
    for x, val in zip(xs, vals.tolist()):
        val = complex(val)
        if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
            raise SignInconsistencyError(
                f"p'_{r} not real on carrier line: {val} at x={x}"
            )
        samples.append((x, val.real))
    signs = {1 if v > 0 else -1 for _, v in samples}
    if len(signs) != 1:
        raise SignInconsistencyError(
            f"p'_{r} changes sign along the carrier line: samples {samples}"
        )
    return signs.pop()


def catalog(zeta: float, r_max: int, ds=None) -> list[StringSpec]:
    """Classify all string lengths 1..r_max; signs filled when ds is given."""
    if r_max < 1:
        raise ValidationError(f"r_max must be >= 1, got {r_max}")
    out = []
    for r in range(1, r_max + 1):
        spec = string_exists(r, zeta)
        if ds is not None and spec.exists and r >= 2:
            sgn = momentum_sign(r, ds)
            spec = StringSpec(
                spec.r, spec.exists, spec.sigma_r, spec.line_im, sgn, spec.regime
            )
        out.append(spec)
    return out


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
