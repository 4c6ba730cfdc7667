"""Phase functions u_r(lam, v) = p_r(lam) - eps_r(lam)/v and their saddle points.

`u_r(lam, v, r, ds, k)` is the k-th lam-derivative (k = 0, 1, 2), built from
`DressedSet.p_r`, `DressedSet.p_r_d` and `DressedSet.eps_r` at the same order.

Species are labelled by the string length r >= 1, with the convention that
zeros of u_1' on the real line are reported as species 0 (hole branch) and
zeros on R + i pi/2 as species 1. Characteristic velocities: the Fermi
velocity v_F, the common large-|lam| velocity v_inf, and the per-species
thresholds v_r^(m), v_r^(M) located by bisection on saddle counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import pi

import numpy as np

from .dressed import DressedSet
from .errors import (
    ConsistencyError,
    InvalidStringError,
    NearCriticalError,
    SignInconsistencyError,
    ValidationError,
)
from .quadrature import _legendre_rule, find_root_bracketed
from .strings import string_exists

SCAN_HALF_WIDTH = 15.0
SCAN_POINTS = 2000
NEAR_CRITICAL_BAND = 1e-6
THRESHOLD_RESOLUTION = 1e-3
DEGENERATE_CURVATURE = 1e-8
ASYMPTOTIC_PROBE_X = 12.0


@dataclass(frozen=True)
class SaddlePoint:
    """A zero of u_r' on a carrier line with its local quadratic data."""

    r: int
    omega: complex
    u_value: complex | None
    u_second: float
    eps_sign: int
    scale: float


@dataclass(frozen=True)
class StructureReport:
    """Saddle inventory and velocity thresholds at one (v, DressedSet)."""

    v: float
    v_F: float
    v_inf: float
    saddles: dict
    counts: dict
    minimal: bool
    thresholds: dict
    n_sp: list


def _carrier_im(r: int, ds: DressedSet) -> float:
    if r == 1:
        raise ValidationError("species 1 carries two lines; handled separately")
    spec = string_exists(r, ds.zeta)
    if not spec.exists:
        raise InvalidStringError(f"no {r}-string exists at zeta = {ds.zeta}")
    return spec.line_im


def u_r(lam, v: float, r: int, ds: DressedSet, k: int = 0):
    """k-th lam-derivative of the phase function p_r(lam) - eps_r(lam)/v."""
    if v == 0:
        raise ValidationError("v must be nonzero")
    p = ds.p_r(lam, r) if k == 0 else np.asarray(ds.p_r_d(lam, r, k))
    return p - np.asarray(ds.eps_r(lam, r, k)) / v


def fermi_velocity(ds: DressedSet) -> float:
    """v_F = eps_1'(q) / p_1'(q)."""
    return float(
        complex(ds.eps_r(ds.q, 1, 1)).real / complex(ds.p_r_d(ds.q, 1)).real
    )


def v_infinity(ds: DressedSet) -> float:
    """Common large-|lam| limit of the excitation velocities, two routes."""
    w, x = ds.quad.weights, ds.quad.nodes
    epsp = np.real(np.asarray(ds.eps_r(x, 1, 1)))
    p1p = ds.p1prime.values
    num = 8 * pi * ds.J * math.sin(ds.zeta) - 2 * math.cos(ds.zeta) * np.sum(
        w * np.sinh(2 * x) * epsp
    )
    den = 2 * pi - 2 * math.cos(ds.zeta) * np.sum(w * np.cosh(2 * x) * p1p)
    formula = float(num / den)

    probe = SCAN_HALF_WIDTH
    ratio = float(
        complex(ds.eps_r(probe, 1, 1)).real / complex(ds.p_r_d(probe, 1)).real
    )
    if abs(formula - ratio) > 1e-6 * abs(formula):
        raise ConsistencyError(
            f"v_inf routes disagree: closed form {formula!r} vs "
            f"large-lambda ratio {ratio!r}"
        )
    return formula


def _guard_velocity(v: float, ds: DressedSet, vinf: float | None = None) -> float:
    if v == 0:
        raise ValidationError("v must be nonzero")
    vinf = v_infinity(ds) if vinf is None else vinf
    vf = fermi_velocity(ds)
    for crit in (vf, vinf):
        if abs(abs(v) - crit) < NEAR_CRITICAL_BAND * vinf:
            raise NearCriticalError(
                f"|v| = {abs(v)} within guard band of a critical velocity "
                f"(v_F = {vf}, v_inf = {vinf})"
            )
    return vinf


def _line_curves(ds: DressedSet, r: int, line_im: float):
    """(grid, p_r', eps_r') on the scan grid of one carrier line, once per set.

    Neither derivative depends on v, so every scan of the line reads them
    from a memo that lives and dies with `ds`. The arrays are shared and
    therefore read-only.
    """
    key = (r, line_im)
    hit = ds._line_cache.get(key)
    if hit is None:
        grid = np.linspace(-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH, SCAN_POINTS)
        lam = grid + 1j * line_im
        hit = (grid, np.asarray(ds.p_r_d(lam, r)), np.asarray(ds.eps_r(lam, r, 1)))
        for arr in hit:
            arr.flags.writeable = False
        ds._line_cache[key] = hit
    return hit


def _scan(ds: DressedSet, r: int, v: float, line_im: float):
    """Scan grid and Re u_r' on it: the expression u_r(..., k=1) evaluates, bit for bit."""
    grid, pd1, ed1 = _line_curves(ds, r, line_im)
    return grid, np.real(pd1 - ed1 / v)


def _line_zeros(ds: DressedSet, r: int, v: float, line_im: float) -> list[float]:
    """Real parts of the zeros of u_r' on the line Im(lam) = line_im."""
    grid, vals = _scan(ds, r, v, line_im)
    zeros = []
    sign = np.sign(vals)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        root = find_root_bracketed(
            lambda x: float(np.real(u_r(x + 1j * line_im, v, r, ds, 1))),
            float(grid[i]),
            float(grid[i + 1]),
        )
        zeros.append(root)
    return zeros


def _make_saddle(ds: DressedSet, species: int, r: int, x: float, v: float,
                 line_im: float) -> SaddlePoint:
    omega = complex(x, line_im)
    upp = float(np.real(u_r(omega, v, r, ds, 2)))
    up = abs(complex(u_r(omega, v, r, ds, 1)))
    scale = math.sqrt(abs(upp) / 2)
    local = max(abs(upp), DEGENERATE_CURVATURE)
    if up > 1e-9 * local * max(1.0, abs(x)):
        raise ConsistencyError(f"saddle residual |u'| = {up:.3e} too large at {omega}")
    eps_sign = 0 if abs(upp) < DEGENERATE_CURVATURE else (1 if upp > 0 else -1)
    try:
        uval = complex(np.asarray(u_r(omega, v, r, ds)).item())
    except ValidationError:
        # the momentum display is ambiguous exactly at hat-reduction pi/2;
        # position and curvature are still well defined there
        uval = None
    return SaddlePoint(
        r=species, omega=omega, u_value=uval, u_second=upp,
        eps_sign=eps_sign, scale=scale,
    )


def find_saddles(r: int, v: float, ds: DressedSet) -> list[SaddlePoint]:
    """All saddle points of species r at velocity v.

    For r = 1 both lines are scanned; real-line saddles are labelled 0.
    """
    vinf = _guard_velocity(v, ds)
    out = []
    if r in (0, 1):
        for species, line_im in ((0, 0.0), (1, pi / 2)):
            for x in _line_zeros(ds, 1, v, line_im):
                out.append(_make_saddle(ds, species, 1, x, v, line_im))
        return out
    line_im = _carrier_im(r, ds)
    for x in _line_zeros(ds, r, v, line_im):
        out.append(_make_saddle(ds, r, r, x, v, line_im))
    return out


def _count_zeros(ds: DressedSet, r: int, v: float, line_im: float) -> int:
    _, vals = _scan(ds, r, v, line_im)
    sign = np.sign(vals)
    return int(np.count_nonzero(sign[:-1] * sign[1:] < 0))


def _species_count(ds: DressedSet, r: int, v: float) -> int:
    if r == 1:
        return _count_zeros(ds, 1, v, 0.0) + _count_zeros(ds, 1, v, pi / 2)
    return _count_zeros(ds, r, v, _carrier_im(r, ds))


def _bisect_boundary(pred, lo: float, hi: float, res: float) -> float:
    """Largest v in [lo, hi] where pred holds, assuming pred(lo) and not pred(hi)."""
    while hi - lo > res:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _thresholds(ds: DressedSet, r: int, vinf: float):
    """(v_r^(m), v_r^(M)) estimated from saddle counts as |v| grows."""
    res = THRESHOLD_RESOLUTION * vinf
    count = lambda v: _species_count(ds, r, v)
    if r == 1:
        # one zero per line is the defining state below v_1^(m)
        single = lambda v: (
            _count_zeros(ds, 1, v, 0.0) == 1
            and _count_zeros(ds, 1, v, pi / 2) == 1
        )
    else:
        single = lambda v: count(v) == 1

    hi = 1.5 * vinf
    while count(hi) > 0:
        hi *= 2.0
        if hi > 64 * vinf:
            return None, None
    lo = 0.5 * vinf
    if count(lo) == 0:
        return None, None
    v_max = _bisect_boundary(lambda v: count(v) > 0, lo, hi, res)
    v_min = _bisect_boundary(single, 0.5 * vinf, v_max + res, res)
    return v_min, v_max


def classify_structure(v: float, ds: DressedSet, r_max: int = 8) -> StructureReport:
    """Full saddle inventory at velocity v with threshold estimates."""
    vinf = _guard_velocity(v, ds)
    vf = fermi_velocity(ds)

    species = [1] + [
        r for r in range(2, r_max + 1) if string_exists(r, ds.zeta).exists
    ]
    saddles: dict = {}
    counts: dict = {}
    for r in species:
        found = find_saddles(r, v, ds)
        if r == 1:
            saddles[0] = [s for s in found if s.r == 0]
            saddles[1] = [s for s in found if s.r == 1]
            counts[0] = len(saddles[0])
            counts[1] = len(saddles[1])
        else:
            saddles[r] = found
            counts[r] = len(found)

    thresholds = {r: _thresholds(ds, r, vinf) for r in species}

    below = abs(v) < vinf
    bound_ok = all(
        counts[r] == (1 if below else 0) for r in species if r >= 2
    )
    species1_ok = (counts[0], counts[1]) == ((1, 1) if below else (0, 0))
    minimal = vf < vinf and bound_ok and species1_ok

    n_sp = [
        r for r in species
        if thresholds[r][1] is not None and abs(v) < thresholds[r][1]
    ]

    return StructureReport(
        v=v, v_F=vf, v_inf=vinf, saddles=saddles, counts=counts,
        minimal=minimal, thresholds=thresholds, n_sp=n_sp,
    )


def sign_im_u_at_infinity(r: int, v: float, y: float, side: int,
                          ds: DressedSet) -> int:
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
                              ds: DressedSet, vinf: float | None = None) -> int:
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
