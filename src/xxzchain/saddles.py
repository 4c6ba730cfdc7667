"""Phase functions u_r(lam, v) = p_r(lam) - eps_r(lam)/v and their saddle points.

`u_r(lam, v, r, ds, k)` is the k-th lam-derivative (k = 0, 1, 2), built from
`DressedSet.p_r` and `DressedSet.eps_r` for k = 0 and from the one pass of
`DressedSet.p_eps_d` for k >= 1. Scans, refinements, root steps, curvatures
and the velocities read p_r^(k) and eps_r^(k) from that pass too.

Species are labelled by the string length r >= 1, with the convention that
zeros of u_1' on the real line are reported as species 0 (hole branch) and
zeros on R + i pi/2 as species 1. Characteristic velocities: the Fermi
velocity v_F, the common large-|lam| velocity v_inf, and the per-species
thresholds v_r^(m), v_r^(M) read off the extrema of the velocity curve
V_r = eps_r'/p_r' on each carrier line.
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
    ValidationError,
)
from .quadrature import find_root_bracketed
from .strings import string_exists

SCAN_HALF_WIDTH = 15.0
SCAN_POINTS = 2000
NEAR_CRITICAL_BAND = 1e-6
REFINE_POINTS = 129
DEGENERATE_CURVATURE = 1e-8


@dataclass(frozen=True)
class SaddlePoint:
    """A zero of u_r' on a carrier line with its local quadratic data and
    the momentum slope p_r'(omega)."""

    r: int
    omega: complex
    u_value: complex | None
    u_second: float
    eps_sign: int
    scale: float
    slope: complex


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


def _lines(r: int, ds: DressedSet) -> list[tuple[int, float]]:
    """(species label, Im lam) of each carrier line of species r; r = 0 and
    r = 1 both name the two species-1 lines, the real one labelled 0."""
    if r in (0, 1):
        return [(0, 0.0), (1, pi / 2)]
    spec = string_exists(r, ds.zeta)
    if not spec.exists:
        raise InvalidStringError(f"no {r}-string exists at zeta = {ds.zeta}")
    return [(r, spec.line_im)]


def u_r(lam, v: float, r: int, ds: DressedSet, k: int = 0):
    """k-th lam-derivative of the phase function p_r(lam) - eps_r(lam)/v."""
    if v == 0:
        raise ValidationError("v must be nonzero")
    if k == 0:
        return ds.p_r(lam, r) - np.asarray(ds.eps_r(lam, r)) / v
    p, e = ds.p_eps_d(lam, r, k)
    return np.asarray(p) - np.asarray(e) / v


def fermi_velocity(ds: DressedSet) -> float:
    """v_F = eps_1'(q) / p_1'(q)."""
    p, e = ds.p_eps_d(ds.q, 1, 1)
    return float(complex(e).real / complex(p).real)


def v_infinity(ds: DressedSet) -> float:
    """Common large-|lam| limit of the excitation velocities, two routes."""
    w, x = ds.quad.weights, ds.quad.nodes
    epsp = np.real(np.asarray(ds.eps_r(x, 1, 1)))
    p1p = ds.p1prime
    num = 8 * pi * ds.J * math.sin(ds.zeta) - 2 * math.cos(ds.zeta) * np.sum(
        w * np.sinh(2 * x) * epsp
    )
    den = 2 * pi - 2 * math.cos(ds.zeta) * np.sum(w * np.cosh(2 * x) * p1p)
    formula = float(num / den)

    p, e = ds.p_eps_d(SCAN_HALF_WIDTH, 1, 1)
    ratio = float(complex(e).real / complex(p).real)
    if abs(formula - ratio) > 1e-6 * abs(formula):
        raise ConsistencyError(
            f"v_inf routes disagree: closed form {formula!r} vs "
            f"large-lambda ratio {ratio!r}"
        )
    return formula


def _guard_velocity(v: float, ds: DressedSet, vinf: float | None = None,
                    vf: float | None = None) -> tuple[float, float]:
    """(v_inf, v_F), computed where not given; raises NearCriticalError within
    the guard band of either."""
    if v == 0:
        raise ValidationError("v must be nonzero")
    vinf = v_infinity(ds) if vinf is None else vinf
    vf = fermi_velocity(ds) if vf is None else vf
    for crit in (vf, vinf):
        if abs(abs(v) - crit) < NEAR_CRITICAL_BAND * vinf:
            raise NearCriticalError(
                f"|v| = {abs(v)} within guard band of a critical velocity "
                f"(v_F = {vf}, v_inf = {vinf})"
            )
    return vinf, vf


def _line_curves(ds: DressedSet, r: int, line_im: float):
    """(grid, p_r', eps_r', `_extrema`) of one carrier line. None of them
    depends on v, so every scan of the line reads them from a memo that
    lives and dies with `ds`; they are shared and therefore read-only.

    The grid is the positive half of np.linspace(-SCAN_HALF_WIDTH,
    SCAN_HALF_WIDTH, SCAN_POINTS) (SCAN_POINTS even) and its mirror image,
    so it is mirror-exact. p_r' and eps_r' are evaluated on the half only
    and mirrored: p_r' is even in Re(lam), eps_r' odd. Most of the half lies
    beyond the Fermi zone, where `dressed._conv` takes its far-field series.
    """
    key = (r, line_im)
    hit = ds._line_cache.get(key)
    if hit is None:
        half = np.linspace(-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH, SCAN_POINTS)[SCAN_POINTS // 2:]
        lam = half + 1j * line_im
        pd1, ed1 = ds.p_eps_d(lam, r, 1)
        hit = (np.concatenate([-half[::-1], half]), np.concatenate([pd1[::-1], pd1]),
               np.concatenate([-ed1[::-1], ed1]))
        for arr in hit:
            arr.flags.writeable = False
        hit += (_extrema(ds, r, line_im, *hit),)
        ds._line_cache[key] = hit
    return hit


def _extrema(ds: DressedSet, r: int, line_im: float, grid, pd1, ed1):
    """Rows (x_j, p_r', eps_r', |V_r|) at the interior extrema of
    V_r = eps_r'/p_r' at Re(lam) >= 0, or None where p_r' changes sign.

    V_r is odd in Re(lam) (p_r' even, eps_r' odd): a row stands for its
    mirror image too. An extremum found on the scan grid is refined by one
    evaluation on REFINE_POINTS points across its two cells: x_j is the
    extreme point, |V_r| the vertex of the parabola through it and its
    neighbours (the grid alone is off by up to 1e-4 relative where V_r peaks
    sharply). Extrema in the guard band of |V_r| at the grid end (v_inf) are
    tail rounding wiggles, dropped: they move counts only at refused speeds.
    """
    pd1 = np.real(pd1)
    if not (np.all(pd1 > 0) or np.all(pd1 < 0)):
        return None
    vel = np.real(ed1) / pd1
    tail, dv, rows = abs(vel[-1]), np.diff(vel), []
    for i in np.nonzero((dv[:-1] * dv[1:] < 0) & (grid[1:-1] >= 0))[0] + 1:
        if abs(abs(vel[i]) - tail) < NEAR_CRITICAL_BAND * tail:
            continue
        xs = np.linspace(grid[i - 1], grid[i + 1], REFINE_POINTS)
        p, e = np.real(ds.p_eps_d(xs + 1j * line_im, r, 1))
        local = e / p
        # a maximum of V_r where it rises into the extremum, else a minimum
        j = min(max(int(np.argmax(np.sign(dv[i - 1]) * local)), 1), REFINE_POINTS - 2)
        a, b, c = local[j - 1:j + 2]
        rows.append((xs[j], p[j], e[j], abs(b - (c - a) ** 2 / (8 * (c - 2 * b + a)))))
    out = np.array(rows).reshape(-1, 4)
    out.flags.writeable = False
    return out


def _line_zeros(ds: DressedSet, r: int, v: float, line_im: float) -> list[float]:
    """Real parts of the zeros of u_r' on the line Im(lam) = line_im.

    Re u_r' is sampled on the scan grid. A knot +-x_j of an extremum of V_r
    splits a cell whose ends agree in sign but not with it: V_r is monotone
    between knots, so that cell holds two zeros. Every other bracket is a
    plain grid cell. Near an extremal |V_r| the knot's sign is unresolved.
    """
    grid, pd1, ed1, extrema = _line_curves(ds, r, line_im)
    vals = np.real(pd1 - ed1 / v)
    for x, p, e, speed in () if extrema is None else extrema:
        if abs(abs(v) - speed) < NEAR_CRITICAL_BAND * speed:
            raise NearCriticalError(f"|v| = {abs(v)} near the extremal |V_{r}| = {speed}")
        for knot, val in ((x, p - e / v), (-x, p + e / v)):
            i = np.searchsorted(grid, knot)
            if np.sign(vals[i - 1]) == np.sign(vals[i]) != np.sign(val):
                grid, vals = np.insert(grid, i, knot), np.insert(vals, i, val)
    sign = np.sign(vals)
    return [
        find_root_bracketed(
            lambda x: float(np.real(u_r(x + 1j * line_im, v, r, ds, 1))),
            float(grid[i]),
            float(grid[i + 1]),
        )
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    ]


def _make_saddle(ds: DressedSet, species: int, r: int, x: float, v: float,
                 line_im: float) -> SaddlePoint:
    omega = complex(x, line_im)
    upp = float(np.real(u_r(omega, v, r, ds, 2)))
    slope, e1 = ds.p_eps_d(omega, r, 1)
    up = abs(complex(np.asarray(slope) - np.asarray(e1) / v))
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
        eps_sign=eps_sign, scale=scale, slope=complex(slope),
    )


def find_saddles(r: int, v: float, ds: DressedSet, vinf: float | None = None,
                 vf: float | None = None) -> list[SaddlePoint]:
    """All saddle points of species r at velocity v.

    For r = 1 both lines are scanned; real-line saddles are labelled 0.
    v_inf and v_F are computed for the velocity guard unless given; the
    extremal speeds of V_r on the scanned lines are guarded as well.
    """
    _guard_velocity(v, ds, vinf, vf)
    return [
        _make_saddle(ds, species, max(species, 1), x, v, line_im)
        for species, line_im in _lines(r, ds)
        for x in _line_zeros(ds, max(species, 1), v, line_im)
    ]


def _thresholds(ds: DressedSet, r: int, vinf: float):
    """(v_r^(m), v_r^(M)): the least and the greatest of v_inf and the |V_r|
    at the interior extrema of V_r on the species' lines (both for r = 1);
    (None, None) where p_r' changes sign on a line.

    Where p_r' keeps one sign, u_r' = 0 exactly where V_r = v. On each line
    V_r is odd and tends to +-v_inf, so the saddle count at v > 0 changes
    only at v_inf and at these extremal values.
    """
    values = [vinf]
    for _, line_im in _lines(r, ds):
        extrema = _line_curves(ds, r, line_im)[3]
        if extrema is None:
            return None, None
        values += list(extrema[:, 3])
    return float(min(values)), float(max(values))


def classify_structure(v: float, ds: DressedSet, r_max: int = 8,
                       vinf: float | None = None) -> StructureReport:
    """Full saddle inventory at velocity v with the thresholds v_r^(m),
    v_r^(M) of each species; v_inf is computed unless given."""
    vinf, vf = _guard_velocity(v, ds, vinf)

    species = [1] + [
        r for r in range(2, r_max + 1) if string_exists(r, ds.zeta).exists
    ]
    saddles = {label: [] for r in species for label, _ in _lines(r, ds)}
    for r in species:
        for s in find_saddles(r, v, ds, vinf, vf):
            saddles[s.r].append(s)
    counts = {label: len(found) for label, found in saddles.items()}

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

