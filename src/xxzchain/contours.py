"""Numerical verification of contour-deformation identities.

The bound-state reorganisation of symmetric multiple integrals trades sums
of residues for deformed integration contours.  This module realises both
sides of the two- and three-fold deformation identities for an admissible
family of test functions and checks them against each other: the original
integrals run over the particle contour (real line plus shifted line) and
the bound-state lines, while the deformed side runs over compactified
loop contours, encased nested copies, half-weighted doubled lines and
regime-dependent ray corrections.

Everything here is parametrised by the anisotropy ``zeta`` and the
velocity regime (through the closure signs ``tau_L``, ``tau_R``); no
dressed data enters.  The module also evaluates classical squared
Vandermonde reference integrals used as external cross-checks.

The double sums over two sets of quadrature nodes take a near/far split in
Re x (``_pair_form``): pairs in cells of width 1 at most one apart take one
complex reciprocal each, and farther pairs a Chebyshev-U series in
exp(2 (x_i - x_j)) through per-cell moments about the facing cell edges,
truncated where its first dropped term is below 1e-17.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from math import pi

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss

from .errors import (
    DegenerateAnisotropyError,
    PoleProximityError,
    ReductionMismatchError,
    ValidationError,
)
# brings in scipy: the page faults of the scipy.special import once moved a
# worker start-up by 0.3 s with what the package had imported before it, so
# time a start-up after moving this import (CPython 3.11.7, scipy 1.17.1)
from .quadrature import _FAR_GAP, _FAR_TERMS, _chebyshev_u, _legendre_rule, barnes_g

TRUNCATION = 12.0
MAX_TRUNCATION = 80.0
SEPARATION = 1e-3
POLE_CLEARANCE = 1e-3
REGIME_GUARD = 1e-6
HOOK_DEPTH = 0.05
HOOK_CENTER = 0.2
PAIR_BLOCK_ROWS = 256


def _sign_sin(k: int, zeta: float) -> int:
    s = math.sin(k * zeta)
    if abs(s) < 1e-8:
        raise DegenerateAnisotropyError(
            f"sin({k} zeta) vanishes at zeta={zeta!r}; contour signs undefined"
        )
    return 1 if s > 0 else -1


def zeta_principal(zeta: float) -> float:
    """Distance of zeta from the nearest multiple of pi."""
    return min(zeta, pi - zeta)


def tau_parameters(v: float, v_inf: float = 1.0) -> tuple[int, int]:
    """Left/right closure signs (tau_L, tau_R) for the velocity regime.

    ``v`` is compared against ``v_inf``; the three admissible regimes are
    |v| > v_inf, 0 < v < v_inf and -v_inf < v < 0, with a relative guard
    band of 1e-6 around the boundaries.
    """
    if v_inf <= 0:
        raise ValidationError(f"v_inf must be positive, got {v_inf}")
    if abs(v) < REGIME_GUARD * v_inf:
        raise ValidationError("velocity too close to zero to fix a regime")
    if abs(abs(v) - v_inf) < REGIME_GUARD * v_inf:
        raise ValidationError("velocity too close to the regime boundary")
    if abs(v) > v_inf:
        return 1, 1
    if v > 0:
        return 1, -1
    return -1, 1


# ---------------------------------------------------------------------------
# admissible test functions


@dataclass(frozen=True)
class TestFunctionJ:
    """Symmetric test function J(nu_1..nu_n) = prod_a g(nu_a).

    The single-variable factor g(nu) = prod_j 1/(cosh 2nu - w_j) is
    i*pi-periodic, decays at least like exp(-2|Re nu|) and has poles at
    +-acosh(w_j)/2 mod i*pi, kept well away from the real line for the
    parameter choices used in the verification suite.  An empty ``ws``
    gives the identically-zero function.
    """

    __test__ = False  # not a pytest case despite the name

    n: int
    ws: tuple = ()
    label: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"need n >= 1 arguments, got {self.n}")
        object.__setattr__(self, "ws", tuple(complex(w) for w in self.ws))

    @classmethod
    def zero(cls, n: int) -> "TestFunctionJ":
        return cls(n=n, ws=(), label="zero")

    @property
    def is_zero(self) -> bool:
        return not self.ws

    def g(self, nu):
        nu = np.asarray(nu, dtype=complex)
        if self.is_zero:
            return np.zeros_like(nu)
        out = np.ones_like(nu)
        c = np.cosh(2.0 * nu)
        for w in self.ws:
            out = out / (c - w)
        return out

    def __call__(self, *nus):
        if len(nus) != self.n:
            raise ValidationError(f"expected {self.n} arguments, got {len(nus)}")
        out = self.g(nus[0])
        for nu in nus[1:]:
            out = out * self.g(nu)
        return out

    def g_poles(self, k_range: int = 2) -> list[complex]:
        """Poles of g within |Im| <~ (k_range + 1/2)*pi."""
        poles = []
        for w in self.ws:
            base = 0.5 * cmath.acosh(complex(w))
            for sign in (1.0, -1.0):
                for k in range(-k_range, k_range + 1):
                    poles.append(sign * base + 1j * pi * k)
        return poles


def shifted_poles(J: TestFunctionJ, shifts) -> list[complex]:
    """Single-variable pole positions of prod_s g(nu + i*shift_s)."""
    return [p - 1j * s for p in J.g_poles() for s in shifts]


# ---------------------------------------------------------------------------
# assembled integrands and residue reductions


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


def _pair_ratio(X, a: float, b: float):
    """Pair weight 1 + (a - b) / (X + 1/X + b - 2) at X = exp(2x).

    With sinh(x - i t) sinh(x + i t) = sinh^2 x + sin^2 t and
    4 sinh^2 x = X + 1/X - 2, every interaction weight below is
    (4 sinh^2 x + a) / (4 sinh^2 x + b) for a = 4 sin^2 t_num,
    b = 4 sin^2 t_den, which is this.  Near x = 0 a weight with a = 0 is
    the difference 1 - b/(b + 4 x^2), so its error there is absolute, about
    1e-16, not relative to the weight.
    """
    return 1.0 + (a - b) / (X + 1.0 / X + (b - 2.0))


def _pair20_coeffs(zeta: float) -> tuple[float, float]:
    return 0.0, 4.0 * math.sin(zeta) ** 2


def _pair110_coeffs(zeta: float) -> tuple[float, float]:
    return 4.0 * math.sin(0.5 * zeta) ** 2, 4.0 * math.sin(1.5 * zeta) ** 2


def _pair20(x, zeta: float):
    """Two-variable interaction weight of the unreduced integrand.

    sinh^2 x / (sinh(x - i zeta) sinh(x + i zeta)).
    """
    return _pair_ratio(np.exp(2.0 * np.asarray(x, complex)), *_pair20_coeffs(zeta))


def _pair110(x, zeta: float):
    """Interaction weight between a free variable and a 2-cluster centre.

    sinh(x - i zeta/2) sinh(x + i zeta/2) / (sinh(x - 3i zeta/2) sinh(x + 3i zeta/2)).
    """
    return _pair_ratio(np.exp(2.0 * np.asarray(x, complex)), *_pair110_coeffs(zeta))


def _prefactor2(zeta: float) -> float:
    _sign_sin(2, zeta)
    return math.sin(zeta) ** 2 / math.sin(2 * zeta)


def _prefactor3(zeta: float) -> float:
    _sign_sin(3, zeta)
    return math.sin(zeta) ** 3 / math.sin(3 * zeta)


@dataclass(frozen=True)
class Integrand20:
    J: TestFunctionJ
    zeta: float

    def __call__(self, nu1, nu2):
        return (
            _pair20(np.asarray(nu1, complex) - np.asarray(nu2, complex), self.zeta)
            * self.J.g(nu1)
            * self.J.g(nu2)
        )


@dataclass(frozen=True)
class Integrand300:
    J: TestFunctionJ
    zeta: float

    def __call__(self, nu1, nu2, nu3):
        z = self.zeta
        return (
            _pair20(np.asarray(nu1, complex) - np.asarray(nu2, complex), z)
            * _pair20(np.asarray(nu1, complex) - np.asarray(nu3, complex), z)
            * _pair20(np.asarray(nu2, complex) - np.asarray(nu3, complex), z)
            * self.J.g(nu1)
            * self.J.g(nu2)
            * self.J.g(nu3)
        )


@dataclass(frozen=True)
class Reduced01:
    """Single 2-cluster density obtained by one residue reduction."""

    J: TestFunctionJ
    zeta: float
    prefactor: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "prefactor", _prefactor2(self.zeta))

    def __call__(self, nu):
        z = self.zeta
        return self.prefactor * self.J.g(nu + 0.5j * z) * self.J.g(nu - 0.5j * z)

    def poles(self) -> list[complex]:
        return shifted_poles(self.J, (0.5 * self.zeta, -0.5 * self.zeta))


@dataclass(frozen=True)
class Reduced110:
    """One free variable plus one 2-cluster centre."""

    J: TestFunctionJ
    zeta: float
    prefactor: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "prefactor", _prefactor2(self.zeta))

    def __call__(self, nu1, nu2):
        z = self.zeta
        x = np.asarray(nu1, complex) - np.asarray(nu2, complex)
        return (
            self.prefactor
            * _pair110(x, z)
            * self.J.g(nu1)
            * self.J.g(nu2 + 0.5j * z)
            * self.J.g(nu2 - 0.5j * z)
        )

    def poles_free(self) -> list[complex]:
        return shifted_poles(self.J, (0.0,))

    def poles_cluster(self) -> list[complex]:
        return shifted_poles(self.J, (0.5 * self.zeta, -0.5 * self.zeta))


@dataclass(frozen=True)
class Reduced001:
    """Single 3-cluster density obtained by a double residue reduction."""

    J: TestFunctionJ
    zeta: float
    prefactor: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "prefactor", _prefactor3(self.zeta))

    def __call__(self, nu):
        z = self.zeta
        return (
            self.prefactor
            * self.J.g(nu + 1j * z)
            * self.J.g(nu)
            * self.J.g(nu - 1j * z)
        )

    def poles(self) -> list[complex]:
        return shifted_poles(self.J, (self.zeta, 0.0, -self.zeta))


def _circle_residue(f, center: complex, radius: float = 1e-3, m: int = 64) -> complex:
    """Residue of f at ``center`` via a small-circle trapezoid integral."""
    theta = 2 * pi * np.arange(m) / m
    z = center + radius * np.exp(1j * theta)
    return complex(np.mean(f(z) * (z - center)))


_CHECK_POINTS = (0.17 + 0.06j, -0.43 - 0.11j)


def _check_reduction(lhs: complex, rhs: complex, kind, tol: float = 1e-8):
    scale = max(abs(lhs), abs(rhs), 1.0)
    if abs(lhs - rhs) > tol * scale:
        raise ReductionMismatchError(
            f"residue cross-check failed for reduction {kind}: "
            f"circle={lhs!r} closed_form={rhs!r}"
        )


def reduce_residue(J: TestFunctionJ, target: tuple, zeta: float):
    """Build the residue-reduced integrand for ``target`` and cross-check it.

    ``target`` is one of (0, 1), (1, 1, 0), (0, 0, 1).  The closed form is
    validated against a small-circle numerical residue of the unreduced
    integrand at generic base points; disagreement beyond 1e-8 raises
    ReductionMismatchError.
    """
    target = tuple(int(t) for t in target)
    if target == (0, 1):
        red = Reduced01(J, zeta)
        j20 = Integrand20(J, zeta)
        for nu1 in _CHECK_POINTS:
            got = 1j * _circle_residue(lambda z: j20(nu1, z), nu1 - 1j * zeta)
            want = complex(red(nu1 - 0.5j * zeta))
            _check_reduction(got, want, target)
        return red
    if target == (1, 1, 0):
        red = Reduced110(J, zeta)
        j300 = Integrand300(J, zeta)
        for nu1 in _CHECK_POINTS:
            nu2 = nu1 + 0.31 - 0.07j
            got = 1j * _circle_residue(lambda z: j300(nu1, nu2, z), nu2 - 1j * zeta)
            want = complex(red(nu1, nu2 - 0.5j * zeta))
            _check_reduction(got, want, target)
        return red
    if target == (0, 0, 1):
        red = Reduced001(J, zeta)
        j300 = Integrand300(J, zeta)
        for nu1 in _CHECK_POINTS:

            def inner(z2):
                z2 = np.asarray(z2, complex).ravel()
                vals = [
                    1j * _circle_residue(lambda z3: j300(nu1, b, z3), b - 1j * zeta)
                    for b in z2
                ]
                return np.asarray(vals)

            got = 1j * _circle_residue(inner, nu1 - 1j * zeta)
            want = complex(red(nu1 - 1j * zeta))
            _check_reduction(got, want, target)
        return red
    raise ValidationError(f"unknown reduction target {target}")


# ---------------------------------------------------------------------------
# contour realisations


@dataclass(frozen=True)
class Panel:
    """Oriented straight segment with a multiplicative weight."""

    a: complex
    b: complex
    coeff: complex = 1.0
    order: int = 32


@dataclass(frozen=True)
class ContourSpec:
    """A formal integration curve: weighted list of straight panels."""

    cid: str
    panels: tuple

    def discretize(self):
        nodes, weights = [], []
        for p in self.panels:
            x, w = _legendre_rule(p.order)
            mid = 0.5 * (p.a + p.b)
            half = 0.5 * (p.b - p.a)
            nodes.append(mid + half * x)
            weights.append(p.coeff * half * w)
        return np.concatenate(nodes), np.concatenate(weights)

    def segments(self):
        return [(p.a, p.b) for p in self.panels]


def _line_panels(y: complex, lo: float, hi: float, coeff: complex, order: int):
    """Horizontal panels at height Im(y), split into sub-panels of length <= 1.

    Short panels keep Gauss-Legendre accurate even when the integrand has
    complex singularities close to the line (the interaction weights pass
    within ~0.08 of the shifted line for some anisotropies).
    """
    n_sub = max(1, math.ceil(hi - lo))
    edges = np.linspace(lo, hi, n_sub + 1)
    return [
        Panel(b0 + y, b1 + y, coeff, order) for b0, b1 in zip(edges, edges[1:])
    ]


def _hooked_real_panels(lo: float, hi: float, coeff: complex, order: int):
    """Real-axis panels from lo to hi with downward hooks of depth HOOK_DEPTH
    at +-HOOK_CENTER."""
    delta = HOOK_DEPTH
    hooks = [c for c in (-HOOK_CENTER, HOOK_CENTER) if lo + delta < c < hi - delta]
    panels = []
    cur = lo
    for c in hooks:
        panels.extend(_line_panels(0.0, cur, c - delta, coeff, order))
        panels.append(Panel(c - delta, c - 1j * delta, coeff, 16))
        panels.append(Panel(c - 1j * delta, c + delta, coeff, 16))
        cur = c + delta
    panels.extend(_line_panels(0.0, cur, hi, coeff, order))
    return panels


def contour_c1(zeta: float, L: float = TRUNCATION, order: int = 64) -> ContourSpec:
    """Particle contour: hooked real line plus the reversed shifted line."""
    panels = _hooked_real_panels(-L, L, 1.0, order)
    panels.extend(_line_panels(0.5j * pi, -L, L, -1.0, order))
    return ContourSpec("C1", tuple(panels))


def contour_c2(zeta: float, L: float = TRUNCATION, order: int = 64) -> ContourSpec:
    s2 = _sign_sin(2, zeta)
    return ContourSpec("C2", tuple(_line_panels(0.0, -L, L, s2, order)))


def contour_c3(zeta: float, L: float = TRUNCATION, order: int = 64) -> ContourSpec:
    s2 = _sign_sin(2, zeta)
    s3 = _sign_sin(3, zeta)
    height = 0.5j * pi if zeta > pi / 2 else 0.0
    return ContourSpec("C3", tuple(_line_panels(height, -L, L, s2 * s3, order)))


def _vertical_panels(x: float, y0: float, y1: float, coeff, order, breaks=()):
    """Vertical panels from x+iy0 to x+iy1, split at interior break heights."""
    lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
    pts = [lo] + sorted(b for b in breaks if lo + 1e-9 < b < hi - 1e-9) + [hi]
    if y0 > y1:
        pts = pts[::-1]
    out = []
    for p0, p1 in zip(pts, pts[1:]):
        out.append(Panel(x + 1j * p0, x + 1j * p1, coeff, order))
    return out


def _vertical_breaks(zeta: float, y0: float, y1: float, n_extra: int):
    """Break heights for encased verticals: interaction crossings + padding."""
    zp = zeta_principal(zeta)
    ridge = []
    for base in (zp, pi / 2 - zp, pi - zp):
        for s in (base, -base):
            ridge.append(s)
    lo, hi = min(y0, y1), max(y0, y1)
    breaks = set()
    for rr in ridge:
        for off in (-0.06, -0.02, 0.02, 0.06):
            b = rr + off
            if lo < b < hi:
                breaks.add(b)
    if n_extra:
        for k in range(1, n_extra):
            breaks.add(lo + (hi - lo) * k / n_extra)
    return sorted(breaks)


def contour_c1a(
    zeta: float,
    tau_L: int,
    tau_R: int,
    A: float,
    order: int = 32,
    inset: float = 0.0,
    refine: bool = False,
) -> ContourSpec:
    """Compactified loop contour with regime-dependent vertical closures.

    ``inset`` pulls the verticals inward (used for encased nested copies;
    horizontal edges are shared between copies, which is homotopic to a
    full nested offset for the admissible integrands).
    """
    if A <= inset:
        raise ValidationError("contour half-width must exceed the inset")
    Ap = A - inset
    vorder = 24 if refine else order
    nv = 8 if refine else 0
    panels = _hooked_real_panels(-Ap, Ap, 1.0, order)
    if refine and Ap > 1.2:
        # finer end panels resolve corner interactions with nearby verticals
        panels = _hooked_real_panels(-Ap + 0.6, Ap - 0.6, 1.0, order)
        panels.insert(0, Panel(-Ap, -Ap + 0.6, 1.0, 32))
        panels.append(Panel(Ap - 0.6, Ap, 1.0, 32))
    # right vertical
    yr = (0.0, pi / 2) if tau_R == 1 else (0.0, -pi / 2)
    panels.extend(
        _vertical_panels(
            Ap, yr[0], yr[1], 1.0, vorder, _vertical_breaks(zeta, *yr, nv)
        )
    )
    # upper edge, traversed right to left
    if refine and Ap > 1.2:
        upper = _line_panels(0.5j * pi, -Ap + 0.6, Ap - 0.6, -1.0, order)
        upper.insert(0, Panel(-Ap + 0.5j * pi, -Ap + 0.6 + 0.5j * pi, -1.0, 32))
        upper.append(Panel(Ap - 0.6 + 0.5j * pi, Ap + 0.5j * pi, -1.0, 32))
        panels.extend(upper)
    else:
        panels.extend(_line_panels(0.5j * pi, -Ap, Ap, -1.0, order))
    # left vertical, ending on the real edge start
    yl = (pi / 2, 0.0) if tau_L == 1 else (-pi / 2, 0.0)
    panels.extend(
        _vertical_panels(
            -Ap, yl[0], yl[1], 1.0, vorder, _vertical_breaks(zeta, *yl, nv)
        )
    )
    return ContourSpec("C1A", tuple(panels))


def ray_panels_c2a(
    zeta: float,
    tau_L: int,
    tau_R: int,
    A: float,
    L: float = TRUNCATION,
    order: int = 48,
):
    """The four residue rays subtracted from the doubled 2-cluster line.

    All rays carry the natural left-to-right orientation; the overall
    -s2/2 weight is applied by the identity evaluator.
    """
    s2 = _sign_sin(2, zeta)
    panels = []
    for height_half in (0.5 * zeta, 0.5 * (pi - zeta)):
        hL = 1j * s2 * tau_L * height_half
        hR = 1j * s2 * tau_R * height_half
        panels.append(Panel(-L + hL, -A + hL, 1.0, order))
        panels.append(Panel(A + hR, L + hR, 1.0, order))
    return panels


def tail_panels_c3a(
    zeta: float,
    tau_L: int,
    tau_R: int,
    A: float,
    L: float = TRUNCATION,
    order: int = 48,
):
    """3-cluster deformation tails beyond |Re| = A (natural orientation)."""
    s3 = _sign_sin(3, zeta)
    hL = 1j * s3 * tau_L * 0.5 * zeta
    hR = 1j * s3 * tau_R * 0.5 * zeta
    return [Panel(-L + hL, -A + hL, 1.0, order), Panel(A + hR, L + hR, 1.0, order)]


def correction_active(zeta: float) -> bool:
    """Whether the extra vertical-segment correction enters the n=3 identity."""
    return zeta < pi / 4 or zeta > 3 * pi / 4


def j_av_panels(zeta: float, tau_L: int, tau_R: int, A: float, order: int = 24):
    """Vertical correction segments at Re = +-A for small zeta_p."""
    zp = zeta_principal(zeta)
    return [
        Panel(-A + 1j * tau_L * (pi / 2 - zp), -A + 1j * tau_L * zp, 1.0, order),
        Panel(A + 1j * tau_R * zp, A + 1j * tau_R * (pi / 2 - zp), 1.0, order),
    ]


# ---------------------------------------------------------------------------
# pole clearance certificates


def certify_clearance(
    contour: ContourSpec,
    poles,
    threshold: float = POLE_CLEARANCE,
    label: str = "",
):
    """Assert every pole stays at least ``threshold`` from the contour.

    Returns the smallest pole-to-segment distance; the error names the first
    pole, in the order given, that reaches it.
    """
    poles = list(poles)
    segs = [(complex(a), complex(b)) for a, b in contour.segments()]
    if not poles or not segs:
        return math.inf
    a = np.array([s[0] for s in segs])
    ab = np.array([s[1] - s[0] for s in segs])
    # |ab|^2 by the scalar abs(ab) ** 2 keeps the result bit-identical to the
    # scalar pole-then-segment scan of tests/test_contours.py::TestClearance
    denom = np.array([abs(d) ** 2 for d in ab.tolist()])
    p = np.array([complex(q) for q in poles])[:, None]
    pa = p - a
    num = pa.real * ab.real + pa.imag * ab.imag
    t = np.clip(num / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
    foot = a + t * ab - p  # a point segment has ab = 0 and t = 0
    dist = np.hypot(foot.real, foot.imag)
    k = int(np.argmin(dist))
    worst = float(dist.flat[k])
    if worst < threshold:
        worst_pole = poles[k // len(segs)]
        raise PoleProximityError(
            f"pole {worst_pole} within {worst:.3e} of contour "
            f"{contour.cid}{' (' + label + ')' if label else ''}"
        )
    return worst


# ---------------------------------------------------------------------------
# quadrature drivers, on node sets d = (nodes, weights) from
# ContourSpec.discretize: a caller discretizes each contour once


def _int1(d, f) -> complex:
    nodes, w = d
    return complex(np.sum(w * f(nodes)) / (2 * pi))


def _pair_factors(nA, nB, b: float):
    """Factors of Y = X + 1/X + b - 2 at X = exp(2 (nA_i - nB_j)).

    Y is the rank-3 product [u, 1/u, 1] @ [w, 1/w, b - 2]^T with
    u = exp(2 nA) and w = exp(-2 nB); the pair weight is 1 + (a - b) / Y.
    """
    left = np.stack([np.exp(2.0 * nA), np.exp(-2.0 * nA), np.ones(len(nA))], axis=1)
    right = np.stack([np.exp(-2.0 * nB), np.exp(2.0 * nB), np.full(len(nB), b - 2.0)])
    return left, right


def _pair_matrix(nA, nB, coeffs):
    """Interaction weights 1 + (a - b) / Y between node sets (see _pair_factors)."""
    a, b = coeffs
    left, right = _pair_factors(nA, nB, b)
    R = left @ right
    np.reciprocal(R, out=R)
    R *= a - b
    R += 1.0
    return R


def _cells(nodes, values):
    """Nodes and values sorted by Re x and cut into cells of width w = _FAR_GAP.

    Node x lies in cell k when k w <= Re x < (k + 1) w.  Also returns the
    occupied cells, the first sorted node of each, and each cell's moments
    sum v z^(m+1), m < _FAR_TERMS, about its left edge (z = exp(-2 (x - k w)))
    and its right edge (z = exp(2 (x - (k + 1) w))), as _FAR_TERMS x cells
    arrays.  |z| <= 1, so no power can overflow.
    """
    order = np.argsort(nodes.real, kind="stable")
    x, v = nodes[order], values[order]
    k = np.floor(x.real / _FAR_GAP)
    cells, starts = np.unique(k, return_index=True)
    moments = []
    for z in (np.exp(-2.0 * (x - k * _FAR_GAP)), np.exp(2.0 * (x - (k + 1) * _FAR_GAP))):
        powers = [v * z]  # one product per term, a sixth of the time of np.cumprod
        while len(powers) < _FAR_TERMS:
            powers.append(powers[-1] * z)
        moments.append(np.add.reduceat(np.array(powers), starts, axis=1))
    return x, v, cells, starts, *moments


def _pair_form(nA, vA, nB, vB, coeffs) -> complex:
    """vA @ R @ vB with R = _pair_matrix(nA, nB), without forming R.

    R = 1 + (a - b) S with S = 1/Y, so the form is (sum vA)(sum vB) plus
    (a - b) vA @ S @ vB, split over the cells of _cells.  Near field, cells
    at most one apart: S is built PAIR_BLOCK_ROWS rows of a cell at a time,
    each block one rank-3 product and one reciprocal in place.  Far field,
    cells k <= l - 2: |X| < exp(-2w) and S = sum_m U_m(1 - b/2) X^(m+1)
    (Abramowitz and Stegun 22.9.10); X^(m+1) is the right-edge moment of
    cell k times exp(-2 (m+1)(l-k-1) w) times the left-edge moment of cell l,
    each of modulus <= 1, and cells k >= l + 2 take the mirror series in 1/X.
    As |U_m| <= m + 1, the first dropped term is below
    (M + 1) exp(-2 (M + 1) w) < 1e-17 for M = _FAR_TERMS.  S is even in x:
    for a node set paired with itself (``nB is nA`` and ``vB is vA``) only
    the near cells on and right of the diagonal are built, the diagonal ones
    counted once and the others twice, and the far pairs are counted twice.
    """
    a, b = coeffs
    symmetric = nB is nA and vB is vA
    nA, vA, cellsA, startsA, leftA, rightA = cA = _cells(nA, vA)
    nB, vB, cellsB, startsB, leftB, rightB = cA if symmetric else _cells(nB, vB)
    left, right = _pair_factors(nA, nB, b)
    total = 0.0j
    boundsB = np.append(startsB, len(nB))
    for c, i0, i1 in zip(cellsA, startsA, np.append(startsA[1:], len(nA))):
        j0 = boundsB[np.searchsorted(cellsB, c if symmetric else c - 1)]
        j1 = boundsB[np.searchsorted(cellsB, c + 1, side="right")]
        vS = np.concatenate([vB[j0:i1], 2.0 * vB[i1:j1]]) if symmetric else vB[j0:j1]
        for i in range(i0, i1, PAIR_BLOCK_ROWS):
            j = min(i + PAIR_BLOCK_ROWS, i1)
            S = left[i:j] @ right[:, j0:j1]
            np.reciprocal(S, out=S)
            total += vA[i:j] @ (S @ vS)
    U = _chebyshev_u(2.0 - b)
    gap = cellsB[None, :] - cellsA[:, None]

    def far(mA, d, mB):
        # exp(-2 (m+1)(d-1) w) between the facing edges of cells d >= 2 apart
        d = np.where(d > 1, d - 1, np.inf)
        decay = np.exp(-2.0 * _FAR_GAP * np.multiply.outer(d, np.arange(1, _FAR_TERMS + 1)))
        return np.einsum("m,ma,abm,mb->", U, mA, decay, mB)

    if symmetric:
        total += 2.0 * far(rightA, gap, leftB)
    else:
        total += far(rightA, gap, leftB) + far(leftA, -gap, rightB)
    return np.sum(vA) * np.sum(vB) + (a - b) * total


def _int2_pair(dA, dB, J: TestFunctionJ, zeta: float) -> complex:
    nA, wA = dA
    vA = wA * J.g(nA)
    if dB is dA:
        nB, vB = nA, vA
    else:
        nB, wB = dB
        vB = wB * J.g(nB)
    total = _pair_form(nA, vA, nB, vB, _pair20_coeffs(zeta))
    return complex(total / (2 * pi) ** 2)


def _int2_reduced(dA, dB, red: Reduced110) -> complex:
    nA, wA = dA
    nB, wB = dB
    J, z = red.J, red.zeta
    vA = wA * J.g(nA)
    vB = red.prefactor * wB * J.g(nB + 0.5j * z) * J.g(nB - 0.5j * z)
    total = _pair_form(nA, vA, nB, vB, _pair110_coeffs(z))
    return complex(total / (2 * pi) ** 2)


def _int3_pair(d1, d2, d3, J: TestFunctionJ, zeta: float) -> complex:
    n1, w1 = d1
    n2, w2 = d2
    n3, w3 = d3
    f1 = w1 * J.g(n1)
    f2 = w2 * J.g(n2)
    f3 = w3 * J.g(n3)
    coeffs = _pair20_coeffs(zeta)
    R12 = _pair_matrix(n1, n2, coeffs)
    if d1 is d2 is d3:
        R13 = R23 = R12
    else:
        R13 = _pair_matrix(n1, n3, coeffs)
        R23 = _pair_matrix(n2, n3, coeffs)
    M = f1[:, None] * R12 * f2[None, :]
    T = M @ R23
    return complex(np.einsum("ik,ik,k->", R13, T, f3) / (2 * pi) ** 3)


def _richardson(values: list[complex]) -> complex:
    """Extrapolate E(s), E(2s), E(4s), ... to s -> 0 (linear/quadratic)."""
    if len(values) == 1:
        return values[0]
    if len(values) == 2:
        return 2.0 * values[0] - values[1]
    e1, e2, e4 = values[:3]
    return (8.0 * e1 - 6.0 * e2 + e4) / 3.0


# ---------------------------------------------------------------------------
# identity evaluators


def _validate_common(zeta: float, v: float, v_inf: float, A: float, L: float):
    if not 0.0 < zeta < pi:
        raise ValidationError(f"zeta must lie in (0, pi), got {zeta}")
    if A <= 0 or L <= 0 or A > L:
        raise ValidationError("need 0 < A <= L")
    if L > MAX_TRUNCATION:
        # |Re x| reaches 2L on the contours; the pair weights form exp(2x)
        # and exp(-2x), finite there up to L ~ 177, but the tails are below
        # 1e-69 past L = 80, so a longer contour adds nothing
        raise ValidationError(f"need L <= {MAX_TRUNCATION}, got {L}")
    return tau_parameters(v, v_inf)


def _report(identity, lhs, rhs, L, params, extra=None):
    abs_diff = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    out = {
        "identity": identity,
        "lhs": lhs,
        "rhs": rhs,
        "abs_diff": abs_diff,
        "rel_diff": abs_diff / scale if scale > 0 else 0.0,
        "tail_bound": math.exp(-2 * L),
        "params": params,
    }
    if extra:
        out.update(extra)
    return out


def eval_identity_n2(
    J: TestFunctionJ,
    v: float,
    zeta: float,
    A: float = TRUNCATION,
    order: int = 48,
    *,
    v_inf: float = 1.0,
    L: float = TRUNCATION,
    separation: float = SEPARATION,
    levels: int = 1,
) -> dict:
    """Evaluate both sides of the two-variable deformation identity.

    Left side: the double integral over the particle contour plus the
    2-cluster line.  Right side: the encased double over the compactified
    loop plus the half-weighted deformed 2-cluster curve.  ``levels`` > 1
    Richardson-extrapolates the encased nesting separation to zero, which
    matters once A is small enough for the vertical closures to
    contribute above the target accuracy.
    """
    tau_L, tau_R = _validate_common(zeta, v, v_inf, A, L)
    s2 = _sign_sin(2, zeta)
    red01 = reduce_residue(J, (0, 1), zeta)

    c1 = contour_c1(zeta, L, order)
    c2 = contour_c2(zeta, L, order)
    refine = A < 6.0
    rays = ContourSpec(
        "C2A-rays", tuple(ray_panels_c2a(zeta, tau_L, tau_R, A, L, order))
    )

    if not J.is_zero:
        certify_clearance(c1, J.g_poles(), label="unreduced integrand")
        certify_clearance(c2, red01.poles(), label="2-cluster density")
        certify_clearance(rays, red01.poles(), label="2-cluster rays")

    cluster = _int1(c2.discretize(), red01)
    d1 = c1.discretize()
    lhs = 0.5 * _int2_pair(d1, d1, J, zeta) + cluster

    outer = contour_c1a(zeta, tau_L, tau_R, A, order, 0.0, refine)
    if not J.is_zero:
        certify_clearance(outer, J.g_poles(), label="encased outer")
    nO, wO = outer.discretize()
    vO = wO * J.g(nO)

    def encased(s: float) -> complex:
        inner = contour_c1a(zeta, tau_L, tau_R, A, order, s, refine)
        if not J.is_zero:
            certify_clearance(inner, J.g_poles(), label="encased inner")
        nI, wI = inner.discretize()
        total = _pair_form(nO, vO, nI, wI * J.g(nI), _pair20_coeffs(zeta))
        return 0.5 * complex(total / (2 * pi) ** 2)

    vals = [encased(separation * (2**k)) for k in range(levels)]
    rhs = _richardson(vals)
    rhs += cluster - 0.5 * s2 * _int1(rays.discretize(), red01)

    return _report(
        "n2",
        lhs,
        rhs,
        L,
        {
            "zeta": zeta,
            "v": v,
            "v_inf": v_inf,
            "A": A,
            "order": order,
            "separation": separation,
            "levels": levels,
            "tau_L": tau_L,
            "tau_R": tau_R,
            "label": J.label,
        },
    )


def eval_identity_n3(
    J: TestFunctionJ,
    v: float,
    zeta: float,
    A: float = TRUNCATION,
    order: int = 40,
    *,
    v_inf: float = 1.0,
    L: float = TRUNCATION,
    separation: float = SEPARATION,
    levels: int = 1,
) -> dict:
    """Evaluate both sides of the three-variable deformation identity.

    The right side combines the triply-encased loop integral, the mixed
    loop x deformed-2-cluster term and the deformed 3-cluster curve, the
    latter including the conditional vertical-segment correction for
    zeta below pi/4 or above 3pi/4.
    """
    tau_L, tau_R = _validate_common(zeta, v, v_inf, A, L)
    s2 = _sign_sin(2, zeta)
    s3 = _sign_sin(3, zeta)
    red110 = reduce_residue(J, (1, 1, 0), zeta)
    red001 = reduce_residue(J, (0, 0, 1), zeta)

    c1 = contour_c1(zeta, L, order)
    c2 = contour_c2(zeta, L, order)
    c3 = contour_c3(zeta, L, order)
    refine = A < 6.0
    rays2 = ContourSpec(
        "C2A-rays", tuple(ray_panels_c2a(zeta, tau_L, tau_R, A, L, order))
    )
    tails3 = ContourSpec(
        "C3A-tails", tuple(tail_panels_c3a(zeta, tau_L, tau_R, A, L, order))
    )
    javs = ContourSpec("J_Av", tuple(j_av_panels(zeta, tau_L, tau_R, A)))

    if not J.is_zero:
        certify_clearance(c1, J.g_poles(), label="unreduced integrand")
        certify_clearance(c1, red110.poles_free(), label="mixed free variable")
        certify_clearance(c2, red110.poles_cluster(), label="2-cluster centre")
        certify_clearance(rays2, red110.poles_cluster(), label="2-cluster rays")
        certify_clearance(c3, red001.poles(), label="3-cluster density")
        certify_clearance(tails3, red001.poles(), label="3-cluster tails")
        if correction_active(zeta):
            certify_clearance(javs, red001.poles(), label="vertical correction")

    d1, d2, d3 = c1.discretize(), c2.discretize(), c3.discretize()
    lhs = (
        _int3_pair(d1, d1, d1, J, zeta) / 6.0
        + _int2_reduced(d1, d2, red110)
        + _int1(d3, red001)
    )

    built = {}

    def make_loop(s: float):
        if s not in built:
            loop = contour_c1a(zeta, tau_L, tau_R, A, order, s, refine)
            if not J.is_zero:
                certify_clearance(loop, J.g_poles(), label="encased loop")
            built[s] = loop.discretize()
        return built[s]

    def encased(s: float) -> complex:
        loops = [make_loop(k * s) for k in range(3)]
        return _int3_pair(loops[0], loops[1], loops[2], J, zeta) / 6.0

    rhs = _richardson([encased(separation * (2**k)) for k in range(levels)])
    loop0 = make_loop(0.0)
    rhs += _int2_reduced(loop0, d2, red110) - 0.5 * s2 * _int2_reduced(
        loop0, rays2.discretize(), red110
    )
    rhs += _int1(d3, red001) - s3 * s2 * _int1(tails3.discretize(), red001)
    correction = 0.0 + 0.0j
    if correction_active(zeta):
        correction = _int1(javs.discretize(), red001) / 3.0
        rhs += correction

    return _report(
        "n3",
        lhs,
        rhs,
        L,
        {
            "zeta": zeta,
            "v": v,
            "v_inf": v_inf,
            "A": A,
            "order": order,
            "separation": separation,
            "levels": levels,
            "tau_L": tau_L,
            "tau_R": tau_R,
            "label": J.label,
        },
        extra={
            "correction_active": correction_active(zeta),
            "correction": correction,
        },
    )


# ---------------------------------------------------------------------------
# reference multiple integrals


def _vandermonde_moment(nodes, weights, n: int) -> float:
    """Tensor-quadrature integral of the squared Vandermonde density."""
    grids = np.meshgrid(*([nodes] * n), indexing="ij", sparse=True)
    wgrids = np.meshgrid(*([weights] * n), indexing="ij", sparse=True)
    total = np.ones(tuple([len(nodes)] * n))
    for wg in wgrids:
        total = total * wg
    for a in range(n):
        for b in range(a + 1, n):
            total = total * (grids[a] - grids[b]) ** 2
    return float(np.sum(total))


def verify_multiple_integrals(n_max: int = 4, order: int = 40) -> list[dict]:
    """Cross-check squared-Vandermonde integrals against closed forms.

    Gaussian weight: compared against (1/2)^(n^2/2) (2 pi)^(n/2) G(2+n)
    at 1e-8.  Exponential weight on the half-line: the brute-force tensor
    quadrature is the ground truth and is reported against both G^2(1+n)
    and G(1+n) G(2+n); the report records which closed form it matches.
    """
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    rows = []
    xh, wh = hermgauss(order)
    for n in range(1, n_max + 1):
        brute = _vandermonde_moment(xh, wh, n)
        closed = 0.5 ** (n * n / 2) * (2 * pi) ** (n / 2) * barnes_g(n + 2)
        rows.append(
            {
                "kind": "gaussian",
                "n": n,
                "computed": brute,
                "closed_form": closed,
                "rel_diff": abs(brute - closed) / abs(closed),
            }
        )
    xl, wl = laggauss(order)
    for n in range(1, n_max + 1):
        brute = _vandermonde_moment(xl, wl, n)
        square = barnes_g(n + 1) ** 2
        product = barnes_g(n + 1) * barnes_g(n + 2)
        rows.append(
            {
                "kind": "exponential",
                "n": n,
                "computed": brute,
                "square_formula": square,
                "product_formula": product,
                "matches_square": abs(brute - square) <= 1e-8 * abs(square),
                "matches_product": abs(brute - product) <= 1e-8 * abs(product),
            }
        )
    return rows


def standard_test_functions(n: int) -> list[TestFunctionJ]:
    """The verification suite's admissible test functions."""
    return [
        TestFunctionJ(n, (2.0 + 1.5j,), label="w1"),
        TestFunctionJ(n, (1.8 - 1.2j,), label="w2"),
        TestFunctionJ(n, (2.0 + 1.5j, 3.0 - 2.0j), label="w1w2"),
    ]


def run_verification_suite(slow: bool = False) -> list[dict]:
    """Run the full identity/reference verification matrix.

    Fast part: the n=2 identity for three test functions, three velocity
    regimes and two anisotropy regimes, plus the reference integrals.
    With ``slow`` the n=3 identity is added for both correction branches.
    """
    reports = []
    for zeta in (0.35 * pi, 0.65 * pi):
        for v in (1.5, 0.5, -0.5):
            for J in standard_test_functions(2):
                reports.append(eval_identity_n2(J, v, zeta))
    for row in verify_multiple_integrals():
        reports.append(row)
    if slow:
        for zeta in (0.35 * pi, 0.2 * pi):
            for v in (1.5, 0.5, -0.5):
                reports.append(
                    eval_identity_n3(TestFunctionJ(3, (2.0 + 1.5j,), label="w1"), v, zeta)
                )
    return reports
