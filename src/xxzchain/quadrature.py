"""Numerical backbone: Gauss-Legendre rules, the LU-factored Nystrom matrix
of a second-kind Fredholm equation, bracketed root finding, complex polyline
integration, the Barnes G function, and the Chebyshev-U far-field series
shared by `dressed` and `contours`.

`NystromLU` solves for node values only. Evaluating a solution off the nodes
(the Nystrom interpolant f(lam) = g(lam) - sum_j w_j K(lam, x_j) f(x_j)) is
left to the caller, who knows the kernel's analytic form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor
from scipy.optimize import brentq
from scipy.special import roots_legendre

from .errors import (
    BracketError,
    IntegrationError,
    SolverError,
    ValidationError,
)

DEFAULT_ORDER = 128
# Far-field series of K-type kernels, 1/(X + 1/X - 2c) = sum_m U_m(c) X^-(m+1)
# for |X| > 1 (Abramowitz and Stegun 22.9.10): it is used across a gap of at
# least _FAR_GAP in Re lam, so |X| >= exp(2 _FAR_GAP), and truncated after
# the least M terms with (M + 1) exp(-2 (M + 1) _FAR_GAP) < 1e-17 (|U_m| <= m + 1).
_FAR_GAP = 1.0
_FAR_TERMS = next(m for m in range(99) if (m + 1) * math.exp(-2 * (m + 1) * _FAR_GAP) < 1e-17)


@dataclass(frozen=True)
class Quadrature:
    """A Gauss-Legendre rule on a real interval."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self):
        a, b = self.interval
        if len(self.nodes) != self.order or len(self.weights) != self.order:
            raise ValidationError("node/weight count must equal order")
        if not (a < b):
            raise ValidationError(f"empty interval ({a}, {b})")
        if np.any(self.nodes <= a) or np.any(self.nodes >= b):
            raise ValidationError("nodes must lie strictly inside the interval")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValidationError("nodes must be strictly increasing")
        if abs(self.weights.sum() - (b - a)) > 1e-12 * (b - a):
            raise ValidationError("weights do not sum to the interval length")

    def integrate(self, f: Callable) -> complex:
        return np.sum(self.weights * f(self.nodes))

    def even_half(self) -> "EvenHalf":
        """The even half of this rule; the interval must be symmetric about 0."""
        a, b = self.interval
        if a != -b:
            raise ValidationError(f"even half needs a symmetric interval, got ({a}, {b})")
        m = self.order // 2
        weights = self.weights[m:].copy()
        if self.order % 2:
            weights[0] *= 0.5
        return EvenHalf(self.nodes[m:], weights)


@dataclass(frozen=True)
class EvenHalf:
    """The nodes x >= 0 of a rule symmetric about 0, with the node x = 0 of an
    odd order at half its weight. On even functions the Nystrom system of an
    even kernel K(x - y) over the full rule is the system of
    K(x - y) + K(x + y) over these nodes (Atkinson 1997, ch. 4)."""

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    x, w = roots_legendre(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(order: int, a: float = -1.0, b: float = 1.0) -> Quadrature:
    """Gauss-Legendre rule with `order` points mapped to (a, b)."""
    if order < 2:
        raise ValidationError(f"order must be >= 2, got {order}")
    if not (a < b):
        raise ValidationError(f"need a < b, got a={a}, b={b}")
    x, w = _legendre_rule(order)
    half = 0.5 * (b - a)
    return Quadrature(
        order=order,
        nodes=0.5 * (a + b) + half * x,
        weights=half * w,
        interval=(float(a), float(b)),
    )


class NystromLU:
    """The Nystrom matrix A = I + K W of a kernel on a rule (a Quadrature or
    an EvenHalf), LU-factored under the solver contract: the 1-norm condition
    estimate of LAPACK gecon on the LU (Higham, ACM TOMS 14 (1988) 381) must be
    finite and at most 1e12, and `solve`, refined once, must leave a residual
    of at most 1e-10 * max(1, max|g|), which a non-finite g or solution never
    meets; otherwise SolverError is raised."""

    def __init__(self, kernel: Callable, quad: Quadrature | EvenHalf):
        self.quad = quad
        x = quad.nodes
        kmat = np.asarray(kernel(x[:, None], x[None, :]))
        self.a_mat = np.eye(x.size, dtype=kmat.dtype) + kmat * quad.weights[None, :]
        anorm = np.linalg.norm(self.a_mat, 1)
        if not np.isfinite(anorm):
            raise SolverError("Nystrom matrix has non-finite entries")
        self.lu = lu_factor(self.a_mat, check_finite=False)
        gecon, self._getrs = get_lapack_funcs(("gecon", "getrs"), (self.a_mat,))
        rcond, _ = gecon(self.lu[0], anorm)
        self.cond = 1.0 / rcond if rcond > 0 else math.inf
        if self.cond > 1e12:
            raise SolverError(f"Nystrom matrix ill-conditioned: cond ~ {self.cond:.3e}")

    def _lu_solve(self, b: np.ndarray) -> np.ndarray:
        x, info = self._getrs(*self.lu, b)
        if info != 0:
            raise SolverError(f"LAPACK getrs rejected argument {-info}")
        return x

    def solve(self, g: np.ndarray) -> np.ndarray:
        f = self._lu_solve(g)
        f = f + self._lu_solve(g - self.a_mat @ f)
        resid = np.max(np.abs(self.a_mat @ f - g))
        if not resid <= 1e-10 * max(1.0, np.max(np.abs(g))):
            raise SolverError(f"Nystrom residual {resid:.3e} exceeds 1e-10 * max(1, max|g|)")
        return f


def find_root_bracketed(
    f: Callable, a: float, b: float, tol: float = 1e-12, fa=None, fb=None
) -> float:
    """Brent root of f on [a, b]; requires a sign change. The end values fa
    and fb are used as given when known; either way f runs once per end."""
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise BracketError(f"no sign change on [{a}, {b}]: f(a)={fa:.3e}, f(b)={fb:.3e}")
    known = {a: fa, b: fb}
    return brentq(lambda x: known[x] if x in known else f(x), a, b, xtol=tol)


def _chebyshev_u(two_c) -> np.ndarray:
    """U_0(c), ..., U_{_FAR_TERMS - 1}(c) from U_{m+1} = 2c U_m - U_{m-1},
    given 2c (real or complex)."""
    U = [1.0, two_c]
    while len(U) < _FAR_TERMS:
        U.append(two_c * U[-1] - U[-2])
    return np.array(U)


def barnes_g(n: int) -> float:
    """Barnes G at positive integers: G(1)=G(2)=G(3)=1, G(n) = prod_{k=1}^{n-2} k!."""
    if n < 1:
        raise ValidationError(f"barnes_g needs n >= 1, got {n}")
    if n <= 12:
        acc = 1
        fact = 1
        for k in range(1, n - 1):
            fact *= k
            acc *= fact
        return float(acc)
    # log accumulation for larger arguments
    log_acc = 0.0
    for k in range(1, n - 1):
        log_acc += math.lgamma(k + 1)
    return math.exp(log_acc)


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
