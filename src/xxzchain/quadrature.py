"""Numerical backbone: Gauss-Legendre rules, Nystrom solver for second-kind
Fredholm equations, bracketed root finding, complex polyline integration and
the Barnes G function.

The Nystrom solution carries its kernel and driving term around so it can be
evaluated off the node grid (including at complex points) through the natural
interpolation f(lam) = g(lam) - sum_j w_j K(lam, mu_j) f(mu_j).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class GridFunction:
    """Nystrom solution of f(lam) + int_{-Q}^{Q} K(lam, mu) f(mu) dmu = g(lam).

    `kernel` and `driving` must accept numpy arrays (complex allowed where the
    kernel is analytic); `values` are the solved node values.
    """

    quad: Quadrature
    values: np.ndarray
    driving: Callable = field(repr=False)
    kernel: Callable = field(repr=False)
    driving_id: str = "driving"
    kernel_id: str = "kernel"

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise SolverError("non-finite node values")

    def __call__(self, lam):
        """Natural Nystrom interpolation, valid wherever the kernel is analytic."""
        lam = np.asarray(lam)
        scalar = lam.ndim == 0
        pts = np.atleast_1d(lam)
        kmat = self.kernel(pts[:, None], self.quad.nodes[None, :])
        out = self.driving(pts) - kmat @ (self.quad.weights * self.values)
        return out[0] if scalar else out


class NystromLU:
    """The Nystrom matrix A = I + K W of a kernel on a quadrature rule,
    LU-factored under the solver contract: the 1-norm condition estimate of
    LAPACK gecon on the LU (Higham, ACM TOMS 14 (1988) 381) must be finite and
    at most 1e12, and `solve`, refined once, must leave a residual of at most
    1e-10 * max(1, max|g|), which a non-finite g or solution never meets;
    otherwise SolverError is raised."""

    def __init__(self, kernel: Callable, quad: Quadrature, kernel_id: str):
        self.kernel, self.quad, self.kernel_id = kernel, quad, kernel_id
        x = quad.nodes
        kmat = np.asarray(kernel(x[:, None], x[None, :]))
        self.a_mat = np.eye(quad.order, dtype=kmat.dtype) + kmat * quad.weights[None, :]
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

    def grid_function(self, values, driving: Callable, driving_id: str) -> GridFunction:
        """The Nystrom interpolant of solved node values for this kernel and rule."""
        return GridFunction(
            self.quad, values, driving, self.kernel, driving_id, self.kernel_id
        )


def find_root_bracketed(f: Callable, a: float, b: float, tol: float = 1e-12) -> float:
    """Brent root of f on [a, b]; requires a sign change."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise BracketError(f"no sign change on [{a}, {b}]: f(a)={fa:.3e}, f(b)={fb:.3e}")
    return brentq(f, a, b, xtol=tol)


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
