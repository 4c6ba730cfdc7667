"""Dressed thermodynamic observables on the Fermi segment [-q, q].

Everything is driven by one Nystrom discretization of the convolution
operator with kernel K(.|zeta); the dressed energy, momentum derivative,
charge and phases are different driving terms against the same LU-factored
matrix. Off-segment (including complex) values come from the defining
equations themselves: `DressedSet.eps_r` and `DressedSet.p_r_d` give the
k-th lam-derivative of eps_r and p_r for every string length r through one
extension of those equations, of which r = 1 is the ordinary case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, pi, sin

import numpy as np

from .errors import (
    BracketError,
    ConsistencyError,
    PoleProximityError,
    ValidationError,
)
from .kernels import (
    KernelParams,
    _pole_line_distance,
    bare_phase,
    bare_phase_1,
    kernel_k,
    kernel_kr,
    string_combinatorics,
    w_hat,
)
from .quadrature import (
    DEFAULT_ORDER,
    GridFunction,
    NystromLU,
    find_root_bracketed,
    gauss_legendre,
)

EXTENSION_POLE_GUARD = 1e-4


def h_critical(J: float, zeta: float) -> float:
    """Upper critical field of the massless phase."""
    return 8.0 * J * cos(zeta / 2) ** 2


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical inputs; exactly one of h or q must be given."""

    J: float
    zeta: float
    h: float | None = None
    q: float | None = None
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        if self.J <= 0:
            raise ValidationError(f"J must be positive, got {self.J}")
        if not (0 < self.zeta < pi):
            raise ValidationError(f"zeta must lie in (0, pi), got {self.zeta}")
        if (self.h is None) == (self.q is None):
            raise ValidationError("exactly one of h or q must be specified")
        if self.h is not None and not (0 < self.h < h_critical(self.J, self.zeta)):
            raise ValidationError(
                f"h must lie in (0, h_c) with h_c = {h_critical(self.J, self.zeta)}"
            )
        if self.q is not None and self.q <= 0:
            raise ValidationError(f"q must be positive, got {self.q}")
        if self.order < 2:
            raise ValidationError("order must be >= 2")
        KernelParams(zeta=self.zeta)  # near-rational warning


class _Discretization(NystromLU):
    """Shared Nystrom data at a given (zeta, q, order)."""

    def __init__(self, zeta: float, Q: float, order: int):
        self.zeta = zeta
        self.Q = Q
        super().__init__(
            lambda l, m: kernel_k(l - m, zeta),
            gauss_legendre(order, -Q, Q),
            f"K(zeta={zeta:.17g})",
        )


def _solve_pair(zeta: float, Q: float, J: float, order: int):
    """Solve the unit-driving (charge-type) and K-driving equations at once."""
    disc = _Discretization(zeta, Q, order)
    x = disc.quad.nodes
    z_vals = disc.solve(np.ones(order))
    e_vals = disc.solve(np.asarray(kernel_k(x, zeta / 2), dtype=float))
    return disc, z_vals, e_vals


def _endpoint_value(disc: _Discretization, values, driving_at_q) -> float:
    """Natural Nystrom extension at lam = Q."""
    krow = kernel_k(disc.Q - disc.quad.nodes, disc.zeta)
    return float(driving_at_q - np.sum(disc.quad.weights * krow * values))


class DressedSet:
    """Solved dressed quantities at fixed (J, zeta, q, h, order)."""

    def __init__(self, params: ModelParams):
        self.params = params
        J, zeta, order = params.J, params.zeta, params.order
        c = 4 * pi * J * sin(zeta)

        if params.q is not None:
            q = float(params.q)
            disc, z_vals, e_vals = _solve_pair(zeta, q, J, order)
            zq = _endpoint_value(disc, z_vals, 1.0)
            eq = _endpoint_value(disc, e_vals, kernel_k(q, zeta / 2))
            h = c * eq / zq
            hc = h_critical(J, zeta)
            if not (0 < h < hc):
                raise ValidationError(
                    f"q={q} corresponds to h={h} outside (0, h_c={hc})"
                )
        else:
            h = float(params.h)
            q = self._find_q(J, zeta, h, order, c)
            disc, z_vals, e_vals = _solve_pair(zeta, q, J, order)

        self.J, self.zeta, self.q, self.h = J, zeta, q, h
        self.order = order
        self.disc = disc
        self.quad = disc.quad

        self.Z = disc.grid_function(z_vals, lambda l: np.ones_like(np.asarray(l)), "unit")
        eps_vals = h * z_vals - c * e_vals
        self.eps1 = disc.grid_function(
            eps_vals, lambda l: h - c * kernel_k(l, zeta / 2), "dressed-energy"
        )
        p1p_vals = 2 * pi * e_vals
        self.p1prime = disc.grid_function(
            p1p_vals, lambda l: 2 * pi * kernel_k(l, zeta / 2), "momentum-derivative"
        )

        self._phase_cache: dict = {}
        self._line_cache: dict = {}  # saddles: v-independent carrier-line curves
        self._saddle_cache: dict = {}  # assembler: complex u_r, p_r' and phi at saddles
        self.p_F = self._compute_p1(q)

        # positivity checks demanded of every solved set
        nodes = self.quad.nodes
        if np.any(p1p_vals <= 0):
            raise ConsistencyError("p'_1 not positive on the Fermi segment")
        end_eps = abs(self.eps1(q))
        if end_eps > 1e-8 * max(h, 1.0):
            raise ConsistencyError(f"eps_1(q) = {end_eps:.3e} not zero within tolerance")
        interior = nodes[np.abs(nodes) < q * 0.995]
        if np.any(self.eps1.values[np.abs(nodes) < q * 0.995] >= 0) and len(interior):
            raise ConsistencyError("eps_1 not negative inside the Fermi zone")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _find_q(J, zeta, h, order, c) -> float:
        hc = h_critical(J, zeta)
        if h >= hc:
            raise BracketError(f"h={h} >= h_c={hc}: no Fermi endpoint exists")

        def endpoint(Q):
            disc, z_vals, e_vals = _solve_pair(zeta, Q, J, order)
            zq = _endpoint_value(disc, z_vals, 1.0)
            eq = _endpoint_value(disc, e_vals, kernel_k(Q, zeta / 2))
            return h * zq - c * eq

        lo = 1e-6
        if endpoint(lo) >= 0:
            raise BracketError("endpoint dressed energy not negative at q -> 0")
        hi = 1.0
        while endpoint(hi) < 0:
            hi *= 2.0
            if hi > 64.0:
                raise BracketError(
                    f"no sign change of eps(Q|Q) up to Q=64 (h={h}, h_c={hc})"
                )
        return find_root_bracketed(endpoint, lo, hi, tol=1e-12)

    # -- dressed energies and momentum derivatives ---------------------------

    def _extend(self, lam, r: int, k: int, const, coef: float, values):
        """const + coef K^(k)(lam|r zeta/2) - sum_j w_j K_r^(k)(lam - x_j) values_j.

        The defining equation of eps_r (values eps_1) and p_r' (values p_1'),
        differentiated k times, evaluated on and off the Fermi segment. For
        r = 1 it is the Nystrom interpolant itself, since K_1 = K(.|zeta).
        Raises PoleProximityError where Im lam comes within
        EXTENSION_POLE_GUARD of a pole line of K_r.
        """
        # an eta with sin(2 eta) = 0 makes the kernel vanish identically: no pole
        etas = [e for e in (self.zeta * (r + 1) / 2, self.zeta * (r - 1) / 2)
                if abs(sin(2 * e)) > 1e-15]
        if etas:
            ims = np.unique(np.imag(np.atleast_1d(np.asarray(lam, dtype=complex))))
            for im in ims.tolist():
                if min(_pole_line_distance(im, w_hat(e)) for e in etas) < EXTENSION_POLE_GUARD:
                    raise PoleProximityError(
                        f"evaluation at Im(lam)={im} within {EXTENSION_POLE_GUARD} "
                        "of a kernel pole line"
                    )
        lam = np.asarray(lam)
        kmat = kernel_kr(lam.reshape(-1, 1) - self.quad.nodes, r, self.zeta, k)
        conv = (kmat @ (self.quad.weights * values)).reshape(lam.shape)
        return const + coef * kernel_k(lam, r * self.zeta / 2, k) - conv

    def eps_r(self, lam, r: int = 1, k: int = 0):
        """k-th lam-derivative of the dressed energy of the r-string,
        evaluable on and off its carrier line."""
        c = 4 * pi * self.J * sin(self.zeta)
        return self._extend(lam, r, k, r * self.h if k == 0 else 0, -c, self.eps1.values)

    def p_r_d(self, lam, r: int = 1, k: int = 1):
        """k-th lam-derivative (k >= 1) of the dressed momentum p_r."""
        if k < 1:
            raise ValidationError(f"p_r_d needs a derivative order k >= 1, got {k}")
        return self._extend(lam, r, k - 1, 0, 2 * pi, self.p1prime.values)

    @staticmethod
    def _reduce_periodic(lam: complex) -> complex:
        """Shift Im(lam) into (-pi/2, pi/2] by the i pi periodicity."""
        k = math.ceil((lam.imag - pi / 2) / pi - 1e-15)
        return complex(lam.real, lam.imag - k * pi)

    def _compute_p1(self, lam_real: float) -> float:
        theta_vals = bare_phase_1(lam_real - self.quad.nodes, self.zeta)
        conv = np.sum(self.quad.weights * theta_vals * self.p1prime.values) / (2 * pi)
        return float(bare_phase_1(lam_real, self.zeta / 2)) - conv

    def p_r(self, lam, r: int = 1):
        """Dressed momentum p_r on (a neighbourhood of) the carrier lines."""
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
        out = np.empty(lam_arr.shape, dtype=complex)
        for i, z in enumerate(lam_arr):
            out[i] = self._p_r_scalar(complex(z), r)
        if np.asarray(lam).ndim == 0:
            val = complex(out[0])
            return val.real if val.imag == 0 else val
        return out

    def _p_r_scalar(self, lam: complex, r: int) -> complex:
        z = self._reduce_periodic(lam)
        sc = string_combinatorics(r, self.zeta)
        if abs(z.imag) < 1e-14:
            if r == 1:
                return complex(self._compute_p1(z.real))
            z = z.real  # real bare phases, real dtypes
        theta_vals = bare_phase(z - self.quad.nodes, r, self.zeta)
        conv = np.sum(self.quad.weights * theta_vals * self.p1prime.values) / (2 * pi)
        lead = bare_phase_1(z, r * self.zeta / 2)

        corr = pi * sc.ell_r - self.p_F * sc.m_r
        for sigma in (1, -1):
            if sigma == -1 and r == 1:
                continue
            what = w_hat((r + sigma) * self.zeta / 2)
            if abs(what - pi / 2) < 1e-10:
                raise ValidationError(
                    f"hat reduction of (r+sigma) zeta / 2 equals pi/2 exactly "
                    f"(r={r}, sigma={sigma}); the momentum display is ambiguous here"
                )
            indicator = pi / 2 >= abs(z.imag) >= min(what, pi - what)
            if indicator:
                corr -= 2 * self.p_F * math.copysign(1.0, 1 - (2 / pi) * what)
        return lead - conv + corr

    # -- dressed phase and charge -------------------------------------------

    def dressed_phase(self, r: int, mu: complex) -> GridFunction:
        """phi_r(., mu) as a GridFunction on [-q, q] (complex extension valid)."""
        key = (r, round(complex(mu).real, 12), round(complex(mu).imag, 12))
        gf = self._phase_cache.get(key)
        if gf is not None:
            return gf
        sc = string_combinatorics(r, self.zeta)
        mu = complex(mu)

        x = self.quad.nodes - (mu.real if abs(mu.imag) < 1e-14 else mu)
        driving_vals = bare_phase(x, r, self.zeta) / (2 * pi) + sc.m_r / 2

        if np.iscomplexobj(driving_vals) and np.max(np.abs(driving_vals.imag)) > 0:
            values = self.disc.solve(driving_vals.real) + 1j * self.disc.solve(
                driving_vals.imag
            )
        else:
            values = self.disc.solve(driving_vals.real)

        gf = self._phase_grid_function(values, r, mu)
        self._phase_cache[key] = gf
        return gf

    def _phase_grid_function(self, values, r, mu) -> GridFunction:
        sc = string_combinatorics(r, self.zeta)

        def driving(lam):
            z = np.atleast_1d(np.asarray(lam, dtype=complex)) - mu
            vals = bare_phase(z, r, self.zeta) / (2 * pi) + sc.m_r / 2
            return vals if vals.shape != (1,) else vals[0]

        return self.disc.grid_function(values, driving, f"phi_{r}(mu={mu})")

    def phi(self, r: int, lam, mu) -> complex:
        """phi_r(lam, mu) through the cached grid function."""
        gf = self.dressed_phase(r, mu)
        val = gf(lam)
        return val

    def magnetization_density(self) -> float:
        """D = p_F / pi, cross-checked against the root-density integral."""
        d1 = self.p_F / pi
        d2 = float(np.sum(self.quad.weights * self.p1prime.values)) / (2 * pi)
        if abs(d1 - d2) > 1e-10:
            raise ConsistencyError(
                f"magnetization routes disagree: p_F/pi={d1!r}, int rho={d2!r}"
            )
        return d1


def solve_dressed_set(params: ModelParams) -> DressedSet:
    return DressedSet(params)


def solve_dressed_energy(params: ModelParams, Q: float) -> GridFunction:
    """Solve the energy equation on [-Q, Q] at the given field (h mode only)."""
    if params.h is None:
        raise ValidationError("solve_dressed_energy requires the field h")
    if Q <= 0:
        raise ValidationError(f"Q must be positive, got {Q}")
    h, J, zeta = params.h, params.J, params.zeta
    c = 4 * pi * J * sin(zeta)
    disc = _Discretization(zeta, Q, params.order)
    driving = lambda l: h - c * kernel_k(l, zeta / 2)
    vals = disc.solve(np.asarray(driving(disc.quad.nodes), dtype=float))
    return disc.grid_function(vals, driving, "dressed-energy")
