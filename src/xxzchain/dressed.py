"""Dressed thermodynamic observables on the Fermi segment [-q, q].

The dressed energy eps_1, momentum derivative p_1', charge Z and phases
phi_r each solve f + int_{-q}^{q} K(. - x|zeta) f(x) dx = g for their own
driving term g, against one LU-factored Nystrom matrix; `DressedSet` keeps
only their node values. In h mode, the search for the Fermi endpoint q runs
before it on the even half of that system, since the dressed energy is even.

Every value off the nodes, complex ones included, is the defining equation
itself: the driving term minus `_conv`, the quadrature of K_r^(k) against
node values (the Nystrom interpolant; Atkinson 1997, ch. 4). `eps_r` and
`p_r_d` give the k-th lam-derivative of eps_r and p_r for every string
length r this way, `Z` and `phi` the r = 1, k = 0 case. `p_eps_d` gives
p_r^(k) and eps_r^(k) from one pass over kernel orders k - 1 and k, which
shares the pole guard, cosh, sinh, far-field tables and kernel blocks.

Every carrier line lies at Im lam = 0 or pi/2, where `_conv` runs in real
arithmetic: K is i pi periodic and K(t + i pi/2|eta) = K(t|eta + pi/2), so
the kernel matrix there is the real one at t = Re lam. The O(n) driving
terms stay complex, so `eps_r` and `p_r_d` keep a complex dtype for complex
lam; `Z` on these lines is returned real. Real t at least _FAR_GAP beyond
the Fermi segment never meet the kernel matrix: K(t|eta) is there the
Chebyshev-U series (2 sin 2 eta / pi) sum_m U_m(cos 2 eta) e^(-2 (m+1)|t|)
(Abramowitz and Stegun 22.9.10), whose terms factor into e^(-2 (m+1)(|t| - q))
and node moments, as in the far field of Greengard and Rokhlin (1987). Such
rows are most of a carrier-line scan. The other rows take the kernel matrix,
built and applied CONV_BLOCK_ROWS rows at a time, so that its temporaries
stay in cache.
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
    _ETA_ZERO_TOL,
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
    _FAR_GAP,
    _FAR_TERMS,
    DEFAULT_ORDER,
    NystromLU,
    _chebyshev_u,
    find_root_bracketed,
    gauss_legendre,
)

EXTENSION_POLE_GUARD = 1e-4
CONV_BLOCK_ROWS = 256


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


def _conv(quad, zeta: float, lam, values, r: int = 1, k=0):
    """sum_j w_j K_r^(k)(lam - x_j) values_j over the rule `quad`, shaped as lam.
    A tuple k of orders, with one node-value vector per order in `values`,
    gives one sum per order from one line test, `_far_rows` mask, `_powers`
    table per side and kernel block per row block; each keeps its own product.

    When every lam lies on Im lam = 0, or every one on |Im lam| = pi/2, the
    kernel is taken real at t = Re lam (at eta + pi/2 on the second line);
    any other complex lam takes the complex difference matrix. On real t the
    rows of `_far_rows` go through the series of `_far_field` once they are
    at least _FAR_TERMS, as many as its moments cost in dense rows. All
    other rows go in blocks of CONV_BLOCK_ROWS, a multiple of 4, and a
    one-row remainder joins the block before it: gemv groups rows by 4 and a
    one-row product goes through dot, so only this split keeps every row
    bit-identical to the one-matrix product.
    """
    orders, values = (k, values) if isinstance(k, tuple) else ((k,), (values,))
    lam = np.asarray(lam)
    t, shift = lam, 0.0
    if lam.dtype.kind == "c":
        im = np.abs(lam.imag)
        if not im.any():
            t = lam.real
        elif np.all(im == pi / 2):
            t, shift = lam.real, pi / 2
    t, wvs = t.reshape(-1), [quad.weights * v for v in values]
    if t.dtype.kind == "c" or t.size < _FAR_TERMS or np.count_nonzero(
            far := _far_rows(t, *quad.interval)) < _FAR_TERMS:
        outs = _dense_conv(quad, zeta, t, wvs, r, orders, shift)
    else:
        outs = [np.empty(t.shape, np.result_type(float, wv)) for wv in wvs]
        for out, rows in zip(outs, _far_field(quad, zeta, t[far], wvs, r, orders, shift)):
            out[far] = rows
        if not far.all():
            for out, rows in zip(outs, _dense_conv(quad, zeta, t[~far], wvs, r, orders, shift)):
                out[~far] = rows
    outs = tuple([out.reshape(lam.shape) for out in outs])
    return outs if isinstance(k, tuple) else outs[0]


def _dense_conv(quad, zeta, t, wvs, r, orders, shift):
    """The rows of `_conv` on flat t from the kernel matrix, in row blocks,
    one array per order."""
    t = t.reshape(-1, 1)
    starts = list(range(0, len(t), CONV_BLOCK_ROWS))
    if len(starts) > 1 and len(t) - starts[-1] == 1:
        starts.pop()  # a one-row product goes through dot, not gemv
    ends = starts[1:] + [len(t)]
    outs = [[] for _ in wvs]
    for i, j in zip(starts, ends):
        for out, K, wv in zip(outs, kernel_kr(t[i:j] - quad.nodes, r, zeta, orders, shift), wvs):
            out.append(K @ wv)
    return [np.concatenate(out) if len(out) > 1 else out[0] for out in outs]


def _far_rows(t, a: float, b: float):
    """Mask of the finite real t at least _FAR_GAP outside [a, b], in whole
    groups of 4 rows (a one-row tail joins the group before it): the rows
    left to `_dense_conv` then meet gemv in the groups of the one-matrix
    product."""
    far = np.isfinite(t) & ((t >= b + _FAR_GAP) | (t <= a - _FAR_GAP))
    group = np.arange(t.size) // 4
    if t.size % 4 == 1 and t.size > 1:
        group[-1] -= 1
    return np.bincount(group, ~far)[group] == 0


def _far_field(quad, zeta, t, wvs, r, orders, shift):
    """The rows of `_conv` at real t at least _FAR_GAP outside the rule's
    interval [a, b], from the Chebyshev-U series of K, one array per order.

    K(lam|eta) = (2 sin 2 eta / pi) sum_m U_m(cos 2 eta) e^(-2 (m+1)|lam|)
    for real lam != 0 (`quadrature._chebyshev_u`). For t >= b + _FAR_GAP the sum
    over the nodes is sum_m c_m (-2 (m+1))^k e^(-2 (m+1)(t - b)) A_m with
    moments A_m = sum_j w_j values_j e^(-2 (m+1)(b - x_j)), and t <= a -
    _FAR_GAP takes the mirror series about a, so every factor is at most 1.
    c_m sums 2 sin 2 eta / pi U_m(cos 2 eta) over both eta of K_r (raised by
    `shift`), skipping an eta where `kernel_k` vanishes.
    """
    coef = np.zeros(_FAR_TERMS)
    for eta in (zeta * (r + 1) / 2 + shift, zeta * (r - 1) / 2 + shift):
        s2 = sin(2 * eta)
        if abs(s2) >= _ETA_ZERO_TOL:  # as in kernel_k; eta = shift for r = 1
            coef += 2 * s2 / pi * _chebyshev_u(2 * cos(2 * eta))
    m1 = np.arange(1, _FAR_TERMS + 1)
    a, b = quad.interval
    outs = [np.empty(t.shape, np.result_type(float, wv)) for wv in wvs]
    for rows, edge, sign in ((t > b, b, -1), (t < a, a, 1)):
        if rows.any():
            at_nodes = _powers(np.exp(2 * sign * (edge - quad.nodes)))
            at_rows = _powers(np.exp(2 * sign * (t[rows] - edge)))
            for out, wv, k in zip(outs, wvs, orders):
                out[rows] = (coef * (2 * sign * m1) ** k * (at_nodes @ wv)) @ at_rows
    return outs


def _powers(z):
    """z, z^2, ..., z^_FAR_TERMS, one row each."""
    p = np.empty((_FAR_TERMS, z.size))
    p[0] = z
    for m in range(1, _FAR_TERMS):
        np.multiply(p[m - 1], z, out=p[m])
    return p


def _solve_pair(zeta: float, Q: float, order: int):
    """Solve the unit-driving (charge-type) and K-driving equations at once."""
    lu = NystromLU(lambda l, m: kernel_k(l - m, zeta), gauss_legendre(order, -Q, Q))
    x = lu.quad.nodes
    z_vals = lu.solve(np.ones(order))
    e_vals = lu.solve(np.asarray(kernel_k(x, zeta / 2), dtype=float))
    return lu, z_vals, e_vals


def _endpoint_energy(zeta: float, Q: float, order: int, h: float, c: float) -> float:
    """eps(Q) of the dressed energy solved on [-Q, Q], driving h - c K(.|zeta/2),
    from the even half of the Nystrom system: the driving term is even and the
    rule symmetric, so the node values are even."""
    half = gauss_legendre(order, -Q, Q).even_half()
    x, w = half.nodes, half.weights
    lu = NystromLU(lambda l, m: kernel_k(l - m, zeta) + kernel_k(l + m, zeta), half)
    eps = lu.solve(h - c * kernel_k(x, zeta / 2))
    krow = kernel_k(Q - x, zeta) + kernel_k(Q + x, zeta)
    return float(h - c * kernel_k(Q, zeta / 2) - np.sum(w * krow * eps))


class DressedSet:
    """Solved dressed quantities at fixed (J, zeta, q, h, order).

    `charge`, `eps1` and `p1prime` hold the node values of Z, eps_1 and p_1'
    on `quad.nodes`; `lu` is the factored Nystrom matrix they were solved on.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        J, zeta, order = params.J, params.zeta, params.order
        c = 4 * pi * J * sin(zeta)

        if params.q is not None:
            q = float(params.q)
            lu, z_vals, e_vals = _solve_pair(zeta, q, order)
            zq = 1.0 - _conv(lu.quad, zeta, q, z_vals)
            eq = kernel_k(q, zeta / 2) - _conv(lu.quad, zeta, q, e_vals)
            h = float(c * eq / zq)
            hc = h_critical(J, zeta)
            if not (0 < h < hc):
                raise ValidationError(
                    f"q={q} corresponds to h={h} outside (0, h_c={hc})"
                )
        else:
            h = float(params.h)
            q = self._find_q(J, zeta, h, order, c)
            lu, z_vals, e_vals = _solve_pair(zeta, q, order)

        self.J, self.zeta, self.q, self.h = J, zeta, q, h
        self.order = order
        self.lu = lu
        self.quad = lu.quad

        self.charge = z_vals
        self.eps1 = h * z_vals - c * e_vals
        self.p1prime = 2 * pi * e_vals

        self._phase_cache: dict = {}
        self._line_cache: dict = {}  # saddles: v-independent carrier-line curves
        self.p_F = self._compute_p1(q)

        # positivity checks demanded of every solved set
        nodes = self.quad.nodes
        if np.any(self.p1prime <= 0):
            raise ConsistencyError("p'_1 not positive on the Fermi segment")
        end_eps = abs(self.eps_r(q))
        if end_eps > 1e-8 * max(h, 1.0):
            raise ConsistencyError(f"eps_1(q) = {end_eps:.3e} not zero within tolerance")
        interior = nodes[np.abs(nodes) < q * 0.995]
        if np.any(self.eps1[np.abs(nodes) < q * 0.995] >= 0) and len(interior):
            raise ConsistencyError("eps_1 not negative inside the Fermi zone")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _find_q(J, zeta, h, order, c) -> float:
        hc = h_critical(J, zeta)
        if h >= hc:
            raise BracketError(f"h={h} >= h_c={hc}: no Fermi endpoint exists")

        def endpoint(Q):
            return _endpoint_energy(zeta, Q, order, h, c)

        lo = 1e-6
        f_lo = endpoint(lo)
        if f_lo >= 0:
            raise BracketError("endpoint dressed energy not negative at q -> 0")
        hi = 1.0
        while (f_hi := endpoint(hi)) < 0:
            hi *= 2.0
            if hi > 64.0:
                raise BracketError(
                    f"no sign change of eps(Q|Q) up to Q=64 (h={h}, h_c={hc})"
                )
        return find_root_bracketed(endpoint, lo, hi, tol=1e-12, fa=f_lo, fb=f_hi)

    # -- dressed energies and momentum derivatives ---------------------------

    def _extend(self, lam, r: int, *terms):
        """const + coef K^(k)(lam|r zeta/2) - _conv(lam, values, r, k) for
        each term (k, const, coef, values), as a list, from one pole guard,
        one `_conv` pass and one driving-term kernel call.

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
            lam_arr = np.asarray(lam)
            if lam_arr.dtype.kind != "c":
                ims = [0.0]
            else:
                imag = lam_arr.imag.ravel()
                # the points of one carrier line share one Im: no sort
                ims = ([float(imag[0])] if imag.size and np.all(imag == imag[0])
                       else np.unique(imag).tolist())
            for im in ims:
                if min(_pole_line_distance(im, w_hat(e)) for e in etas) < EXTENSION_POLE_GUARD:
                    raise PoleProximityError(
                        f"evaluation at Im(lam)={im} within {EXTENSION_POLE_GUARD} "
                        "of a kernel pole line"
                    )
        orders, consts, coefs, values = zip(*terms)
        conv = _conv(self.quad, self.zeta, lam, values, r, orders)
        drive = kernel_k(lam, r * self.zeta / 2, orders)
        return [const + coef * K - cv for const, coef, K, cv in zip(consts, coefs, drive, conv)]

    def _eps_term(self, r: int, k: int):
        return k, r * self.h if k == 0 else 0, -4 * pi * self.J * sin(self.zeta), self.eps1

    def _p_term(self, k: int):
        if k < 1:
            raise ValidationError(f"p_r_d needs a derivative order k >= 1, got {k}")
        return k - 1, 0, 2 * pi, self.p1prime

    def eps_r(self, lam, r: int = 1, k: int = 0):
        """k-th lam-derivative of the dressed energy of the r-string,
        evaluable on and off its carrier line."""
        return self._extend(lam, r, self._eps_term(r, k))[0]

    def p_r_d(self, lam, r: int = 1, k: int = 1):
        """k-th lam-derivative (k >= 1) of the dressed momentum p_r."""
        return self._extend(lam, r, self._p_term(k))[0]

    def p_eps_d(self, lam, r: int = 1, k: int = 1):
        """(p_r^(k), eps_r^(k)) for k >= 1, equal to (p_r_d, eps_r) bit for
        bit, from one `_extend` pass over kernel orders (k - 1, k)."""
        return tuple(self._extend(lam, r, self._p_term(k), self._eps_term(r, k)))

    @staticmethod
    def _reduce_periodic(lam: complex) -> complex:
        """Shift Im(lam) into (-pi/2, pi/2] by the i pi periodicity."""
        k = math.ceil((lam.imag - pi / 2) / pi - 1e-15)
        return complex(lam.real, lam.imag - k * pi)

    def _compute_p1(self, lam_real: float) -> float:
        theta_vals = bare_phase_1(lam_real - self.quad.nodes, self.zeta)
        conv = np.sum(self.quad.weights * theta_vals * self.p1prime) / (2 * pi)
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
        conv = np.sum(self.quad.weights * theta_vals * self.p1prime) / (2 * pi)
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

    def dressed_phase(self, r: int, mu: complex) -> np.ndarray:
        """Node values of phi_r(., mu) on [-q, q], solved once per (r, mu) and
        read-only."""
        key = (r, round(complex(mu).real, 12), round(complex(mu).imag, 12))
        values = self._phase_cache.get(key)
        if values is not None:
            return values
        mu = complex(mu)
        x = self.quad.nodes - (mu.real if abs(mu.imag) < 1e-14 else mu)
        driving_vals = self._phase_driving(r, x)

        if np.iscomplexobj(driving_vals) and np.max(np.abs(driving_vals.imag)) > 0:
            values = self.lu.solve(driving_vals.real) + 1j * self.lu.solve(
                driving_vals.imag
            )
        else:
            values = self.lu.solve(driving_vals.real)

        values.flags.writeable = False  # shared by every later call
        self._phase_cache[key] = values
        return values

    def phi(self, r: int, lam, mu):
        """phi_r(lam, mu): the bare-phase driving minus `_conv` of the node values."""
        values = self.dressed_phase(r, mu)
        z = np.asarray(lam, dtype=complex) - mu
        # flat, so that bare_phase returns an array for a scalar lam too
        driving = self._phase_driving(r, z.reshape(-1)).reshape(z.shape)
        return driving - _conv(self.quad, self.zeta, lam, values)

    def _phase_driving(self, r: int, z):
        """theta_r(z) / 2 pi + m_r / 2, the driving term of phi_r at z = lam - mu."""
        sc = string_combinatorics(r, self.zeta)
        return bare_phase(z, r, self.zeta) / (2 * pi) + sc.m_r / 2

    def Z(self, lam):
        """Dressed charge Z(lam): driving 1 minus `_conv` of its node values;
        a real dtype on the lines Im lam = 0 and +-pi/2."""
        return 1.0 - _conv(self.quad, self.zeta, lam, self.charge)

    def magnetization_density(self) -> float:
        """D = p_F / pi, cross-checked against the root-density integral."""
        d1 = self.p_F / pi
        d2 = float(np.sum(self.quad.weights * self.p1prime)) / (2 * pi)
        if abs(d1 - d2) > 1e-10:
            raise ConsistencyError(
                f"magnetization routes disagree: p_F/pi={d1!r}, int rho={d2!r}"
            )
        return d1


def solve_dressed_set(params: ModelParams) -> DressedSet:
    return DressedSet(params)
