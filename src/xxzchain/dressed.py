"""Dressed thermodynamic observables on the Fermi segment [-q, q].

The dressed energy eps_1, momentum derivative p_1', charge Z and phases
phi_r each solve f + int_{-q}^{q} K(. - x|zeta) f(x) dx = g for their own
driving term g, against one LU-factored Nystrom matrix A = I + K W;
`DressedSet` keeps the node values of the first three. In h mode, the Fermi
endpoint q comes first, from eps(q|q) = 0 (Korepin, Bogoliubov and Izergin
1993, ch. I): `_find_q` takes safeguarded Newton steps on log H(Q) =
log(c E(Q) / Z(Q)) = log h, where Z and E are the unit- and K(.|zeta/2)-driven
solutions on [-Q, Q] at Q. Each step is one LU of the even half of the system
(every driving term is even) with two solves; the slope d log H / dQ needs
none more.

Every value off the nodes, complex ones included, is the defining equation
itself: the driving term minus `_conv`, the quadrature of K_r^(k) against
node values (the Nystrom interpolant; Atkinson 1997, ch. 4). `eps_r` and
`p_r_d` give the k-th lam-derivative of eps_r and p_r for every string
length r this way, `Z` the r = 1, k = 0 case. `p_eps_d` gives
p_r^(k) and eps_r^(k) from one pass over kernel orders k - 1 and k, which
shares the pole guard, cosh, sinh, far-field tables and kernel blocks.
The phases phi_r(., mu) are needed only at the Fermi boundaries:
`boundary_phases` reads them there from two adjoint node vectors, solved once
per set, and no node values of phi_r.

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
from functools import cached_property
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
    gauss_legendre,
)

EXTENSION_POLE_GUARD = 1e-4
_Q_MAX = 64.0  # the h-mode search gives up beyond this Fermi endpoint
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


def _endpoint_parts(zeta: float, Q: float, order: int, h: float, c: float):
    """(F, Z, E, d log H / dQ) at Q. Z and E are the unit-driving and
    K(.|zeta/2)-driving solutions on [-Q, Q] at lam = Q, H = c E / Z, and
    F = h Z - c E = eps(Q|Q), summed from the node values of eps as a solve
    with the driving term h - c K(.|zeta/2) would be, which keeps its rounding
    small where the two terms cancel. One even-half Nystrom build and two
    solves: both driving terms are even and the rule symmetric, so the node
    values are even."""
    half = gauss_legendre(order, -Q, Q).even_half()
    x, w = half.nodes, half.weights
    lu = NystromLU(lambda l, m: kernel_k(l - m, zeta) + kernel_k(l + m, zeta), half)
    z_vals = lu.solve(np.ones(x.size))
    e_vals = lu.solve(kernel_k(x, zeta / 2))
    k0, k1 = kernel_k(Q + np.stack((-x, x)), zeta, (0, 1))
    row, drow = w * (k0[0] + k0[1]), w * (k1[0] + k1[1])
    g0, g1 = kernel_k(Q, zeta / 2, (0, 1))
    z, e = 1.0 - row @ z_vals, g0 - row @ e_vals
    F = h - c * g0 - row @ (h * z_vals - c * e_vals)
    return F, z, e, (g1 - drow @ e_vals) / e + (drow @ z_vals) / z


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
        """The root of F(Q) = eps(Q|Q) = h Z(Q) - c E(Q) by Newton on
        log H(Q) = log(c E / Z) = log h, safeguarded by the sign bracket of F.

        F(0+) = h - c K(0|zeta/2) = h - h_c < 0. Every solution f on [-Q, Q]
        with a Q-independent driving term has d f / dQ = -f(Q) psi, with psi
        driven by K(. - Q) + K(. + Q): the psi terms cancel, and
        d log H / dQ = E'/E - Z'/Z needs no third solve. F itself flattens like
        e^(-2Q) and is not monotone near 0 for zeta > pi/2. A Newton step that
        leaves the bracket, or H <= 0, bisects it, or doubles Q while no upper
        end is known. The search stops at a step or bracket of at most
        1e-14 max(1, Q). A sign change whose |F| stays above the end limit of
        `DressedSet` is a pole of F, not a root, and raises BracketError.
        """
        hc = h_critical(J, zeta)
        if h >= hc:
            raise BracketError(f"h={h} >= h_c={hc}: no Fermi endpoint exists")
        lo, hi, Q = 0.0, None, 1.0
        while True:
            F, _, e, slope = _endpoint_parts(zeta, Q, order, h, c)
            if F < 0:
                lo = Q
                if Q >= _Q_MAX:
                    raise BracketError(
                        f"no sign change of eps(Q|Q) up to Q={_Q_MAX} (h={h}, h_c={hc})"
                    )
            else:
                hi = Q
            top = _Q_MAX if hi is None else hi
            # log(H / h) = -log1p(F / c E), from the F with the smaller rounding
            ratio = F / (c * e)
            nxt = Q + math.log1p(ratio) / slope if ratio > -1 and slope else math.nan
            tol = 1e-14 * max(1.0, Q)
            if abs(nxt - Q) <= tol:
                break
            if not lo < nxt < top:
                nxt = min(2 * Q, _Q_MAX) if hi is None else 0.5 * (lo + hi)
            if top - lo <= tol:
                break
            Q = nxt
        if not abs(F) <= 1e-8 * max(h, 1.0):
            raise BracketError(
                f"eps(Q|Q) changes sign at Q={Q} with |eps| = {abs(F):.3e}: a pole, not a root"
            )
        return nxt

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

    # -- boundary phases and charge ------------------------------------------

    @cached_property
    def _boundary_adjoint(self) -> np.ndarray:
        """Rows y_+ and y_- of A^T y_+- = W k_+-, k_+- = K(+-q - x_j|zeta): one
        transposed solve with two columns, on first use."""
        ends = np.array([[self.q], [-self.q]])
        k = kernel_k(ends - self.quad.nodes, self.zeta)
        return self.lu.solve((self.quad.weights * k).T, transpose=True).T

    def boundary_phases(self, r: int, mu) -> tuple:
        """(phi_r(q, mu), phi_r(-q, mu)), each g(+-q) - y_+-^T g(x) for the
        driving term g = theta_r(. - mu) / 2 pi + m_r / 2 and the nodes x. The
        node values f = A^-1 g(x) enter phi_r(+-q) = g(+-q) - k_+-^T W f only
        through this linear functional, so its adjoint y_+- stands in for f
        (Giles and Suli, Acta Numer. 11 (2002) 145)."""
        x = np.concatenate(([self.q, -self.q], self.quad.nodes)) - complex(mu)
        g = bare_phase(x, r, self.zeta) / (2 * pi) + string_combinatorics(r, self.zeta).m_r / 2
        return tuple(g[:2] - self._boundary_adjoint @ g[2:])

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
