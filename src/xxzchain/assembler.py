"""Assembly of the long-distance / large-time expansion terms.

Excited states are labelled by Umklapp deficiencies ell_{+-} on the two
Fermi boundaries together with counts of massive modes: holes and
particles of the fundamental species and bound states of length r >= 2.
Each admissible configuration contributes one term to the asymptotic
expansion of a two-point function, with

  * a universal amplitude C_n built from Barnes G values and the local
    curvature of the phase function u_r at its saddle points,
  * a pair of boundary exponents Delta_{+-} assembled from the dressed
    charge and dressed phases evaluated at the saddle rapidities,
  * a saddle exponent Delta_sp = (1/2) sum n^2 and an oscillatory phase
    phi_n(v) = sum n u_r(omega, v),
  * an opaque placeholder standing for the non-universal form-factor
    amplitude, which this package deliberately does not evaluate.

Three velocity regimes occur.  Above every saddle-supporting threshold
only the Umklapp (conformal) terms survive and the exponents close in
terms of the dressed charge alone.  Below, the space-like (|v| > v_F)
and time-like (|v| < v_F) regimes attach massive counts to the saddle
points inventoried by a StructureReport; kappa_v = +1 resp. -1 switches
between the particle and hole interpretation of the real-line count n0.
When the saddle structure is not minimal the bound-state counts are
carried per saddle point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RegimeMismatchError, ValidationError
from .quadrature import barnes_g
from .saddles import StructureReport, u_r
from .strings import string_exists

REAL_TOL = 1e-8

REGIMES = ("conformal", "space-like", "time-like", "general")


# ---------------------------------------------------------------------------
# configuration and rapidity containers


@dataclass(frozen=True)
class ExcitationConfig:
    """Integer labels of one term of the expansion.

    ``n_r`` maps each bound-state length r >= 2 to a tuple of per-saddle
    counts (length one in the minimal saddle structure).  ``n0`` counts
    real-line massive modes -- holes in the time-like regime, particles
    in the space-like one -- and ``n1`` the second fundamental saddle.
    """

    ell_plus: int
    ell_minus: int
    n0: int
    n1: int
    n_r: tuple = ()
    s_gamma: int = 0

    def __post_init__(self):
        if self.s_gamma not in (-1, 0, 1):
            raise ValidationError(f"operator spin must be in {{-1,0,1}}: {self.s_gamma}")
        if self.n0 < 0 or self.n1 < 0:
            raise ValidationError("massive counts must be nonnegative")
        for r, counts in self.n_r:
            if r < 2:
                raise ValidationError(f"per-length counts start at r=2, got r={r}")
            if any(c < 0 for c in counts):
                raise ValidationError("massive counts must be nonnegative")

    def string_counts(self) -> dict:
        return {r: tuple(counts) for r, counts in self.n_r}

    def spin_sum(self, kappa_v: int) -> int:
        """ell_+ + ell_- + kappa_v n0 + n1 + sum r n_r."""
        total = self.ell_plus + self.ell_minus + kappa_v * self.n0 + self.n1
        for r, counts in self.n_r:
            total += r * sum(counts)
        return total

    def massive_total(self) -> int:
        return self.n0 + self.n1 + sum(sum(c) for _, c in self.n_r)

    def sort_key(self):
        flat = tuple(
            itertools.chain.from_iterable((r,) + tuple(c) for r, c in self.n_r)
        )
        return (self.ell_plus, self.ell_minus, self.n0, self.n1, flat)


def make_config(ell_plus, ell_minus, n0=0, n1=0, strings=None, s_gamma=0):
    """Build an ExcitationConfig; ``strings`` maps r to int or tuple."""
    rows = []
    for r in sorted(strings or {}):
        counts = strings[r]
        if isinstance(counts, int):
            counts = (counts,)
        rows.append((int(r), tuple(int(c) for c in counts)))
    return ExcitationConfig(
        int(ell_plus), int(ell_minus), int(n0), int(n1), tuple(rows), int(s_gamma)
    )


@dataclass(frozen=True)
class RapiditySet:
    """Rapidities of one excited state, gathered as a set function input.

    ``particles`` are fundamental-species rapidities (real outside the
    Fermi zone or on the line Im = pi/2); ``strings`` maps r >= 2 to the
    rapidities of r-bound states on their carrier line.
    """

    s_gamma: int
    ell_plus: int
    ell_minus: int
    holes: tuple = ()
    particles: tuple = ()
    strings: tuple = ()

    def string_items(self):
        return [(r, tuple(vals)) for r, vals in self.strings]


def _check_domains(Y: RapiditySet, ds) -> None:
    for mu in Y.holes:
        if abs(complex(mu).imag) > REAL_TOL:
            raise ValidationError(f"hole rapidity must be real: {mu!r}")
    for nu in Y.particles:
        im = complex(nu).imag
        if min(abs(im), abs(im - math.pi / 2)) > REAL_TOL:
            raise ValidationError(f"particle rapidity off its carrier lines: {nu!r}")
    for r, vals in Y.string_items():
        spec = string_exists(r, ds.zeta)
        for nu in vals:
            if abs(complex(nu).imag - spec.line_im) > REAL_TOL:
                raise ValidationError(
                    f"{r}-string rapidity off the line Im = {spec.line_im!r}: {nu!r}"
                )


def conformal_rapidity_set(ell: int, s_gamma: int = 0) -> RapiditySet:
    """Pure-Umklapp state labelled so that theta_upsilon closes as
    ell*Z(q) - upsilon*s_gamma/(2 Z(q)).

    The label ell runs over all integers, so the family is invariant
    under ell -> -ell; this particular assignment of the deficiencies
    (ell_+ = s_gamma - ell, ell_- = ell) is the one for which the
    closed-form exponent carries +ell*Z(q).
    """
    return RapiditySet(s_gamma=s_gamma, ell_plus=s_gamma - ell, ell_minus=ell)


def saddle_rapidity_set(config: ExcitationConfig,
                        structure: StructureReport) -> RapiditySet:
    """Place the configured counts on the saddle rapidities of structure."""
    sad0, sad1 = _fundamental_saddles(config, structure)
    kappa = _kappa(structure.v, structure.v_F)
    holes: tuple = ()
    particles: tuple = ()
    if kappa < 0:
        if config.n0:
            holes = (sad0.omega.real,) * config.n0
        if config.n1:
            particles = (sad1.omega,) * config.n1
    else:
        if config.n0:
            particles += (sad0.omega,) * config.n0
        if config.n1:
            particles += (sad1.omega,) * config.n1
    rows = []
    for r, counts in config.n_r:
        sads = _string_saddles(r, counts, structure)
        vals = []
        for s, c in zip(sads, counts):
            vals.extend([s.omega] * c)
        if vals:
            rows.append((r, tuple(vals)))
    return RapiditySet(
        s_gamma=config.s_gamma,
        ell_plus=config.ell_plus,
        ell_minus=config.ell_minus,
        holes=holes,
        particles=particles,
        strings=tuple(rows),
    )


# ---------------------------------------------------------------------------
# set functions: energy, momentum, shift exponents


def excitation_energy_momentum(Y: RapiditySet, v: float, ds):
    """(E, P, U) of the excited state Y at velocity ratio v.

    E and P are the dressed energy and momentum totals relative to the
    ground state; U = P - E/v - pi*s collects the reduced phase whose
    stationary points drive the saddle analysis.
    """
    if v == 0:
        raise ValidationError("velocity ratio v must be nonzero")
    _check_domains(Y, ds)
    E = 0.0 + 0.0j
    P = 0.0 + 0.0j
    for nu in Y.particles:
        E += complex(ds.eps_r(nu, 1))
        P += complex(ds.p_r(nu, 1))
    for r, vals in Y.string_items():
        for nu in vals:
            E += complex(ds.eps_r(nu, r))
            P += complex(ds.p_r(nu, r))
    for mu in Y.holes:
        E -= complex(ds.eps_r(mu, 1))
        P -= complex(ds.p_r(mu, 1))
    P += ds.p_F * (Y.ell_plus - Y.ell_minus) + math.pi * Y.s_gamma
    U = P - E / v - math.pi * Y.s_gamma
    E_out = _realize(E, "excitation energy")
    P_out = _realize(P, "excitation momentum")
    return E_out, P_out, complex(U)


def _realize(val: complex, label: str) -> float:
    if abs(val.imag) > REAL_TOL * max(1.0, abs(val)):
        raise ValidationError(f"{label} has a non-negligible imaginary part: {val!r}")
    return float(val.real)


def shift_exponent(omega, Y: RapiditySet, ds) -> float:
    """theta(omega | Y): the boundary exponent kernel of the state Y.

    Sum of dressed phases seen from omega -- holes enter with +phi_1,
    particles and strings with -phi_r, the Umklapp deficiencies through
    the endpoint phases, and the operator spin through Z(omega)/2.
    """
    _check_domains(Y, ds)
    val = 0.0 + 0.0j
    for mu in Y.holes:
        val += ds.phi(1, omega, mu)
    val += 0.5 * Y.s_gamma * complex(ds.Z(omega))
    for nu in Y.particles:
        val -= ds.phi(1, omega, nu)
    for r, vals in Y.string_items():
        for nu in vals:
            val -= ds.phi(r, omega, nu)
    for upsilon, ell in ((1, Y.ell_plus), (-1, Y.ell_minus)):
        if ell:
            val -= ell * ds.phi(1, omega, upsilon * ds.q)
    if abs(complex(omega).imag) < REAL_TOL:
        return _realize(val, "shift exponent at real omega")
    return complex(val)


def theta_upsilon(Y: RapiditySet, upsilon: int, ds) -> float:
    """Critical exponent of the Fermi boundary upsilon*q for the state Y."""
    if upsilon not in (1, -1):
        raise ValidationError(f"upsilon must be +1 or -1: {upsilon}")
    ell = Y.ell_plus if upsilon == 1 else Y.ell_minus
    return shift_exponent(upsilon * ds.q, Y, ds) - upsilon * ell


def conformal_exponent(ell: int, s_gamma: int, upsilon: int, ds) -> float:
    """Closed form ell*Z(q) - upsilon*s_gamma / (2 Z(q))."""
    Zq = float(ds.Z(ds.q))
    return ell * Zq - upsilon * s_gamma / (2.0 * Zq)


# ---------------------------------------------------------------------------
# enumeration


def _kappa(v: float, v_F: float) -> int:
    return -1 if abs(v) < v_F else 1


def enumerate_configs(s_gamma: int, regime: str, bound: int, catalog,
                      structure: StructureReport | None = None):
    """All configurations of the given regime with counts capped by bound.

    ``catalog`` is a list of StringSpec entries (only existing r >= 2 are
    used).  The general regime requires a StructureReport and attaches
    per-saddle slots to every bound-state species with saddle points.
    Output order is lexicographic in (ell_+, ell_-, n0, n1, n_r).
    """
    if regime not in REGIMES:
        raise ValidationError(f"unknown regime {regime!r}")
    if bound < 1:
        raise ValidationError("enumeration bound must be positive")
    if s_gamma not in (-1, 0, 1):
        raise ValidationError(f"operator spin must be in {{-1,0,1}}: {s_gamma}")

    if regime == "conformal":
        configs = [
            make_config(s_gamma - ell, ell, s_gamma=s_gamma)
            for ell in range(-bound, bound + 1)
        ]
        return sorted(configs, key=ExcitationConfig.sort_key)

    if regime == "general":
        if structure is None:
            raise ValidationError("general-regime enumeration needs a StructureReport")
        kappa = _kappa(structure.v, structure.v_F)
        slot_species = [
            (r, structure.counts.get(r, 0))
            for r in sorted(structure.n_sp)
            if r >= 2 and structure.counts.get(r, 0) > 0
        ]
        allow_n0 = structure.counts.get(0, 0) == 1
        allow_n1 = structure.counts.get(1, 0) == 1
    else:
        kappa = 1 if regime == "space-like" else -1
        slot_species = [
            (spec.r, 1) for spec in catalog or [] if spec.r >= 2 and spec.exists
        ]
        allow_n0 = allow_n1 = True

    configs = []
    slot_sizes = [n for _, n in slot_species]
    for n0 in range(bound + 1 if allow_n0 else 1):
        for n1 in range(bound + 1 if allow_n1 else 1):
            for counts in _count_vectors(sum(slot_sizes), bound):
                strings = {}
                pos = 0
                for (r, size) in slot_species:
                    chunk = counts[pos:pos + size]
                    pos += size
                    if any(chunk):
                        strings[r] = chunk
                massive = kappa * n0 + n1 + sum(
                    r * sum(c) for r, c in strings.items()
                )
                for ell_plus in range(-bound, bound + 1):
                    ell_minus = s_gamma - massive - ell_plus
                    if abs(ell_minus) > bound:
                        continue
                    configs.append(
                        make_config(ell_plus, ell_minus, n0, n1, strings, s_gamma)
                    )
    return sorted(configs, key=ExcitationConfig.sort_key)


def _count_vectors(nslots: int, cap: int):
    """Non-negative count vectors of length nslots with sum <= cap.

    Yields them in lexicographic order, the order of the filtered
    ``itertools.product``, but visits only the C(nslots + cap, cap) kept
    vectors.
    """
    if cap < 0:
        return
    counts = [0] * nslots
    total = 0
    while True:
        yield tuple(counts)
        # zero trailing slots until one can be raised within the cap
        i = nslots - 1
        while i >= 0 and total >= cap:
            total -= counts[i]
            counts[i] = 0
            i -= 1
        if i < 0:
            return
        counts[i] += 1
        total += 1


# ---------------------------------------------------------------------------
# term assembly


@dataclass(frozen=True)
class AsymptoticTerm:
    """One fully assembled term of the asymptotic expansion."""

    config: ExcitationConfig
    C_n: complex
    delta_plus: float
    delta_minus: float
    delta_sp: float
    phase: float
    wavevector: float
    amplitude_placeholder: RapiditySet = field(compare=False)

    @property
    def total_exponent(self) -> float:
        return self.delta_plus ** 2 + self.delta_minus ** 2 + self.delta_sp


def _fundamental_saddles(config: ExcitationConfig,
                         structure: StructureReport | None):
    """(omega_0, omega_1) as complex numbers, validated against the counts."""
    om = [None, None]
    for a, n in ((0, config.n0), (1, config.n1)):
        if n == 0:
            continue
        if structure is None:
            raise RegimeMismatchError(
                "massive counts present but no saddle structure was supplied"
            )
        sads = structure.saddles.get(a, [])
        if len(sads) != 1:
            raise RegimeMismatchError(
                f"fundamental line {a} carries {len(sads)} saddle points; "
                f"a single one is required for the count n{a}={n}"
            )
        om[a] = sads[0]
    return om


def _string_saddles(r: int, counts, structure: StructureReport | None):
    if structure is None:
        raise RegimeMismatchError(
            "massive counts present but no saddle structure was supplied"
        )
    sads = structure.saddles.get(r, [])
    if r not in structure.n_sp or not sads:
        raise RegimeMismatchError(
            f"no saddle points available for {r}-strings at v={structure.v!r}"
        )
    if len(counts) != len(sads):
        raise RegimeMismatchError(
            f"{r}-strings carry {len(sads)} saddle points but the "
            f"configuration lists {len(counts)} counts"
        )
    return sads


def assemble_term(config: ExcitationConfig, v: float, ds,
                  structure: StructureReport | None = None) -> AsymptoticTerm:
    """Assemble amplitude, exponents and phase of one configuration.

    Non-integer powers use the principal branch.  The symbolic factor
    (-i(upsilon m - v_F t))^(Delta^2) is documented through delta_plus /
    delta_minus only; m and t never enter numerically.
    """
    if v == 0:
        raise ValidationError("velocity ratio v must be nonzero")
    if structure is not None and abs(structure.v - v) > 1e-12 * max(1.0, abs(v)):
        raise ValidationError("structure was computed at a different velocity")
    v_F = structure.v_F if structure is not None else None
    if config.massive_total() and structure is None:
        raise RegimeMismatchError(
            "massive counts present but no saddle structure was supplied"
        )
    kappa = _kappa(v, v_F) if v_F is not None else 1
    if config.spin_sum(kappa) != config.s_gamma:
        raise ValidationError(
            "configuration violates the spin constraint: "
            f"{config!r} with kappa_v={kappa}"
        )

    sad0, sad1 = _fundamental_saddles(config, structure)

    C = 1.0 + 0.0j
    phase = 0.0 + 0.0j
    delta_sp = 0.5 * (config.n0 ** 2 + config.n1 ** 2)

    for a, n, sad in ((0, config.n0, sad0), (1, config.n1, sad1)):
        if n == 0:
            continue
        sgn_p = _momentum_slope_sign(ds, 1, sad.omega)
        C *= barnes_g(1 + n) * (sgn_p ** n) / (2 * math.pi) ** (n / 2.0)
        top = 1j * kappa if a == 0 else 1j
        C *= (top / complex(sad.u_second)) ** (0.5 * n ** 2)
        coef = kappa * n if a == 0 else n
        phase += coef * _saddle_u(ds, 1, sad.omega, v)

    for r, counts in config.n_r:
        if not any(counts):
            continue
        sads = _string_saddles(r, counts, structure)
        for sad, n in zip(sads, counts):
            if n == 0:
                continue
            delta_sp += 0.5 * n ** 2
            sgn_p = _momentum_slope_sign(ds, r, sad.omega)
            C *= barnes_g(1 + n) * (sgn_p ** n) / (2 * math.pi) ** (n / 2.0)
            C *= (-1j * complex(sad.u_second)) ** (-0.5 * n ** 2)
            phase += n * _saddle_u(ds, r, sad.omega, v)

    deltas = {}
    for upsilon in (1, -1):
        ell = config.ell_plus if upsilon == 1 else config.ell_minus
        val = -upsilon * ell + 0.5 * config.s_gamma * float(ds.Z(ds.q))
        if config.n0:
            val -= kappa * config.n0 * _real_phase(ds, 1, upsilon, sad0.omega)
        if config.n1:
            val -= config.n1 * _real_phase(ds, 1, upsilon, sad1.omega)
        for r, counts in config.n_r:
            sads = _string_saddles(r, counts, structure) if any(counts) else []
            for sad, n in zip(sads, counts):
                if n:
                    val -= n * _real_phase(ds, r, upsilon, sad.omega)
        for up2, ell2 in ((1, config.ell_plus), (-1, config.ell_minus)):
            if ell2:
                val -= ell2 * _real_phase(ds, 1, upsilon, up2 * ds.q)
        deltas[upsilon] = val

    if structure is not None:
        placeholder = saddle_rapidity_set(config, structure)
    else:
        placeholder = RapiditySet(
            s_gamma=config.s_gamma,
            ell_plus=config.ell_plus,
            ell_minus=config.ell_minus,
        )
    return AsymptoticTerm(
        config=config,
        C_n=complex(C),
        delta_plus=deltas[1],
        delta_minus=deltas[-1],
        delta_sp=delta_sp,
        phase=_realize(phase, "oscillatory phase"),
        wavevector=ds.p_F * (config.ell_plus - config.ell_minus)
        + math.pi * config.s_gamma,
        amplitude_placeholder=placeholder,
    )


def _saddle_value(ds, key, compute) -> complex:
    """compute() as a complex, once per key and solved set. Exceptions are not
    stored, so a failing evaluation raises again at every call."""
    val = ds._saddle_cache.get(key)
    if val is None:
        val = ds._saddle_cache[key] = complex(compute())
    return val


def _saddle_u(ds, r: int, omega: complex, v: float) -> complex:
    return _saddle_value(
        ds, ("u", r, omega, v), lambda: np.asarray(u_r(omega, v, r, ds)).item()
    )


def _momentum_slope_sign(ds, r: int, omega: complex) -> int:
    slope = _saddle_value(
        ds, ("slope", r, omega), lambda: np.asarray(ds.p_r_d(omega, r)).item()
    )
    if abs(slope.imag) > 1e-6 * max(1.0, abs(slope)):
        raise ValidationError(
            f"momentum slope not real on the carrier line at {omega!r}: {slope!r}"
        )
    return 1 if slope.real > 0 else -1


def _real_phase(ds, r: int, upsilon: int, mu: complex) -> float:
    val = _saddle_value(ds, ("phi", r, upsilon, mu), lambda: ds.phi(r, upsilon * ds.q, mu))
    return _realize(val, f"dressed phase phi_{r} at the Fermi boundary")


def rank_terms(terms):
    """Terms ordered by ascending total algebraic decay exponent."""
    terms = list(terms)
    if not terms:
        raise ValidationError("rank_terms needs a nonempty list")
    return sorted(terms, key=lambda t: (t.total_exponent,) + t.config.sort_key())
