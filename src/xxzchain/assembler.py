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
    phi_n(v) = sum n u_r(omega, v).

The non-universal form-factor amplitude is not evaluated.  A table is
assembled in one pass (`assemble_terms`): the few numbers each occupied
saddle contributes are evaluated once, and every configuration walks its
occupied saddles once.

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
from dataclasses import dataclass

import numpy as np

from .errors import RegimeMismatchError, ValidationError
from .quadrature import barnes_g
from .saddles import StructureReport, u_r

REAL_TOL = 1e-8

REGIMES = ("conformal", "space-like", "time-like", "general")


# ---------------------------------------------------------------------------
# configurations


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

    @property
    def total_exponent(self) -> float:
        return self.delta_plus ** 2 + self.delta_minus ** 2 + self.delta_sp


def _occupied(config: ExcitationConfig, kappa: int,
              structure: StructureReport | None) -> list:
    """(saddle, count) for each nonzero count of config: n0, n1, then the
    strings. Raises where config breaks the spin constraint or a count has
    no saddle to sit on."""
    if config.massive_total() and structure is None:
        raise RegimeMismatchError(
            "massive counts present but no saddle structure was supplied"
        )
    if config.spin_sum(kappa) != config.s_gamma:
        raise ValidationError(
            "configuration violates the spin constraint: "
            f"{config!r} with kappa_v={kappa}"
        )
    occupied = []
    for a, n in ((0, config.n0), (1, config.n1)):
        if n == 0:
            continue
        sads = structure.saddles.get(a, [])
        if len(sads) != 1:
            raise RegimeMismatchError(
                f"fundamental line {a} carries {len(sads)} saddle points; "
                f"a single one is required for the count n{a}={n}"
            )
        occupied.append((sads[0], n))
    for r, counts in config.n_r:
        if not any(counts):
            continue
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
        occupied += [(sad, n) for sad, n in zip(sads, counts) if n]
    return occupied


def _realize(val: complex, label: str) -> float:
    if abs(val.imag) > REAL_TOL * max(1.0, abs(val)):
        raise ValidationError(f"{label} has a non-negligible imaginary part: {val!r}")
    return float(val.real)


def _fermi_phases(ds, r: int, mu: complex) -> dict:
    """{upsilon: phi_r(upsilon q, mu)} for upsilon = +-1, checked real, from
    one `DressedSet.boundary_phases` call."""
    return {
        upsilon: _realize(complex(val), f"dressed phase phi_{r} at the Fermi boundary")
        for upsilon, val in zip((1, -1), ds.boundary_phases(r, mu))
    }


def _saddle_data(ds, sad, v: float):
    """(sgn p_r'(omega) from `sad.slope`, u_r(omega, v), `_fermi_phases`) at one saddle."""
    r = max(sad.r, 1)
    slope = sad.slope
    if abs(slope.imag) > 1e-6 * max(1.0, abs(slope)):
        raise ValidationError(
            f"momentum slope not real on the carrier line at {sad.omega!r}: {slope!r}"
        )
    u = sad.u_value
    if u is None:  # hat reduction pi/2: u_r raises its ValidationError again
        u = complex(np.asarray(u_r(sad.omega, v, r, ds)).item())
    return (1 if slope.real > 0 else -1), u, _fermi_phases(ds, r, sad.omega)


def assemble_terms(configs, v: float, ds,
                   structure: StructureReport | None = None) -> list[AsymptoticTerm]:
    """Amplitude, exponents and phase of each configuration, in one pass.

    Every configuration is validated first. Then each occupied saddle is
    evaluated once (u_r is read from the saddle, at structure.v), Z(q) and
    phi_1(+-q, +-q) once per call, and each configuration walks its
    occupied saddles once. Non-integer powers use the principal branch.
    The symbolic factor (-i(upsilon m - v_F t))^(Delta^2) is documented
    through delta_plus / delta_minus only; m and t never enter numerically.
    """
    if v == 0:
        raise ValidationError("velocity ratio v must be nonzero")
    if structure is not None and abs(structure.v - v) > 1e-12 * max(1.0, abs(v)):
        raise ValidationError("structure was computed at a different velocity")
    kappa = _kappa(v, structure.v_F) if structure is not None else 1
    rows = [(config, _occupied(config, kappa, structure)) for config in configs]

    slots = {}
    for _, occupied in rows:
        for sad, _ in occupied:
            if sad not in slots:
                slots[sad] = _saddle_data(ds, sad, structure.v)
    Zq = complex(ds.Z(ds.q)).real
    umklapp = {up2: _fermi_phases(ds, 1, up2 * ds.q) for up2 in (1, -1)}

    terms = []
    for config, occupied in rows:
        C = 1.0 + 0.0j
        phase = 0.0 + 0.0j
        delta_sp = 0.0
        deltas = {
            upsilon: -upsilon * ell + 0.5 * config.s_gamma * Zq
            for upsilon, ell in ((1, config.ell_plus), (-1, config.ell_minus))
        }
        for sad, n in occupied:
            sgn_p, u, phis = slots[sad]
            # the real-line count n0 enters with kappa_v: holes or particles
            weight = kappa * n if sad.r == 0 else n
            C *= barnes_g(1 + n) * (sgn_p ** n) / (2 * math.pi) ** (n / 2.0)
            if sad.r < 2:
                top = 1j * kappa if sad.r == 0 else 1j
                C *= (top / complex(sad.u_second)) ** (0.5 * n ** 2)
            else:
                C *= (-1j * complex(sad.u_second)) ** (-0.5 * n ** 2)
            phase += weight * u
            delta_sp += 0.5 * n ** 2
            for upsilon in deltas:
                deltas[upsilon] -= weight * phis[upsilon]
        for up2, ell2 in ((1, config.ell_plus), (-1, config.ell_minus)):
            if ell2:
                for upsilon in deltas:
                    deltas[upsilon] -= ell2 * umklapp[up2][upsilon]
        terms.append(AsymptoticTerm(
            config=config,
            C_n=complex(C),
            delta_plus=deltas[1],
            delta_minus=deltas[-1],
            delta_sp=delta_sp,
            phase=_realize(phase, "oscillatory phase"),
            wavevector=ds.p_F * (config.ell_plus - config.ell_minus)
            + math.pi * config.s_gamma,
        ))
    return terms

def rank_terms(terms):
    """Terms ordered by ascending total algebraic decay exponent."""
    terms = list(terms)
    if not terms:
        raise ValidationError("rank_terms needs a nonempty list")
    return sorted(terms, key=lambda t: (t.total_exponent,) + t.config.sort_key())
