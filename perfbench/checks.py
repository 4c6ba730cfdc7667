"""Output checks for the benchmark, built on work done outside the program.

Every check takes the program's parsed output plus the inputs that produced
it and returns a list of mismatch messages (empty when the output passes).
Nothing here imports ``xxzchain``: the oracles are the free-fermion closed
forms at zeta = pi/2, the finite-chain Bethe equations solved in numpy, the
paper's string classification intervals (own copy), Barnes G values and the
structural identities of the ranked exponent table.
"""
from __future__ import annotations

import math
from math import pi

import numpy as np

FREE_FERMION_TOL = 1e-11
J = 1.0  # the CLI's default coupling; no op passes --J
# finite-chain limits against the program (see README for the measured gaps)
BETHE_Q_TOL = 1e-4  # outermost root vs q
BETHE_REL_TOL = 1e-6  # relative, field h_L vs the input h and v_F
BETHE_SIZES = (400, 800, 1600)
EXPONENT_TOL = 1e-12
N2_GATE = 1e-6  # the gate `xxz verify` applies to the n=2 identity
VANDERMONDE_TOL = 1e-8

# Classification intervals of the r-strings, r = 2..8, as tabulated in the
# paper: (lo, hi, sigma, sign_factor) with the expected
# sgn p'_r = sign_factor * sgn sin(r zeta).
STRING_INTERVALS = {
    2: [(0, pi / 2, 0, 1), (pi / 2, pi, 0, 1)],
    3: [(0, pi / 3, 0, 1), (pi / 3, pi / 2, 0, 1),
        (pi / 2, 2 * pi / 3, 1, -1), (2 * pi / 3, pi, 1, -1)],
    4: [(0, pi / 3, 0, 1), (2 * pi / 3, pi, 0, 1)],
    5: [(0, pi / 4, 0, 1), (pi / 3, pi / 2, 1, -1),
        (pi / 2, 2 * pi / 3, 0, 1), (3 * pi / 4, pi, 1, -1)],
    6: [(0, pi / 5, 0, 1), (4 * pi / 5, pi, 0, 1)],
    7: [(0, pi / 6, 0, 1), (pi / 4, pi / 3, 1, -1),
        (2 * pi / 5, pi / 2, 0, 1), (pi / 2, 3 * pi / 5, 1, -1),
        (2 * pi / 3, 3 * pi / 4, 0, 1), (5 * pi / 6, pi, 1, -1)],
    8: [(0, pi / 7, 0, 1), (pi / 3, 2 * pi / 5, 0, 1),
        (3 * pi / 5, 2 * pi / 3, 0, 1), (6 * pi / 7, pi, 0, 1)],
}


def _close(a, b, tol) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol


# ---------------------------------------------------------------------------
# ground state


def free_fermion(h: float) -> dict:
    """Closed forms at zeta = pi/2 (J = 1), where the kernel vanishes."""
    q = 0.5 * math.acosh(4.0 / h)
    p_f = 2.0 * math.atan(math.tanh(q))
    return {"q": q, "p_F": p_f, "v_F": math.sqrt(16.0 - h * h),
            "v_inf": 4.0, "Z_q": 1.0, "D": p_f / pi}


def check_free_fermion(out: dict, h: float) -> list[str]:
    errs = []
    for key, val in free_fermion(h).items():
        if key in ("Z_q", "D") and key not in out:
            continue  # `velocities` reports neither
        if not _close(out.get(key), val, FREE_FERMION_TOL):
            errs.append(f"free fermion h={h!r}: {key}={out.get(key)!r}, "
                        f"closed form {val!r}")
    return errs


def check_ground_state(out: dict, zeta: float, h: float | None) -> list[str]:
    """Echoed inputs and the two routes to D of a massless solve/velocities."""
    errs = []
    if out.get("zeta") != zeta:
        errs.append(f"zeta echoed as {out.get('zeta')!r}, input {zeta!r}")
    if h is not None and "h" in out and out["h"] != h:
        errs.append(f"h echoed as {out['h']!r}, input {h!r}")
    if not (isinstance(out.get("q"), float) and out["q"] > 0):
        errs.append(f"q={out.get('q')!r} is not positive")
    if "D" in out and not _close(out["D"], out.get("p_F", math.nan) / pi, 1e-12):
        errs.append(f"D={out['D']!r} differs from p_F/pi")
    return errs


def _theta(x, eta: float):
    return 2.0 * np.arctan(np.tanh(x) / math.tan(eta))


def _dtheta(x, eta: float):
    x = np.clip(x, -300.0, 300.0)
    return 2.0 * math.sin(2 * eta) / (np.cosh(2 * x) - math.cos(2 * eta))


def _bethe_newton(zeta: float, L: float, nums, lam):
    """Newton on L p0(lam_a) - sum_b theta(lam_a - lam_b|zeta) = 2 pi I_a."""
    m = len(nums)
    for _ in range(200):
        diff = lam[:, None] - lam[None, :]
        f = L * _theta(lam, zeta / 2) - _theta(diff, zeta).sum(1) - 2 * pi * nums
        k = _dtheta(diff, zeta)
        jac = -k
        jac[np.diag_indices(m)] = L * _dtheta(lam, zeta / 2) - (k.sum(1) - k[0, 0])
        step = np.linalg.solve(jac, f)
        size = np.max(np.abs(step))
        if size > 0.5:
            step *= 0.5 / size
        lam = lam - step
        if size < 1e-12:
            return lam
    raise ArithmeticError("finite-chain Bethe equations did not converge")


def _bare_energy(lam, zeta: float) -> float:
    """-c sum_a K(lam_a|zeta/2), c = 4 pi J sin(zeta): the chain energy less
    its field term, with the program's bare energy h - c K(lam|zeta/2)."""
    eta = zeta / 2
    k = math.sin(2 * eta) / (pi * (np.cosh(2 * lam) - math.cos(2 * eta)))
    return float(-4 * pi * J * math.sin(zeta) * k.sum())


def bethe_chain(zeta: float, density: float, sizes=BETHE_SIZES) -> dict:
    """q, h and v_F of the ground state at density D from finite chains.

    At each size the root count is M = round(D L) and the length is set to
    M / D, so M / L equals D exactly. There the ground state gives the
    outermost root, adding a root at the same length gives the field
    h_L = E(M) - E(M+1), and moving the outermost quantum number out by one
    gives the particle-hole energy 2 pi v_F / L. Each is smooth in 1/L and a
    quadratic in 1/L through the three sizes gives its limit. The first size
    is reached from compressed quantum numbers by continuation, everything
    else from interpolated ground-state roots.
    """
    xs, series, prev = [], {"q": [], "h": [], "v_F": []}, None
    for size in sizes:
        m = round(density * size)
        length = m / density
        nums = np.arange(m) - (m - 1) / 2
        if prev is None:
            a = length * _dtheta(0.0, zeta / 2)
            b = _dtheta(0.0, zeta)
            lin = -b * np.ones((m, m))
            lin[np.diag_indices(m)] = a - b * (m - 1)
            lam = np.linalg.solve(lin, 2 * pi * nums / 3)
            for t in (1 / 3, 2 / 3, 1.0):
                lam = _bethe_newton(zeta, length, t * nums, lam)
        else:
            lam = _bethe_newton(zeta, length, nums, np.interp(nums / m, *prev))
        prev = (nums / m, lam)
        energy = _bare_energy(lam, zeta)

        added = np.arange(m + 1) - m / 2
        lam_added = _bethe_newton(zeta, length, added, np.interp(added / (m + 1), *prev))
        moved = nums.copy()
        moved[-1] += 1
        guess = lam.copy()
        guess[-1] += lam[-1] - lam[-2]
        lam_moved = _bethe_newton(zeta, length, moved, guess)

        xs.append(1.0 / length)
        series["q"].append(lam.max())
        series["h"].append(energy - _bare_energy(lam_added, zeta))
        series["v_F"].append(length * (_bare_energy(lam_moved, zeta) - energy) / (2 * pi))
    x = np.array(xs)
    fit = np.vstack([np.ones(len(x)), x, x * x]).T
    return {key: float(np.linalg.solve(fit, np.array(ys))[0]) for key, ys in series.items()}


def check_bethe(out: dict, zeta: float, h: float) -> list[str]:
    """q, the input h and v_F against finite chains at the program's density
    (D, or p_F / pi where the output has no D)."""
    density = out["D"] if "D" in out else out["p_F"] / pi
    chain = bethe_chain(zeta, density)
    errs = []
    for key, source, want, tol in (
        ("q", "program", out["q"], BETHE_Q_TOL),
        ("h", "input", h, BETHE_REL_TOL * h),
        ("v_F", "program", out["v_F"], BETHE_REL_TOL * out["v_F"]),
    ):
        if abs(chain[key] - want) > tol:
            errs.append(f"Bethe chain gives {key}={chain[key]!r}, {source} {want!r} "
                        f"at zeta={zeta!r}, D={density!r}")
    return errs


def string_reference(r: int, zeta: float):
    """(exists, sigma, sgn p'_r) from the classification intervals."""
    for lo, hi, sigma, factor in STRING_INTERVALS[r]:
        if lo < zeta < hi:
            return True, sigma, factor * (1 if math.sin(r * zeta) > 0 else -1)
    return False, None, None


def check_strings(rows, zeta: float, rmax: int) -> list[str]:
    if not isinstance(rows, list) or [row.get("r") for row in rows] != list(
        range(1, rmax + 1)
    ):
        return [f"strings rows do not cover r = 1..{rmax}"]
    errs = []
    if not rows[0].get("exists"):
        errs.append("r=1 reported as not existing")
    regime = "product-conditions" if zeta > pi / 2 else "floor-conditions"
    for row in rows[1:]:
        r = row["r"]
        exists, sigma, sgn = string_reference(r, zeta)
        line_im = sigma * pi / 2 if exists else None
        got = (row.get("exists"), row.get("sigma"), row.get("sgn_p_prime"),
               row.get("line_im"), row.get("regime"))
        if got != (exists, sigma, sgn, line_im, regime):
            errs.append(f"r={r} at zeta={zeta!r}: got {got}, table gives "
                        f"{(exists, sigma, sgn, line_im, regime)}")
    return errs


# ---------------------------------------------------------------------------
# asymptotics


def _massive_counts(row):
    counts = [row["n0"], row["n1"]]
    for _, per_saddle in row["strings"]:
        counts.extend(per_saddle)
    return counts


def check_exponents(rows, v: float, v_f: float, z_q: float, bound: int) -> list[str]:
    """Ranking, exponent sums, spin constraint and the conformal tower.

    The op asks for the spin-0 operator (`--spin 0`), so every row must have
    s_gamma = 0 and a spin sum of 0.
    """
    if not isinstance(rows, list) or not rows:
        return ["exponents output is not a non-empty table"]
    errs = []
    totals = [row["total_exponent"] for row in rows]
    if any(b < a for a, b in zip(totals, totals[1:])):
        errs.append("rows are not sorted by total_exponent")
    kappa = -1 if abs(v) < v_f else 1
    umklapp = []
    for i, row in enumerate(rows):
        dp, dm, dsp = row["delta_plus"], row["delta_minus"], row["delta_sp"]
        total = dp * dp + dm * dm + dsp
        if abs(row["total_exponent"] - total) > EXPONENT_TOL * max(1.0, total):
            errs.append(f"row {i}: total_exponent {row['total_exponent']!r} != {total!r}")
        if abs(dsp - 0.5 * sum(n * n for n in _massive_counts(row))) > EXPONENT_TOL:
            errs.append(f"row {i}: delta_sp {dsp!r} != sum n^2 / 2")
        spin = (row["ell_plus"] + row["ell_minus"] + kappa * row["n0"] + row["n1"]
                + sum(r * sum(c) for r, c in row["strings"]))
        if (spin, row["s_gamma"]) != (0, 0):
            errs.append(f"row {i}: spin sum {spin} and s_gamma {row['s_gamma']}, "
                        "the operator has spin 0")
        if not any(_massive_counts(row)):
            umklapp.append(row["ell_plus"])
            expected = row["ell_minus"] * z_q
            tol = EXPONENT_TOL * max(1.0, abs(expected))
            if abs(dp - expected) > tol or abs(dm - expected) > tol:
                errs.append(f"row {i}: Umklapp deltas ({dp!r}, {dm!r}) != "
                            f"ell_minus Z(q) = {expected!r}")
    if sorted(umklapp) != list(range(-bound, bound + 1)):
        errs.append(f"pure-Umklapp rows have ell_plus {sorted(umklapp)}")
    return errs


# ---------------------------------------------------------------------------
# contours


def barnes_g(n: int) -> int:
    """G(n) = prod_{k=1}^{n-2} k! for integer n >= 1."""
    out = 1
    for k in range(1, n - 1):
        out *= math.factorial(k)
    return out


def check_identity(rep: dict, zeta: float, v: float, label: str) -> list[str]:
    errs = []
    params = rep.get("params", {})
    if (rep.get("identity"), params.get("zeta"), params.get("v"),
            params.get("label")) != ("n2", zeta, v, label):
        errs.append(f"report is for {rep.get('identity')} {params}, "
                    f"expected n2 at zeta={zeta!r}, v={v!r}, {label}")
    if not rep.get("rel_diff", math.inf) < N2_GATE:
        errs.append(f"n2 identity {label} zeta={zeta!r} v={v!r}: "
                    f"rel_diff {rep.get('rel_diff')!r} >= {N2_GATE}")
    return errs


def check_vandermonde(rows) -> list[str]:
    """Squared-Vandermonde integrals against Gaussian and Barnes-G forms."""
    errs, seen = [], set()
    for row in rows:
        n = row["n"]
        if row["kind"] == "gaussian":
            closed = 0.5 ** (n * n / 2) * (2 * pi) ** (n / 2) * barnes_g(n + 2)
        else:
            closed = barnes_g(n + 1) * barnes_g(n + 2)
        seen.add((row["kind"], n))
        if abs(row["computed"] - closed) > VANDERMONDE_TOL * closed:
            errs.append(f"{row['kind']} n={n}: computed {row['computed']!r}, "
                        f"closed form {closed!r}")
    if not {("gaussian", 1), ("exponential", 1)} <= seen:
        errs.append("reference integrals missing")
    return errs
