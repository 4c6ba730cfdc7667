"""Write bare_phase_reference.json: theta(lam|eta) by a 40-digit mpmath path
integral, independent of xxzchain.

    python3 tests/data/make_bare_phase_reference.py

mpmath is needed only here; the tests read the JSON. theta is the integral of
2 pi K(mu|eta) = sin(2 eta) / (sinh(mu + i eta) sinh(mu - i eta)) along
0 -> i b -> x + i b (lam = x + i b) with the poles on the vertical leg passed
on the left. All poles lie on Re mu = 0, so the vertical leg is moved to
Re mu = -1 (the strip in between holds none): 0 -> -1 -> -1 + i b -> x + i b,
split where it crosses Re mu = 0. On a pole line the crossing is indented by
a half circle on the side away from the real axis, which gives the limit from
that side.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import mpmath as mp

mp.mp.dps = 40
OUT = Path(__file__).with_name("bare_phase_reference.json")


def _kernel(eta):
    s2 = mp.sin(2 * eta)
    return lambda mu: s2 / (mp.sinh(mu + 1j * eta) * mp.sinh(mu - 1j * eta))


def _line_distance(b, eta):
    """Distance of b to the nearest pole line +-eta + pi k."""
    return min(abs(d - mp.pi * mp.nint(d / mp.pi)) for d in (b - eta, b + eta))


def _segment(f, a, b, splits=()):
    """int_a^b f along the straight segment, with extra nodes at the splits."""
    ts = sorted({mp.mpf(0), mp.mpf(1), *splits})
    return mp.quad(lambda t: f(a + t * (b - a)), ts) * (b - a)


def mp_theta(x, b, eta) -> complex:
    """theta(x + i b | eta); the limit from beyond when x + i b is on a pole line."""
    x, b, eta = mp.mpf(x), mp.mpf(b), mp.mpf(eta)
    f = _kernel(eta)
    if b == 0:
        return complex(_segment(f, mp.mpc(0), mp.mpc(x, 0)))
    top = mp.mpc(-1, b)
    total = _segment(f, mp.mpc(0), mp.mpc(-1, 0)) + _segment(f, mp.mpc(-1, 0), top)
    end = mp.mpc(x, b)
    if x <= 0:  # the leg stops short of Re mu = 0, where the poles are
        return complex(total + _segment(f, top, end))
    width = x + 1
    cross = 1 / width  # the leg crosses Re mu = 0 here
    d = _line_distance(b, eta)
    if d == 0:
        rho = min(mp.mpf("0.1"), x / 2)
        sgn = 1 if b > 0 else -1
        left, right = mp.mpc(-rho, b), mp.mpc(rho, b)
        arc = mp.quad(
            lambda phi: f(mp.mpc(0, b) + rho * mp.expj(phi)) * 1j * rho * mp.expj(phi),
            [mp.pi * sgn, mp.pi * sgn / 2, 0],
        )
        return complex(total + _segment(f, top, left) + arc + _segment(f, right, end))
    # nodes clustered where the leg passes the pole line closest to Re mu = 0
    near = [cross + s * d * 10**k / width for k in range(0, 8) for s in (-1, 1)]
    splits = [cross] + [t for t in near if 0 < t < 1]
    return complex(total + _segment(f, top, end, splits))


def _points(rng):
    """(x, b, eta, kind): near pole lines and poles, far from the axis, eta_hat
    near pi/2, on a pole line."""
    pts = []
    for dist in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for _ in range(4):
            eta = rng.uniform(0.2, 3.0)
            k = rng.randint(-2, 2)
            line = rng.choice((1, -1)) * eta + k * 3.141592653589793
            b = line + rng.choice((1, -1)) * dist
            x = rng.choice((1, -1)) * rng.uniform(0.05, 3.0)
            pts.append((x, b, eta, "near-line"))
    for _ in range(20):
        eta = rng.uniform(0.1, 7.0)
        b = rng.choice((1, -1)) * rng.uniform(2.0, 8.0)
        x = rng.uniform(-4.0, 4.0)
        pts.append((x, b, eta, "far"))
    for _ in range(12):
        eta = 1.5707963267948966 + rng.choice((1, -1)) * 10 ** rng.uniform(-6, -2)
        b = rng.uniform(-3.0, 3.0)
        x = rng.choice((1, -1)) * rng.uniform(0.05, 3.0)
        pts.append((x, b, eta, "half-pi"))
    for _ in range(6):  # close to a pole point itself
        eta = rng.uniform(0.2, 3.0)
        b = rng.choice((1, -1)) * (eta + rng.choice((1, -1)) * 10 ** rng.uniform(-6, -3))
        x = rng.choice((1, -1)) * 10 ** rng.uniform(-6, -3)
        pts.append((x, b, eta, "near-pole"))
    for x, b in ((0.4, 0.9), (0.4, -0.9), (-0.4, -0.9)):
        pts.append((x, b, 0.9, "on-line"))
    for x in (0.4, -0.4):
        for db in (-1e-9, 1e-9):
            pts.append((x, 0.9 + db, 0.9, "near-pole"))
    return pts


def main():
    rng = random.Random(20261019)
    rows = []
    for x, b, eta, kind in _points(rng):
        val = mp_theta(x, b, eta)
        rows.append({"lam": [x, b], "eta": eta, "theta": [val.real, val.imag], "kind": kind})
    OUT.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} points to {OUT}")


if __name__ == "__main__":
    main()
