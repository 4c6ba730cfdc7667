"""The three workloads: seeded inputs, one library call per operation, checks.

Inputs are drawn in set-up from ``random.Random(seed)``; the program sees
only the generated arguments. A workload hands out whole rounds of
operations; every round has the same make-up.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from math import pi

import checks

WARM_UP = ["solve", "--zeta", "0.5365pi", "--q", "0.2"]


def run_cli(cli, argv):
    """One `xxz` command in-process: (succeeded, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code == 0, out.getvalue(), err.getvalue()


@dataclass
class Op:
    kind: str
    call: object  # () -> (succeeded, output, error text)
    meta: dict = field(default_factory=dict)


@dataclass
class Record:
    op: Op
    seconds: float
    ok: bool
    output: object
    error: str


def _cli_op(cli, kind, argv, **meta) -> Op:
    return Op(kind, lambda: run_cli(cli, argv), dict(meta, argv=argv))


def _parse(rec: Record):
    """Parsed JSON output of a CLI record, or a mismatch message."""
    try:
        return json.loads(rec.output), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def _draw(rng, bands) -> float:
    """A uniform draw from a union of disjoint intervals."""
    widths = [hi - lo for lo, hi in bands]
    u = rng.uniform(0.0, sum(widths))
    for (lo, hi), w in zip(bands, widths):
        if u <= w:
            return lo + u
        u -= w
    return bands[-1][1]


class Workload:
    name = ""

    def __init__(self, seed: int, lib):
        self.lib = lib
        self.pool = self.generate(random.Random(seed))

    def warm_up(self) -> None:
        ok, _, err = run_cli(self.lib.cli, WARM_UP)
        if not ok:
            raise RuntimeError(f"warm-up command failed: {err}")

    def rounds(self):
        return itertools.cycle(self.pool)

    def check(self, records) -> dict:
        """Mismatch messages keyed by record index (None: the run as a whole)."""
        problems = {}
        for i, rec in enumerate(records):
            if rec.ok:
                errs = self.check_one(rec)
                if errs:
                    problems[i] = errs
        return problems


class GroundState(Workload):
    """h-mode solve / velocities / strings, plus free-fermion points."""

    name = "ground-state"
    POOL_ROUNDS = 1024
    RMAX = 8
    ZETA_RANGE = (0.30, 0.90)  # zeta / pi, solve and velocities
    # zeta / pi for strings: the bands where `xxz strings --h` succeeds
    STRING_BANDS = ((0.30, 0.48), (0.52, 0.64))
    FIELD_RANGE = (0.25, 0.85)  # h / h_c
    FREE_FIELD_RANGE = (0.5, 3.5)  # h at zeta = pi/2, where h_c = 4

    def _massless(self, rng, kind, x):
        zeta = x * pi
        h = rng.uniform(*self.FIELD_RANGE) * 8.0 * math.cos(zeta / 2) ** 2
        argv = [kind, "--zeta", f"{x!r}pi", "--h", repr(h)]
        if kind == "strings":
            argv += ["--rmax", str(self.RMAX)]
        return _cli_op(self.lib.cli, kind, argv, zeta=zeta, h=h)

    def _free(self, rng, kind):
        h = rng.uniform(*self.FREE_FIELD_RANGE)
        argv = [kind, "--zeta", "0.5pi", "--h", repr(h)]
        return _cli_op(self.lib.cli, "free-" + kind, argv, zeta=0.5 * pi, h=h)

    def generate(self, rng):
        pool = []
        for _ in range(self.POOL_ROUNDS):
            for _ in range(2):
                pool.append(self._massless(rng, "solve", rng.uniform(*self.ZETA_RANGE)))
                pool.append(self._massless(rng, "velocities", rng.uniform(*self.ZETA_RANGE)))
                pool.append(self._massless(rng, "strings", _draw(rng, self.STRING_BANDS)))
            pool.append(self._free(rng, "solve"))
            pool.append(self._free(rng, "velocities"))
        return [pool[i:i + 8] for i in range(0, len(pool), 8)]

    def check(self, records) -> dict:
        """Per-op checks, then finite chains at the first massless solve and
        the first massless velocities op."""
        problems = super().check(records)
        for kind in ("solve", "velocities"):
            i = next((i for i, rec in enumerate(records)
                      if rec.op.kind == kind and rec.ok and i not in problems), None)
            if i is not None:
                meta = records[i].op.meta
                errs = checks.check_bethe(json.loads(records[i].output), meta["zeta"], meta["h"])
                if errs:
                    problems[i] = errs
        return problems

    def check_one(self, rec):
        out, err = _parse(rec)
        if err:
            return [err]
        meta = rec.op.meta
        if rec.op.kind == "strings":
            return checks.check_strings(out, meta["zeta"], self.RMAX)
        errs = checks.check_ground_state(out, meta["zeta"], meta["h"])
        if rec.op.kind.startswith("free-"):
            errs += checks.check_free_fermion(out, meta["h"])
        return errs


class Asymptotics(Workload):
    """`xxz exponents --bound 2` at space-like v, v_F < v < v_inf."""

    name = "asymptotics"
    POOL = 48
    ORDER = "32"
    RMAX = "2"
    BOUND = 2
    # zeta / pi: the bands where every measured op gave the same cost class
    # (see README, asymptotics inputs)
    ZETA_BANDS = ((0.33, 0.44), (0.53, 0.62), (0.70, 0.88))
    Q_RANGE = (0.1, 0.8)
    V_FRACTION = (0.2, 0.8)  # position of v between v_F and v_inf

    def generate(self, rng):
        pool = []
        for _ in range(self.POOL):
            x = _draw(rng, self.ZETA_BANDS)
            q = rng.uniform(*self.Q_RANGE)
            frac = rng.uniform(*self.V_FRACTION)
            point = ["--zeta", f"{x!r}pi", "--q", repr(q), "--order", self.ORDER]
            ok, text, err = run_cli(self.lib.cli, ["solve"] + point)
            if not ok:
                raise RuntimeError(f"reference solve failed at {point}: {err}")
            ref = json.loads(text)
            v = ref["v_F"] + frac * (ref["v_inf"] - ref["v_F"])
            argv = ["exponents"] + point + [
                "--v", repr(v), "--rmax", self.RMAX, "--bound", str(self.BOUND), "--spin", "0"]
            pool.append([_cli_op(self.lib.cli, "exponents", argv,
                                 v=v, v_F=ref["v_F"], Z_q=ref["Z_q"])])
        return pool

    def check_one(self, rec):
        rows, err = _parse(rec)
        if err:
            return [err]
        meta = rec.op.meta
        return checks.check_exponents(rows, meta["v"], meta["v_F"], meta["Z_q"], self.BOUND)


class ContourVerify(Workload):
    """One n=2 identity of the `xxz verify --suite quick` matrix per op."""

    name = "contour-verify"

    def generate(self, rng):
        contours = self.lib.contours
        pool = []
        for zeta in (0.35 * pi, 0.65 * pi):
            for v in (1.5, 0.5, -0.5):
                for fn in contours.standard_test_functions(2):
                    pool.append([Op("n2", self._identity_call(fn, v, zeta),
                                    dict(zeta=zeta, v=v, label=fn.label))])
        rng.shuffle(pool)
        return pool

    def _identity_call(self, fn, v, zeta):
        def call():
            try:
                return True, self.lib.contours.eval_identity_n2(fn, v, zeta), ""
            except self.lib.XXZError as exc:
                return False, None, f"{type(exc).__name__}: {exc}"
        return call

    def check_one(self, rec):
        meta = rec.op.meta
        return checks.check_identity(rec.output, meta["zeta"], meta["v"], meta["label"])

    def check(self, records) -> dict:
        problems = super().check(records)
        errs = checks.check_vandermonde(self.lib.contours.verify_multiple_integrals())
        if errs:
            problems[None] = errs
        return problems


WORKLOADS = {w.name: w for w in (GroundState, Asymptotics, ContourVerify)}
