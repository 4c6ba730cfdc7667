"""Command-line front end.

Subcommands: solve | strings | velocities | saddles | exponents | verify.
Output is deterministic JSON (default) or CSV with all floats at 17
significant digits; a CSV cell holding a flat list is joined by ';', a
nested one is one line of JSON.  Validation problems exit with code 2,
numerical failures with code 3; both write a machine-readable JSON error
record to standard error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from functools import lru_cache
from math import pi

from . import contours
from .assembler import assemble_terms, enumerate_configs, rank_terms
from .dressed import ModelParams, solve_dressed_set
from .errors import NumericalError, ValidationError, XXZError
from .saddles import classify_structure, fermi_velocity, v_infinity
from .strings import catalog
from .quadrature import DEFAULT_ORDER

DEFAULTS = {
    "J": 1.0,
    "rmax": 8,
    "bound": 2,
    "order": DEFAULT_ORDER,
    "format": "json",
    "suite": "quick",
    "spin": 0,
}

_CONFIG_KEYS = {
    "zeta", "q", "h", "J", "v", "rmax", "bound", "order",
    "out", "format", "suite", "spin",
}


def parse_angle(text: str) -> float:
    """Parse an angle, accepting a literal 'pi' suffix (e.g. '0.5365pi')."""
    s = str(text).strip().lower()
    try:
        if s.endswith("pi"):
            head = s[:-2].strip()
            return (float(head) if head else 1.0) * pi
        return float(s)
    except ValueError:
        raise ValidationError(f"cannot parse angle {text!r}")


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _dumps(obj, indent: int | None = 0) -> str:
    """Deterministic JSON text with floats at 17 significant digits; tuples
    are lists and complex numbers [re, im]. indent None writes one line."""
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise NumericalError(f"non-finite value {obj} in output")
        return _fmt_float(obj)
    if isinstance(obj, (dict, list, tuple)):
        inner = None if indent is None else indent + 1
        if isinstance(obj, dict):
            open_, close = "{", "}"
            items = [f'"{k}": {_dumps(v, inner)}' for k, v in obj.items()]
        else:
            open_, close = "[", "]"
            items = [_dumps(v, inner) for v in obj]
        if not items:
            return open_ + close
        if indent is None:
            return open_ + ", ".join(items) + close
        pad = "  " * indent
        return f"{open_}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{close}"
    if isinstance(obj, complex):
        return _dumps([obj.real, obj.imag], indent)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise ValidationError(f"cannot serialize value of type {type(obj).__name__}")


def _csv_cell(v) -> str:
    """One CSV cell: scalars as in `_dumps` but strings bare and None empty,
    a flat list or complex number joined by ';', anything nested as one line
    of JSON."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, complex):
        v = [v.real, v.imag]
    if isinstance(v, (list, tuple)) and not any(
        isinstance(x, (dict, list, tuple, complex)) for x in v
    ):
        return ";".join(_csv_cell(x) for x in v)
    return _dumps(v, None)


def _to_csv(rows) -> str:
    if isinstance(rows, dict):
        rows = [rows]
    if not isinstance(rows, list) or not rows or not isinstance(rows[0], dict):
        raise ValidationError("csv output requires a non-empty table of records")
    # rows of one table may differ in their keys (verify mixes identity
    # reports and reference integrals): every key gets a column, in first-seen order
    header = list(dict.fromkeys(k for row in rows for k in row))
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=",", lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row.get(k)) for k in header])
    return buf.getvalue()


def _emit(payload, opts) -> None:
    if opts["format"] == "csv":
        text = _to_csv(payload)
    else:
        text = _dumps(payload) + "\n"
    out = opts.get("out")
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_config(path: str) -> dict:
    try:
        lines = open(path).read().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")
    out = {}
    for i, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{i}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"{path}:{i}: unknown key {key!r}")
        out[key] = _convert(key, val)
    return out


def _convert(key: str, val: str):
    if key == "zeta":
        return parse_angle(val)
    if key in ("q", "h", "J", "v"):
        try:
            return float(val)
        except ValueError:
            raise ValidationError(f"{key} must be a number, got {val!r}")
    if key in ("rmax", "bound", "order", "spin"):
        try:
            return int(val)
        except ValueError:
            raise ValidationError(f"{key} must be an integer, got {val!r}")
    if key == "format":
        if val not in ("csv", "json"):
            raise ValidationError(f"format must be csv or json, got {val!r}")
    if key == "suite":
        if val not in ("quick", "full"):
            raise ValidationError(f"suite must be quick or full, got {val!r}")
    return val


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit; surface as validation
        raise ValidationError(message)


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The `xxz` parser, built once per process; parsing leaves it unchanged."""
    common = _Parser(add_help=False)
    common.add_argument("--zeta", type=parse_angle)
    common.add_argument("--q", type=float)
    common.add_argument("--h", type=float)
    common.add_argument("--J", type=float)
    common.add_argument("--v", type=float)
    common.add_argument("--rmax", type=int)
    common.add_argument("--bound", type=int)
    common.add_argument("--spin", type=int)
    common.add_argument("--order", type=int)
    common.add_argument("--out")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--config")
    common.add_argument("--suite", choices=("quick", "full"))

    parser = _Parser(prog="xxz", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)
    for name in ("solve", "strings", "velocities", "saddles", "exponents", "verify"):
        sub.add_parser(name, parents=[common])
    return parser


def _options(args) -> dict:
    opts = dict(DEFAULTS)
    if getattr(args, "config", None):
        opts.update(_read_config(args.config))
    for key, val in vars(args).items():
        if key != "config" and val is not None:
            opts[key] = val
    return opts


def _model_params(opts) -> ModelParams:
    if "zeta" not in opts:
        raise ValidationError("--zeta is required for this subcommand")
    return ModelParams(
        J=opts["J"],
        zeta=opts["zeta"],
        h=opts.get("h"),
        q=opts.get("q"),
        order=opts["order"],
    )


def _solved(opts):
    return solve_dressed_set(_model_params(opts))


def _cmd_solve(opts):
    ds = _solved(opts)
    return {
        "J": ds.J,
        "zeta": ds.zeta,
        "q": ds.q,
        "h": ds.h,
        "p_F": ds.p_F,
        "v_F": fermi_velocity(ds),
        "v_inf": v_infinity(ds),
        "Z_q": float(ds.Z(ds.q)),
        "D": ds.magnetization_density(),
    }


def _cmd_velocities(opts):
    ds = _solved(opts)
    return {
        "zeta": ds.zeta,
        "q": ds.q,
        "p_F": ds.p_F,
        "v_F": fermi_velocity(ds),
        "v_inf": v_infinity(ds),
    }


def _cmd_strings(opts):
    if "zeta" not in opts:
        raise ValidationError("--zeta is required for this subcommand")
    ds = None
    if "q" in opts or "h" in opts:
        ds = _solved(opts)
    rows = []
    for spec in catalog(opts["zeta"], opts["rmax"], ds=ds):
        rows.append(
            {
                "r": spec.r,
                "exists": spec.exists,
                "sigma": spec.sigma_r,
                "line_im": spec.line_im,
                "sgn_p_prime": spec.sgn_p_prime,
                "regime": spec.regime,
            }
        )
    return rows


def _cmd_saddles(opts):
    if "v" not in opts:
        raise ValidationError("--v is required for this subcommand")
    ds = _solved(opts)
    rep = classify_structure(opts["v"], ds, r_max=opts["rmax"])
    saddles = []
    for key in sorted(rep.saddles):
        for i, s in enumerate(rep.saddles[key]):
            row = {
                "carrier": key,
                "index": i,
                "omega": complex(s.omega),
                "u_value": s.u_value,
                "u_second": s.u_second,
                "eps_sign": s.eps_sign,
                "scale": s.scale,
            }
            if s.u_value is None:
                row["u_value_note"] = (
                    "momentum display is ambiguous at hat-reduction pi/2; "
                    "position and curvature are well defined"
                )
            saddles.append(row)
    return {
        "v": rep.v,
        "v_F": rep.v_F,
        "v_inf": rep.v_inf,
        "minimal": rep.minimal,
        "counts": {str(k): v for k, v in sorted(rep.counts.items())},
        "n_sp": list(rep.n_sp),
        "thresholds": {
            str(k): list(rep.thresholds[k]) for k in sorted(rep.thresholds)
        },
        "saddles": saddles,
    }


def _cmd_exponents(opts):
    if "v" not in opts:
        raise ValidationError("--v is required for this subcommand")
    ds = _solved(opts)
    v = opts["v"]
    spin = opts["spin"]
    cat = catalog(ds.zeta, opts["rmax"], ds=ds)
    v_inf = v_infinity(ds)
    if abs(v) > v_inf:
        structure = None
        configs = enumerate_configs(spin, "conformal", opts["bound"], cat)
    else:
        structure = classify_structure(v, ds, r_max=opts["rmax"], vinf=v_inf)
        configs = enumerate_configs(
            spin, "general", opts["bound"], cat, structure=structure
        )
    terms = rank_terms(assemble_terms(configs, v, ds, structure=structure))
    rows = []
    for t in terms:
        rows.append(
            {
                "ell_plus": t.config.ell_plus,
                "ell_minus": t.config.ell_minus,
                "n0": t.config.n0,
                "n1": t.config.n1,
                "strings": [[r, list(c)] for r, c in t.config.n_r],
                "s_gamma": t.config.s_gamma,
                "C_n": complex(t.C_n),
                "delta_plus": t.delta_plus,
                "delta_minus": t.delta_minus,
                "delta_sp": t.delta_sp,
                "total_exponent": t.total_exponent,
                "phase": t.phase,
                "wavevector": t.wavevector,
            }
        )
    return rows


_N2_TOL = 1e-6
_N3_TOL = 1e-4


def _verify_row_pass(row: dict) -> bool:
    if row.get("identity") == "n2":
        return row["rel_diff"] < _N2_TOL
    if row.get("identity") == "n3":
        return row["rel_diff"] < _N3_TOL
    if row.get("kind") == "gaussian":
        return row["rel_diff"] < 1e-8
    if row.get("kind") == "exponential":
        return bool(row["matches_product"])
    return False


def _cmd_verify(opts):
    rows = contours.run_verification_suite(slow=opts["suite"] == "full")
    for row in rows:
        row["pass"] = _verify_row_pass(row)
    if not all(row["pass"] for row in rows):
        return rows, 3
    return rows, 0


def run(argv) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            raise ValidationError("a subcommand is required (see --help)")
        opts = _options(args)
        code = 0
        if args.subcommand == "solve":
            payload = _cmd_solve(opts)
        elif args.subcommand == "velocities":
            payload = _cmd_velocities(opts)
        elif args.subcommand == "strings":
            payload = _cmd_strings(opts)
        elif args.subcommand == "saddles":
            payload = _cmd_saddles(opts)
        elif args.subcommand == "exponents":
            payload = _cmd_exponents(opts)
        else:
            payload, code = _cmd_verify(opts)
        _emit(payload, opts)
        return code
    except ValidationError as exc:
        _emit_error(exc)
        return 2
    except NumericalError as exc:
        _emit_error(exc)
        return 3
    except XXZError as exc:  # pragma: no cover - base-class safety net
        _emit_error(exc)
        return 3


def _emit_error(exc: XXZError) -> None:
    record = {"error": getattr(exc, "code", "error"), "message": str(exc)}
    sys.stderr.write(_dumps(record) + "\n")


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
