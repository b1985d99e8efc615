"""Command-line front end: decomposition, entropy landscapes and check suites.

Subcommands
-----------
decompose   orthogonal decomposition of a cone element, JSON output
check       locality | sufficiency | spectrality | concavity, JSON report
landscape   entropy grid over a 2D space, CSV plus a maxima sidecar

All randomness flows from a single seed (flag --seed, else the
SPECTRAL_CONE_SEED environment variable, else 42), so identical invocations
produce byte-identical output.  Exit codes: 0 pass, 1 usage or parse error,
2 check or invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import divergence as dv
from . import geometries as geo
from . import jordan, spectral
from .cone import ConeElement
from .errors import SpectralConeError

DEFAULT_SEED = 42
# bad input, an unwritable --out or a --grid too large to allocate: main exits 1 with a one-line error
# (json.JSONDecodeError is a ValueError)
_USAGE_ERRORS = (ValueError, KeyError, OSError, MemoryError)

_SHORTHANDS = {
    "square": geo.unit_square,
    "disc": functools.partial(geo.Ball, 2),
    "disk": functools.partial(geo.Ball, 2),
}
# name + size shorthands; --algebra takes the same form (jordan.ALGEBRA_PATTERN)
_SIZED = {
    "simplex": geo.Simplex,
    "ball": geo.Ball,
    "spin": geo.SpinFactor,
    **{ring: functools.partial(geo.DensityMatrices, ring) for ring in jordan.RINGS},
}
_SIZED_PATTERN = re.compile(rf"^({'|'.join(_SIZED)})(\d+)$")


def _load_json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def parse_space(text: str):
    """Space from a shorthand name, inline JSON, or @path to a JSON file."""
    text = text.strip()
    if text.startswith("{") or text.startswith("@"):
        return geo.space_from_json(_load_json_arg(text))
    if text in _SHORTHANDS:
        return _SHORTHANDS[text]()
    m = _SIZED_PATTERN.match(text)
    if m:
        return _SIZED[m.group(1)](int(m.group(2)))
    raise ValueError(f"cannot parse space {text!r}")


def parse_element(text: str, space) -> ConeElement:
    """Cone element from JSON: a bare coords list (trace 1) or {trace, coords}."""
    data = _load_json_arg(text.strip())
    if isinstance(data, list):
        data = {"coords": data}
    if not (isinstance(data, dict) and _numbers([data.get("trace", 1.0)]) and _numbers(data.get("coords"))):
        raise ValueError('element must be a list of numbers or {"trace": number, "coords": [numbers]}')
    return ConeElement(space, float(data.get("trace", 1.0)), np.asarray(data["coords"], dtype=float))


def _numbers(value) -> bool:
    """Whether a parsed JSON value is a list of numbers (JSON true and false are not numbers)."""
    return isinstance(value, list) and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_safe(value):
    """Replace non-finite floats with strings so reports stay strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _report_json(report: dict) -> str:
    try:  # walk the report only when it holds a non-finite float
        return json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        return json.dumps(_json_safe(report), sort_keys=True, allow_nan=False) + "\n"


def cmd_decompose(args) -> int:
    space = parse_space(args.space)
    x = parse_element(args.element, space)
    dec = geo.decompose(space, x, with_witnesses=True)
    payload = dec.to_json()
    payload["space"] = space.to_json()
    payload["trace"] = x.trace_weight
    payload["n"] = dec.size
    payload["dim"] = space.dim
    payload["caratheodory_ok"] = dec.size <= space.dim + 1
    payload["reconstruction_error"] = dec.reconstruction_error(x)
    payload["witnesses"] = [
        {"linear": [float(c) for c in w.linear], "offset": w.offset} if w else None
        for w in (dec.witnesses or ())
    ]
    _emit(_report_json(payload), args.out)
    return 0


def _seed(args) -> int:
    """--seed, else SPECTRAL_CONE_SEED, else DEFAULT_SEED."""
    if args.seed is not None:
        return args.seed
    env_seed = os.environ.get("SPECTRAL_CONE_SEED")
    if not env_seed:
        return DEFAULT_SEED
    try:
        return int(env_seed)
    except ValueError:
        raise ValueError(f"SPECTRAL_CONE_SEED must be an integer, got {env_seed!r}") from None


def cmd_check(args) -> int:
    seed = _seed(args)
    if args.tol is not None and args.kind in ("spectrality", "concavity"):
        raise ValueError(f"check {args.kind} takes no --tol")
    if args.kind == "concavity":
        if not args.algebra:
            raise ValueError("check concavity requires --algebra")
        report = jordan.check_concavity(args.algebra, trials=args.trials, seed=seed)
    elif not args.space:
        raise ValueError(f"check {args.kind} requires --space")
    elif args.kind == "spectrality":
        report = spectral.is_spectral(parse_space(args.space), samples=args.trials, seed=seed).to_json()
    else:
        space = parse_space(args.space)
        div = dv.builtin_divergence(args.divergence, space)
        check = dv.check_locality if args.kind == "locality" else dv.check_sufficiency
        tol = {} if args.tol is None else {"tol": args.tol}  # else the checker's default
        report = check(div, space, trials=args.trials, seed=seed, **tol)
    _emit(_report_json(report), args.out)
    return 0 if report["pass"] else 2


def cmd_landscape(args) -> int:
    land = spectral.entropy_landscape(parse_space(args.space), grid_resolution=args.grid)
    maxima_text = _report_json(land.maxima_json())
    _emit(land.csv_text(), args.out)
    if args.out:
        _emit(maxima_text, args.out + ".maxima.json")
    else:
        sys.stderr.write(maxima_text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of printing usage, so main reports one line."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectral-cone",
        description="Decompositions, entropy and divergence checks on convex state spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="orthogonal decomposition of a cone element")
    p_dec.add_argument("--space", required=True)
    p_dec.add_argument("--element", required=True,
                       help='JSON coords list or {"trace": t, "coords": [...]}, or @file')
    p_dec.add_argument("--out")
    p_dec.set_defaults(func=cmd_decompose)

    p_chk = sub.add_parser("check", help="run a verification suite")
    p_chk.add_argument("kind", choices=["locality", "sufficiency", "spectrality", "concavity"])
    p_chk.add_argument("--space")
    p_chk.add_argument("--divergence", default="kl",
                       choices=["kl", "squared_euclidean", "itakura_saito", "matrix_negentropy"])
    p_chk.add_argument("--algebra", help="e.g. complex2, quaternion3, spin5")
    p_chk.add_argument("--trials", type=int, default=200)
    p_chk.add_argument("--tol", type=float, default=None)
    p_chk.add_argument("--seed", type=int, default=None)
    p_chk.add_argument("--out")
    p_chk.set_defaults(func=cmd_check)

    p_land = sub.add_parser("landscape", help="entropy grid over a 2D space")
    p_land.add_argument("--space", required=True)
    p_land.add_argument("--grid", type=int, default=101)
    p_land.add_argument("--out")
    p_land.set_defaults(func=cmd_landscape)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return 1 if exc.code not in (0, None) else 0
    except SpectralConeError as exc:  # a failed invariant; before _USAGE_ERRORS, as most are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
