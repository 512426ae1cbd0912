"""Batch command line front end.

Subcommands parse JSON inputs (inline or by path, "schema": 1), dispatch
to the library, and emit one report envelope embedding the tool version,
the subcommand and the fully resolved run configuration.  Each subcommand
takes --format and --out and only the options it reads: the seed,
tolerance, sample count and window of the sampled checks belong to
verify-cover alone.  JSON output is canonical (sorted keys, no whitespace),
so reruns with the same configuration are byte-identical; tables are
rendered from that same JSON.

Exit codes (main applies the table EXIT_CODES): 0 success; 2 unparseable
input, unknown ids, invalid models, JSON rationals past
exactfield.MAX_RATIONAL_DIGITS digits, JSON nested deeper than
MAX_JSON_DEPTH, a negation or rotation point count below 1, a key that
an input object does not read, an arrangement option that the chosen
input does not read or a verify-cover option that the chosen map does
not read, an unreadable input file or unwritable --out path;
3 reflector features; 4 size guard rails (arrangement size
arrangement.MAX_SIMPLICIAL_DIM and MAX_SIMPLICIAL_HYPERPLANES, cyclotomic
field order and hyperplanes arrangement.check_field_rail, fiber points
and qE logarithm combinations per run covering.MAX_FIBER_POINTS and
MAX_EXP_COMBINATIONS, groupoid group
order groupoid.MAX_GROUP_ORDER, negation and rotation point count
groupoid.MAX_ACTION_POINTS, `forget` size MAX_FORGET_SIZE, `obstruction`
rotation order orbmodel.MAX_ROTATION_ORDER); 5 a covering
verification that ran but failed; 6 no quasifibration witness
(fixed-point-free action).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from itertools import accumulate
from pathlib import Path
from typing import Optional

from . import __version__
from .arrangement import (
    MAX_SIMPLICIAL_DIM,
    MAX_SIMPLICIAL_HYPERPLANES,
    ArrangementSpec,
    SizeGuardError,
    chamber_count,
    characteristic_polynomial,
    check_field_rail,
    common_point,
    flat_poset,
    is_simplicial,
    poincare_polynomial,
)
from .covering import DEFAULT_EPS, verify_cover
from .exactfield import json_int, json_kind, json_shape
from .groupoid import (
    _freeze,
    forget_map,
    group_action_from_json,
    group_from_json,
    groupoid_from_json,
    is_covering_hom,
    is_equivalence,
    morita_triple,
    skeleton_inclusion,
    subgroup_covering_hom,
    translation_groupoid,
)
from .obstruction import NoWitnessError, quasifibration_witness
from .orbit_config import (
    braid_arrangement,
    rotation_arrangement,
    sign_flip_arrangement,
)
from .orbmodel import Orbifold2D, ReflectorError, action_from_json, classify

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFLECTOR = 3
EXIT_GUARD = 4
EXIT_COVER_FAIL = 5
EXIT_NO_WITNESS = 6

# (dim, hyperplane count, field order m, 1 over Q) of each builder's
# arrangement from --n and --m, so the rails are checked before any build
BUILDER_SIZES = {
    "braid": lambda n, m: (n, n * (n - 1) // 2, 1),
    "case1": lambda n, m: (n, m * n * (n - 1) // 2, m),
    "case3X": lambda n, m: (n + 1, n * (n + 1) + 1, 1),
}
# `forget` builds the configuration groupoids on n and n - 1 points, each
# the translation groupoid of a power of the group, and checks the map
# between them on the powers and in a few passes over the morphisms.  The
# rail bounds both sizes: the morphisms, at most (|points| * |group|)^n, and
# the |group|^2n entries of the table of the n-th power.
MAX_FORGET_SIZE = 500_000
# deepest nesting of JSON arrays and objects an input may use, checked on
# the text before the parser or any model builder recurses into it
MAX_JSON_DEPTH = 100
_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
# the keys each groupoid model type reads besides "schema" and "type"; any
# other key is refused, so a misspelt optional field cannot take its default
_MODEL_KEYS = {
    kind: keys | {"schema", "type"}
    for kind, keys in {
        "explicit": {"objects", "morphisms", "compose", "identities", "inverses"},
        "subgroup_cover": {"group", "action", "subgroup"},
        "forget": {"group", "action", "n"},
        "skeleton": {"group", "action"},
        "morita": {"group", "action", "n1", "n2"},
    }.items()
}

# The exit code of each exception main() reports, first match wins; any
# other exception is a bug and keeps its traceback.
EXIT_CODES = {
    ReflectorError: EXIT_REFLECTOR,
    SizeGuardError: EXIT_GUARD,
    NoWitnessError: EXIT_NO_WITNESS,
    ValueError: EXIT_INPUT,
    KeyError: EXIT_INPUT,
    TypeError: EXIT_INPUT,
    OSError: EXIT_INPUT,
}


def _nesting_depth(text: str) -> int:
    """How deep the arrays and objects of JSON text nest, counted from the
    brackets outside its strings."""
    brackets = re.findall(r"[][{}]", _JSON_STRING.sub("", text))
    return max(accumulate(1 if b in "[{" else -1 for b in brackets), default=0)


def _load_input(argument: str) -> dict:
    """Inline JSON (starts with '{') or a path to a UTF-8 JSON file."""
    text = argument
    if not argument.lstrip().startswith("{"):
        text = Path(argument).read_text(encoding="utf-8")
    if _nesting_depth(text) > MAX_JSON_DEPTH:
        raise ValueError(f"input JSON nests deeper than {MAX_JSON_DEPTH} levels")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    if data.get("schema") != 1:
        raise ValueError('input must declare "schema": 1')
    return data


def _poly_text(coefficients) -> str:
    parts = []
    for power, c in enumerate(coefficients):
        if c == 0:
            continue
        if power == 0:
            parts.append(str(c))
            continue
        variable = "t" if power == 1 else f"t^{power}"
        if c == 1:
            parts.append(variable)
        elif c == -1:
            parts.append(f"-{variable}")
        else:
            parts.append(f"{c}{variable}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (report body, extra config, exit code)
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> tuple[dict, dict, int]:
    data = _load_input(args.spec)
    orbifold = Orbifold2D.from_json(data)
    verdict = classify(orbifold)
    report = {"orbifold": orbifold.to_json(), "classification": verdict.to_json()}
    return report, {"input": data}, EXIT_OK


def _check_rails(dim: int, hyperplanes: int, order: int = 1) -> None:
    if dim > MAX_SIMPLICIAL_DIM or hyperplanes > MAX_SIMPLICIAL_HYPERPLANES:
        raise SizeGuardError(
            f"arrangement exceeds the CLI rails (dim <= {MAX_SIMPLICIAL_DIM}, "
            f"<= {MAX_SIMPLICIAL_HYPERPLANES} hyperplanes)"
        )
    check_field_rail(order, hyperplanes)


def _builder_spec(args) -> tuple[ArrangementSpec, dict]:
    """The arrangement of --builder or of the spec, and its config; like a
    key an input does not read, an option the chosen input ignores is
    refused, --m with a builder but case1 after the size rails, which read
    --n alone there."""
    if args.builder:
        if args.spec is not None:
            raise ValueError("give an arrangement spec or --builder, not both")
        if args.n is None:
            raise ValueError("builders require --n")
        m = 2 if args.m is None else args.m
        _check_rails(*BUILDER_SIZES[args.builder](args.n, m))
        if args.m is not None and args.builder != "case1":
            raise ValueError(f"--m is read by --builder case1 only; {args.builder} takes no field order")
        if args.builder == "braid":
            spec = braid_arrangement(args.n)
        elif args.builder == "case1":
            spec = rotation_arrangement(args.n, m)
        else:
            spec = sign_flip_arrangement(args.n)
        return spec, {"builder": args.builder, "n": args.n, "m": m}
    if args.n is not None or args.m is not None:
        raise ValueError("--n and --m need --builder; an arrangement spec reads neither")
    if args.spec is None:
        raise ValueError("provide --builder or an arrangement spec")
    data = _load_input(args.spec)
    return ArrangementSpec.from_json(data), {"input": data}


def _cmd_arrangement(args) -> tuple[dict, dict, int]:
    spec, extra = _builder_spec(args)
    _check_rails(spec.dim, len(spec.rows))
    poset = flat_poset(spec)
    chi = characteristic_polynomial(poset)
    pi = poincare_polynomial(poset)
    report = {
        "label": spec.label,
        "dim": spec.dim,
        "field": spec.field.to_json(),
        "hyperplanes": len(spec.rows),
        "rank": poset.rank,
        "flats_by_dim": {str(d): c for d, c in sorted(poset.count_by_dim().items())},
        "characteristic": {"coefficients": chi.to_json(), "text": _poly_text(chi.coeffs)},
        "poincare": {"coefficients": pi.to_json(), "text": _poly_text(pi.coeffs)},
    }
    if spec.field.is_rational:
        total, bounded = chamber_count(poset)
        report["chambers"] = {"total": total, "bounded": bounded}
    else:
        report["chambers"] = None
        report["chambers_note"] = "complex coefficients: no real chamber structure"
    if spec.field.is_rational and common_point(spec) is not None:
        report["simplicial"] = is_simplicial(spec).to_json()
    else:
        report["simplicial"] = None
        report["simplicial_note"] = "simpliciality applies to central real arrangements"
    return report, extra, EXIT_OK


def _cmd_verify_cover(args) -> tuple[dict, dict, int]:
    # the config records only the options the map reads; one it does not
    # read is refused
    reads = {"q": (), "squaring": ("n",)}.get(args.map, ("n", "window"))
    options = {"samples": args.samples, "seed": args.seed}
    for name, default in (("n", 2), ("window", 3)):
        value = getattr(args, name)
        if name in reads:
            options[name] = default if value is None else value
        elif value is not None:
            raise ValueError(f"--{name} is not read by map {args.map}")
    report = verify_cover(args.map, eps=args.epsilon, **options)
    code = EXIT_OK if report.passed else EXIT_COVER_FAIL
    return report.to_json(), {"map": args.map, "epsilon": args.epsilon, **options}, code


def _cmd_obstruction(args) -> tuple[dict, dict, int]:
    data = _load_input(args.spec)
    report = quasifibration_witness(action_from_json(data), args.n)
    return report.to_json(), {"input": data, "n": args.n}, EXIT_OK


def _element_set(data: dict, key: str) -> frozenset:
    return frozenset(_freeze(el) for el in json_shape(data[key], list, key))


def _groupoid_action(data: dict):
    group = group_from_json(data["group"])
    action_spec = data.get("action", {"kind": "regular"})
    return group_action_from_json(action_spec, group)


def _cmd_groupoid(args) -> tuple[dict, dict, int]:
    data = _load_input(args.spec)
    kind = json_kind(data, "groupoid model", _MODEL_KEYS, "type")
    if kind == "explicit":
        groupoid = groupoid_from_json(data)
        checks = [groupoid.verify_axioms().to_json()]
        summary = {
            "objects": len(groupoid.objects),
            "morphisms": len(groupoid.morphisms),
        }
    elif kind == "subgroup_cover":
        action = _groupoid_action(data)
        subgroup = _element_set(data, "subgroup")
        hom = subgroup_covering_hom(action, subgroup)
        checks = [hom.verify().to_json(), is_covering_hom(hom).to_json()]
        summary = {"points": len(action.points), "group_order": action.group.order}
    elif kind == "forget":
        action = _groupoid_action(data)
        n = json_int(data.get("n", 2), "forget n")
        order = action.group.order
        # max((|points| |group|)^n, |group|^2n); capping the exponent keeps
        # the test exact and cheap for huge n
        width = max(len(action.points) * order, order**2)
        if n > 1 and width ** min(n, MAX_FORGET_SIZE.bit_length()) > MAX_FORGET_SIZE:
            raise SizeGuardError(
                f"forget with n = {n} exceeds the groupoid rail "
                f"((|points| * |group|)^n and |group|^2n <= {MAX_FORGET_SIZE})"
            )
        hom = forget_map(translation_groupoid(action), n)
        checks = [hom.verify().to_json(), is_covering_hom(hom).to_json()]
        summary = {
            "configuration_objects": len(hom.src.objects),
            "base_objects": len(hom.dst.objects),
        }
    elif kind == "skeleton":
        action = _groupoid_action(data)
        hom = skeleton_inclusion(translation_groupoid(action))
        checks = [hom.verify().to_json(), is_equivalence(hom).to_json()]
        summary = {"skeleton_objects": len(hom.src.objects)}
    else:
        action = _groupoid_action(data)
        first = _element_set(data, "n1")
        second = _element_set(data, "n2")
        triple = morita_triple(action, first, second)
        body = triple.to_json()
        body["model"] = kind
        return body, {"input": data}, EXIT_OK
    report = {
        "model": kind,
        "summary": summary,
        "checks": checks,
        "pass": all(entry["pass"] for entry in checks),
    }
    return report, {"input": data}, EXIT_OK


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _table_lines(value, indent: int = 0, key: Optional[str] = None) -> list[str]:
    pad = "  " * indent
    label = f"{key}: " if key is not None else ""
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"] if key is not None else []
        inner = indent + 1 if key is not None else indent
        for sub in sorted(value):
            lines.extend(_table_lines(value[sub], inner, sub))
        return lines
    if isinstance(value, list):
        if all(not isinstance(item, (dict, list)) for item in value):
            return [f"{pad}{label}[{', '.join(str(item) for item in value)}]"]
        lines = [f"{pad}{key}:"] if key is not None else []
        for index, item in enumerate(value):
            lines.extend(_table_lines(item, indent + 1, f"[{index}]"))
        return lines
    return [f"{pad}{label}{value}"]


def _emit(envelope: dict, fmt: str, out: Optional[str]) -> None:
    """Write the report; a JSON report holding a non-finite float raises
    ValueError before anything is written, since Infinity and NaN are not
    JSON."""
    if fmt == "json":
        text = json.dumps(envelope, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    else:
        text = "\n".join(_table_lines(envelope)) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of a process, built on first use: main runs in-process
    many times, and parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="orbconfig",
        description="Exact invariants of planar orbit configurations: "
        "arrangements, coverings, obstructions, groupoid models.",
    )
    parser.add_argument("--version", action="version", version=f"orbconfig {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--out", default=None, help="write the report to a file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="classify a 2-orbifold spec")
    p.add_argument("spec", help="JSON object or path")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("arrangement", parents=[common], help="arrangement invariants")
    p.add_argument("spec", nargs="?", help="JSON object or path")
    p.add_argument("--builder", choices=("braid", "case1", "case3X"))
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--m", type=_positive_int, default=None, help="case1 rotation order (default 2)")
    p.set_defaults(handler=_cmd_arrangement)

    p = sub.add_parser("verify-cover", parents=[common], help="sampled covering checks")
    p.add_argument("map", help="map id: q, squaring, or qE")
    p.add_argument("--n", type=_positive_int, default=None, help="read by squaring and qE (default 2)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed recorded in the report")
    p.add_argument(
        "--epsilon",
        type=float,
        default=DEFAULT_EPS,
        help="tolerance of the floating-point checks; positive and finite",
    )
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--window", type=_positive_int, default=None, help="read by qE (default 3)")
    p.set_defaults(handler=_cmd_verify_cover)

    p = sub.add_parser("obstruction", parents=[common], help="quasifibration witness")
    p.add_argument("spec", help="planar action JSON object or path")
    p.add_argument("--n", type=_positive_int, default=2)
    p.set_defaults(handler=_cmd_obstruction)

    p = sub.add_parser("groupoid", parents=[common], help="finite groupoid model checks")
    p.add_argument("spec", help="model JSON object or path")
    p.set_defaults(handler=_cmd_groupoid)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, extra, code = args.handler(args)
        config = {"subcommand": args.command, "format": args.format, **extra}
        envelope = {"tool": "orbconfig", "version": __version__, "config": config, "report": report}
        _emit(envelope, args.format, args.out)
    except tuple(EXIT_CODES) as exc:
        message = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        print(f"orbconfig: {message}", file=sys.stderr)
        return next(exit_code for error, exit_code in EXIT_CODES.items() if isinstance(exc, error))
    return code


if __name__ == "__main__":
    sys.exit(main())
