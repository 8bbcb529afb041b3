"""Command-line interface: JSON documents in, JSON reports out.

Exit codes: 0 success, 1 invalid input, 2 not Fano or not
Q-Gorenstein, 3 internal invariant breach.  All rationals are
serialized as exact fraction strings, never floats, and reports are
printed with sorted keys so equal runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import tropical
from .acomplex import (
    build_complex,
    cone_multiplier,
    default_fan,
    distance_report,
    gorenstein_index_via_complex,
    gorenstein_index_via_cones,
)
from .classify import brute_force_box, classify_index, fingerprint
from .errors import (
    DegenerateCell,
    GavError,
    InvalidCandidate,
    MalformedFanCone,
    NotAmple,
    NotLatticeMeasurable,
    NotQGorenstein,
    NotQGorensteinOnCone,
    NotQuasiprojectiveSetup,
)
from .gav_core import (
    ArrangementData,
    anticanonical_class,
    degree_map,
    fan_from_index_sets,
    make_data,
    moving_cone,
    validate,
)
from .polyhedra import (
    Cone,
    Fan,
    check_fan,
    cone_from_generators,
    make_fan,
    toric_gorenstein_index,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_QGORENSTEIN = 2
EXIT_BREACH = 3

INDEX_CAP = 5
# a setting-2 box scan grows about as bound^2 and takes minutes at this bound
BOUND_CAP = 500


class DocumentError(GavError):
    """An input document failed to parse or has the wrong shape."""


# ---------------------------------------------------------------------------
# input documents


class Violations(GavError):
    """An input document parsed, but its data is not admissible; args[0] lists why."""


def _integer(x) -> int:
    """A JSON integer; floats, booleans and strings are refused, not converted."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {json.dumps(x)}")
    return x


def _rational(x) -> Fraction:
    """An exact rational from a JSON number or string.

    Exponent notation is refused in strings: a few characters such as
    "1e999999999" would expand to a number of a billion digits.
    """
    if isinstance(x, str) and "e" in x.lower():
        raise ValueError(f"exponent notation is not accepted, got {json.dumps(x)}")
    return Fraction(str(x))


def _json(text: str):
    """Decode JSON text, reporting malformed text with its location."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


IndexSets = tuple[tuple[int, ...], ...]


def parse_input(text: str) -> tuple[ArrangementData, IndexSets | None]:
    """Parse a matrix-data document into its data and its listed fan.

    Column order in D and the fan's index sets: the blocks 0..r in
    order, then the m extra columns.  A fan of None means the default
    ample fan of the anticanonical class is used downstream.
    """
    raw = _json(text)
    if not isinstance(raw, dict):
        raise DocumentError("the top level must be a JSON object")
    missing = [k for k in ("r", "c", "n", "m", "l", "A", "D") if k not in raw]
    if missing:
        raise DocumentError("missing fields: " + ", ".join(missing))
    try:
        fields = dict(
            r=_integer(raw["r"]),
            c=_integer(raw["c"]),
            n=tuple(_integer(x) for x in raw["n"]),
            m=_integer(raw["m"]),
            l=tuple(tuple(_integer(x) for x in li) for li in raw["l"]),
            A=tuple(tuple(_rational(x) for x in row) for row in raw["A"]),
            D=tuple(tuple(_integer(x) for x in row) for row in raw["D"]),
        )
        fan = (
            tuple(tuple(_integer(i) for i in cone) for cone in raw["fan"])
            if raw.get("fan") is not None
            else None
        )
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"malformed field: {exc}") from exc
    return make_data(**fields), fan


def _admissible(text: str) -> tuple[ArrangementData, IndexSets | None]:
    """The parsed document, or Violations when its data is not admissible."""
    data, fan = parse_input(text)
    violations = validate(data)
    if violations:
        raise Violations(violations)
    return data, fan


def _load(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# report serialization


def _plain(obj):
    """Recursively convert report values into JSON-serializable ones."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, frozenset):
        return sorted(_plain(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj


def _cone_dict(cone: Cone | None):
    if cone is None:
        return None
    return {
        "dim": cone.dim,
        "rays": _plain(cone.rays),
        "lineality": _plain(cone.lineality),
    }


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(_plain(report), indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _resolve_fan(data: ArrangementData, index_sets: IndexSets | None) -> Fan:
    """The listed fan, or the ample fan of -K when the document has none.

    A listed fan must pass check_fan, and each of its cones must be a
    leaf cone or a big cone, so every command admits the same fans.
    """
    if index_sets is None:
        return default_fan(data)
    fan = check_fan(fan_from_index_sets(data, index_sets))
    trop = tropical.trop_structure(data.r, data.c, data.s)
    for cone in fan.maximal:
        tropical.classify_cone(trop, cone)
    return fan


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> tuple[int, dict]:
    data, fan = parse_input(_load(args.file))
    violations = validate(data)
    if fan is not None and not violations:
        try:
            _resolve_fan(data, fan)
        except (ValueError, GavError) as exc:
            violations.append(f"fan: {exc}")
    report = {
        "command": "validate",
        "valid": not violations,
        "violations": violations,
    }
    return (EXIT_OK if not violations else EXIT_INVALID), report


def cmd_info(args) -> tuple[int, dict]:
    data, _ = _admissible(_load(args.file))
    dd = degree_map(data)
    ak = anticanonical_class(data)
    mov = moving_cone(data)
    report = {
        "command": "info",
        "free_rank": dd.free_rank,
        "torsion": list(dd.torsion),
        "degrees": [
            {"label": label, "free": list(u.free), "tors": list(u.tors)}
            for label, u in zip(data.column_labels(), dd.degrees)
        ],
        "anticanonical": {"free": list(ak.free), "tors": list(ak.tors)},
        "moving_cone_rays": _plain(mov.rays),
    }
    return EXIT_OK, report


def cmd_fan(args) -> tuple[int, dict]:
    data, listed = _admissible(_load(args.file))
    fan = _resolve_fan(data, listed)
    trop = tropical.trop_structure(data.r, data.c, data.s)
    labels = data.column_labels()
    cones = []
    for iset, cone in zip(fan.index_sets, fan.maximal):
        kind = tropical.classify_cone(trop, cone)
        cones.append(
            {
                "columns": list(iset),
                "labels": [labels[i] for i in iset],
                "dim": cone.dim,
                "kind": kind.kind,
                "leaf_indices": (
                    sorted(kind.leaf_indices)
                    if kind.leaf_indices is not None
                    else None
                ),
                "elementary": kind.elementary,
            }
        )
    report = {
        "command": "fan",
        "ambient": fan.ambient,
        "source": "listed" if listed is not None else "anticanonical",
        "rays": _plain(data.columns),
        "maximal_cones": cones,
    }
    return EXIT_OK, report


def cmd_trop(args) -> tuple[int, dict]:
    data, _ = _admissible(_load(args.file))
    trop = tropical.trop_structure(data.r, data.c, data.s)
    report = {
        "command": "trop",
        "ambient": trop.ambient,
        "lineality_dim": trop.s,
        "leaves": [
            {"indices": sorted(indices), "dim": cone.dim}
            for indices, cone in trop.leaves
        ],
    }
    return EXIT_OK, report


def cmd_acomplex(args) -> tuple[int, dict]:
    data, listed = _admissible(_load(args.file))
    fan = _resolve_fan(data, listed)
    cx = build_complex(data, fan)
    rep = distance_report(cx)
    multipliers = [
        {"columns": list(iset), "multiplier": cone_multiplier(data, cone)}
        for iset, cone in zip(fan.index_sets, fan.maximal)
    ]
    report = {
        "command": "acomplex",
        "vertices": _plain(sorted(cx.boundary_vertices())),
        "boundary_cells": [
            {
                "vertices": _plain(sorted(cell.vertices)),
                "rays": _plain(cell.rays),
                "lineality": _plain(cell.lineality),
                "distance": dist,
            }
            for cell, dist in zip(cx.boundary, rep.distances)
        ],
        "cone_multipliers": multipliers,
        "gorenstein_index": rep.index,
    }
    return EXIT_OK, report


def _toric_fan(raw: dict) -> Fan:
    if not isinstance(raw, dict) or "rays" not in raw or "fan" not in raw:
        raise DocumentError('a toric document needs "rays" and "fan" fields')
    try:
        rays = tuple(tuple(_integer(x) for x in v) for v in raw["rays"])
        isets = tuple(tuple(_integer(i) for i in cone) for cone in raw["fan"])
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"malformed field: {exc}") from exc
    for iset in isets:
        if any(i < 0 or i >= len(rays) for i in iset):
            raise DocumentError(f"ray index out of range in cone {list(iset)}")
    cones = [
        cone_from_generators(tuple(rays[i] for i in iset)) for iset in isets
    ]
    return check_fan(make_fan(cones))


def cmd_gorenstein(args) -> tuple[int, dict]:
    text = _load(args.file)
    if args.toric:
        fan = _toric_fan(_json(text))
        value = toric_gorenstein_index(fan)
        return EXIT_OK, {
            "command": "gorenstein",
            "method": "toric",
            "gorenstein_index": value,
        }
    data, listed = _admissible(text)
    fan = _resolve_fan(data, listed)
    report: dict = {"command": "gorenstein", "method": args.method}
    if args.method in ("complex", "both"):
        report["via_complex"] = gorenstein_index_via_complex(data, fan)
    if args.method in ("cones", "both"):
        report["via_cones"] = gorenstein_index_via_cones(data, fan)
    if args.method == "both":
        if report["via_complex"] != report["via_cones"]:
            report["error"] = "internal invariant breach: the two methods disagree"
            return EXIT_BREACH, report
        report["gorenstein_index"] = report["via_complex"]
    else:
        report["gorenstein_index"] = report[f"via_{args.method}"]
    return EXIT_OK, report


def cmd_classify(args) -> tuple[int, dict]:
    if not 1 <= args.index <= INDEX_CAP:
        return EXIT_INVALID, {
            "command": "classify",
            "error": f"index must be between 1 and {INDEX_CAP}",
        }
    if args.jobs < 1:
        return EXIT_INVALID, {"command": "classify", "error": "jobs must be at least 1"}
    try:
        settings = tuple(
            sorted({int(s) for s in args.settings.split(",") if s.strip()})
        )
    except ValueError:
        return EXIT_INVALID, {
            "command": "classify",
            "error": f"cannot parse settings list {args.settings!r}",
        }
    result = classify_index(args.index, settings=settings, jobs=args.jobs)
    key = {
        (c.setting, c.params): i
        for i, g in enumerate(result.groups)
        for c in g
    }
    report = {
        "command": "classify",
        "index": result.index,
        "settings": [
            {
                "setting": s.setting,
                "enumerated": [list(p) for p in s.enumerated],
                "accepted": [
                    {
                        "params": list(c.params),
                        "gorenstein_index": c.index,
                        "group": key[(c.setting, c.params)],
                        "fingerprint": _plain(fingerprint(c)),
                    }
                    for c in s.accepted
                ],
                "rejected": [
                    {
                        "params": list(v.params),
                        "reason": v.reason,
                        "detail": _plain(v.detail),
                    }
                    for v in s.rejected
                ],
            }
            for s in result.settings
        ],
        "groups": [
            [{"setting": c.setting, "params": list(c.params)} for c in g]
            for g in result.groups
        ],
    }
    return EXIT_OK, report


def cmd_box_search(args) -> tuple[int, dict]:
    caps = (("index", args.index, INDEX_CAP), ("bound", args.bound, BOUND_CAP))
    for name, value, cap in caps:
        if value > cap:
            return EXIT_INVALID, {
                "command": "oracle box-search",
                "error": f"{name} must be at most {cap}",
            }
    tuples = brute_force_box(args.setting, args.index, args.bound)
    report = {
        "command": "oracle box-search",
        "setting": args.setting,
        "index": args.index,
        "bound": args.bound,
        "accepted": [list(v) for v in tuples],
    }
    return EXIT_OK, report


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; remap that to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Building it costs about as much as a small command, and parse_args
    keeps no state between calls, so every call of main shares it.
    """
    parser = _Parser(
        prog="gavindex",
        description=(
            "Exact anticanonical-complex and Gorenstein-index computations "
            "for general arrangement varieties."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="JSON input document")
        p.add_argument("--out", help="write the report to this file")
        return p

    with_file("validate", "check a document and list violations").set_defaults(
        handler=cmd_validate
    )
    with_file("info", "grading group, degrees and moving cone").set_defaults(
        handler=cmd_info
    )
    with_file("fan", "fan cones with tropical classifications").set_defaults(
        handler=cmd_fan
    )
    with_file("trop", "tropical leaf structure of the data").set_defaults(
        handler=cmd_trop
    )
    with_file(
        "acomplex", "anticanonical complex, distances and multipliers"
    ).set_defaults(handler=cmd_acomplex)

    goren = with_file("gorenstein", "Gorenstein index by one or both methods")
    goren.add_argument(
        "--method",
        choices=("complex", "cones", "both"),
        default="both",
    )
    goren.add_argument(
        "--toric",
        action="store_true",
        help="treat the document as a bare fan and use the toric oracle",
    )
    goren.set_defaults(handler=cmd_gorenstein)

    classify = sub.add_parser(
        "classify", help="enumerate and verify candidates for an index"
    )
    classify.add_argument("--index", type=int, required=True)
    classify.add_argument(
        "--settings",
        default="1,2,3,4,5",
        help="comma-separated setting ids (default: all)",
    )
    classify.add_argument("--jobs", type=int, default=1)
    classify.add_argument("--out", help="write the report to this file")
    classify.set_defaults(handler=cmd_classify)

    oracle = sub.add_parser("oracle", help="independent cross-checks")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    box = oracle_sub.add_parser(
        "box-search", help="brute-force box scan of one setting"
    )
    box.add_argument("--setting", type=int, required=True)
    box.add_argument("--index", type=int, required=True)
    box.add_argument(
        "--bound",
        type=int,
        default=60,
        help="largest absolute value of any parameter in the box (default: 60)",
    )
    box.add_argument("--out", help="write the report to this file")
    box.set_defaults(handler=cmd_box_search)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report = args.handler(args)
    except DocumentError as exc:
        code, report = EXIT_INVALID, {"error": str(exc)}
    except Violations as exc:
        code, report = EXIT_INVALID, {"command": args.command, "violations": exc.args[0]}
    except (MalformedFanCone, InvalidCandidate) as exc:
        cone = getattr(exc, "cone", None)
        code, report = EXIT_INVALID, {"error": str(exc), "cone": _cone_dict(cone)}
    except ValueError as exc:
        code, report = EXIT_INVALID, {"error": str(exc)}
    except NotQGorensteinOnCone as exc:
        code, report = EXIT_NOT_QGORENSTEIN, {
            "error": str(exc),
            "cone": _cone_dict(exc.cone),
        }
    except (
        NotQGorenstein,
        NotAmple,
        NotQuasiprojectiveSetup,
        DegenerateCell,
        NotLatticeMeasurable,
    ) as exc:
        code, report = EXIT_NOT_QGORENSTEIN, {"error": str(exc)}
    except AssertionError as exc:
        code, report = EXIT_BREACH, {
            "error": f"internal invariant breach: {exc}"
        }
    _emit(report, getattr(args, "out", None))
    return code


if __name__ == "__main__":
    sys.exit(main())
