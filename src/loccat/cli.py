"""Command line interface.

Every command prints exactly one report to stdout, as canonical JSON
(sorted keys, two-space indent, trailing newline) or as a flat
deterministic text rendering.  Reports carry no timestamps or
environment data, so identical invocations produce identical bytes.

Exit codes: 0 the checked property holds or the command succeeded,
1 the property fails (a witness is in the report), 2 invalid input or
a failed precondition, 3 unreadable input, 4 undecided within the
resource bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .approximation import verify_approximation
from .axioms import (
    check_isosaturated,
    check_multiplicative,
    check_reflects_denominators,
    validate_functor,
    word_json,
)
from .equivalence import (
    check_s_dense,
    check_s_equivalence,
    check_s_faithful,
    check_s_full,
    prepare,
)
from .fileio import ParseError, load_cat, load_choice, load_functor, _read_json
from .gz import localise, zigzag_view
from .presentation import (
    LimitExceeded,
    PreconditionError,
    ValidationError,
    validate_cat_with_denoms,
)
from .rewrite import (
    DenomDecider,
    ResourceLimits,
    complete,
    find_inverse,
    homset,
)

SCHEMA = "loccat-report/1"

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_UNDECIDED = 4

PROFILES = {
    "default": ResourceLimits(),
    "small": ResourceLimits(max_word_len=8, max_rules=128, max_homset=256),
    "large": ResourceLimits(max_word_len=32, max_rules=2048, max_homset=8192),
}

CATEGORY_CHECKS = ("multiplicative", "isosaturated", "axioms")
FUNCTOR_CHECKS = ("s-dense", "s-full", "s-faithful", "s-equivalence",
                  "reflects-denominators")


def _limits_from(args: argparse.Namespace) -> ResourceLimits:
    profile_name = os.environ.get("LOCCAT_LIMITS_PROFILE", "default")
    profile = PROFILES.get(profile_name)
    if profile is None:
        raise ValidationError(
            f"unknown LOCCAT_LIMITS_PROFILE {profile_name!r}; "
            f"expected one of {sorted(PROFILES)}")
    return ResourceLimits(
        max_word_len=args.limits_word_len if args.limits_word_len is not None
        else profile.max_word_len,
        max_rules=args.limits_rules if args.limits_rules is not None
        else profile.max_rules,
        max_homset=args.limits_homset if args.limits_homset is not None
        else profile.max_homset,
    )


def _flatten(obj: object, path: str, out: list[str]):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{path}.{key}" if path else str(key), out)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _flatten(item, f"{path}[{i}]", out)
    else:
        out.append(f"{path} = {json.dumps(obj, ensure_ascii=False)}")


def _emit(command: str, limits: ResourceLimits, fmt: str, payload: dict) -> str:
    report = {"schema": SCHEMA, "command": command, "limits": asdict(limits),
              **payload}
    if fmt == "text":
        lines: list[str] = []
        _flatten(report, "", lines)
        return "\n".join(lines) + "\n"
    return json.dumps(report, sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def _sniff_kind(path: str) -> str:
    data = _read_json(path)
    if isinstance(data, dict) and "object_map" in data:
        return "functor"
    return "category"


def _cat_summary(cwd) -> dict:
    return {
        "objects": list(cwd.cat.objects),
        "generators": [{"name": g.name, "src": g.src, "dst": g.dst}
                       for g in cwd.cat.generators],
        "relations": [{"lhs": list(r.lhs.letters), "rhs": list(r.rhs.letters)}
                      for r in cwd.cat.relations],
    }


def cmd_validate(args: argparse.Namespace, limits: ResourceLimits) -> tuple[dict, int]:
    rows = []
    all_ok = True
    for path in args.paths:
        kind = _sniff_kind(path)
        row: dict = {"path": path, "kind": kind}
        try:
            if kind == "category":
                cwd = load_cat(path)
                problems = validate_cat_with_denoms(cwd)
            else:
                f = load_functor(path)
                rs_src = complete(f.source.cat, limits)
                rs_tgt = complete(f.target.cat, limits)
                problems = validate_functor(f, rs_src, rs_tgt, limits)
        except ValidationError as e:
            problems = [{"kind": "invalid", "detail": str(e)}]
        row["ok"] = not problems
        if problems:
            row["problems"] = problems
            all_ok = False
        rows.append(row)
    return {"result": {"files": rows, "ok": all_ok}}, \
        EXIT_OK if all_ok else EXIT_INVALID


def cmd_localise(args: argparse.Namespace, limits: ResourceLimits) -> tuple[dict, int]:
    cwd = load_cat(args.path)
    rs = complete(cwd.cat, limits)
    lc = localise(cwd, rs, limits)
    dec = DenomDecider(cwd, rs, limits)
    inverted = []
    for w in dec.materialized:
        inv = find_inverse(lc.rs, lc.presentation.word(
            w.letters) if w.letters else lc.presentation.identity(w.src),
            limits)
        inverted.append({"denominator": word_json(w),
                         "inverse": word_json(inv) if inv is not None else None})
    result = {
        "base": _cat_summary(cwd),
        "localised": _cat_summary(lc.cwd),
        "inverse_generators": dict(sorted(lc.inv_of.items())),
        "fresh_generators": {name: list(w.letters)
                             for name, w in sorted(lc.fresh_defs.items())},
        "rules": [{"lhs": list(r.lhs.letters), "rhs": list(r.rhs.letters)}
                  for r in lc.rs.rules],
        "status": lc.rs.status,
        "denominators": inverted,
    }
    return {"result": result}, EXIT_OK


def cmd_homset(args: argparse.Namespace, limits: ResourceLimits) -> tuple[dict, int]:
    cwd = load_cat(args.path)
    rs = complete(cwd.cat, limits)
    if args.src not in cwd.cat.obj_index or args.dst not in cwd.cat.obj_index:
        raise ValidationError(
            f"unknown object in homset query: {args.src!r} or {args.dst!r}")
    result: dict = {"src": args.src, "dst": args.dst, "status": rs.status}
    if args.localised:
        lc = localise(cwd, rs, limits)
        words = homset(lc.rs, args.src, args.dst, limits)
        result["words"] = [list(w.letters) for w in words]
        result["zigzags"] = [zigzag_view(lc, w).render() for w in words]
        result["localised"] = True
    else:
        words = homset(rs, args.src, args.dst, limits)
        result["words"] = [list(w.letters) for w in words]
        result["localised"] = False
    result["count"] = len(words)
    return {"result": result}, EXIT_OK


def cmd_check(args: argparse.Namespace, limits: ResourceLimits) -> tuple[dict, int]:
    kind = _sniff_kind(args.path)
    which = args.which
    if which in CATEGORY_CHECKS and kind != "category":
        raise ValidationError(f"check {which!r} expects a category file")
    if which in FUNCTOR_CHECKS and kind != "functor":
        raise ValidationError(f"check {which!r} expects a functor file")

    if kind == "category":
        cwd = load_cat(args.path)
        rs = complete(cwd.cat, limits)
        dec = DenomDecider(cwd, rs, limits)
        if which == "multiplicative":
            verdict, witness = check_multiplicative(cwd, rs, limits, decider=dec)
            details: dict = {}
        elif which == "isosaturated":
            verdict, witness = check_isosaturated(cwd, rs, limits, decider=dec)
            details = {}
        else:
            mult, w_mult = check_multiplicative(cwd, rs, limits, decider=dec)
            iso, w_iso = check_isosaturated(cwd, rs, limits, decider=dec)
            verdict = mult and iso
            witness = w_mult if w_mult is not None else w_iso
            details = {"multiplicative": mult, "isosaturated": iso}
        report = {"check": which, "verdict": verdict, "witness": witness,
                  "bounds_used": asdict(limits),
                  "decidability_status": rs.status, "details": details}
    else:
        f = load_functor(args.path)
        setting = prepare(f, limits)
        if which == "reflects-denominators":
            verdict, witness = check_reflects_denominators(
                f, setting.rs_src, setting.rs_tgt, limits)
            report = {"check": which, "verdict": verdict, "witness": witness,
                      "bounds_used": asdict(limits),
                      "decidability_status": setting.decidability_status,
                      "details": {}}
        else:
            checker = {"s-dense": check_s_dense, "s-full": check_s_full,
                       "s-faithful": check_s_faithful,
                       "s-equivalence": check_s_equivalence}[which]
            report = checker(f, limits, setting).to_json()
    return {"result": report}, EXIT_OK if report["verdict"] else EXIT_FALSE


def cmd_verify_approximation(args: argparse.Namespace,
                             limits: ResourceLimits) -> tuple[dict, int]:
    f = load_functor(args.path)
    choice = None
    compare = None
    sel = args.choice
    if sel == ["auto"]:
        pass
    elif len(sel) == 2 and sel[0] == "from-file":
        rs_tgt = complete(f.target.cat, limits)
        choice = load_choice(sel[1], f, rs_tgt)
        compare = "auto"
    else:
        raise ValidationError(
            "--choice expects 'auto' or 'from-file <path>'")
    report = verify_approximation(
        f, limits, choice=choice, compare_choice=compare,
        experimental_no_mult=args.experimental_no_mult)
    return {"result": report.to_json()}, EXIT_OK if report.ok else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--limits-word-len", type=int, default=None,
                        metavar="N", help="maximum normal form length")
    common.add_argument("--limits-rules", type=int, default=None,
                        metavar="N", help="maximum number of rewrite rules")
    common.add_argument("--limits-homset", type=int, default=None,
                        metavar="N", help="maximum enumerated hom-set size")
    common.add_argument("--format", choices=["json", "text"], default="json")

    parser = argparse.ArgumentParser(
        prog="loccat",
        description="Localisation of finitely presented categories with "
                    "denominators, with replacement machinery checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="validate category and functor files")
    p.add_argument("paths", nargs="+")

    p = sub.add_parser("localise", parents=[common],
                       help="present the localisation of a category")
    p.add_argument("path")

    p = sub.add_parser("homset", parents=[common],
                       help="enumerate a hom-set, base or localised")
    p.add_argument("path")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--localised", action="store_true")

    p = sub.add_parser("check", parents=[common],
                       help="run a named decidable check")
    p.add_argument("which", choices=CATEGORY_CHECKS + FUNCTOR_CHECKS)
    p.add_argument("path")

    p = sub.add_parser("verify-approximation", parents=[common],
                       help="verify the approximation theorem componentwise")
    p.add_argument("path")
    p.add_argument("--choice", nargs="+", default=["auto"],
                   metavar=("auto|from-file", "PATH"))
    p.add_argument("--experimental-no-mult", action="store_true")
    return parser


HANDLERS = {
    "validate": cmd_validate,
    "localise": cmd_localise,
    "homset": cmd_homset,
    "check": cmd_check,
    "verify-approximation": cmd_verify_approximation,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = args.format
    command = args.command
    limits = PROFILES["default"]
    try:
        limits = _limits_from(args)
        payload, code = HANDLERS[command](args, limits)
    except ParseError as e:
        payload = {"error": {"kind": "parse", "message": str(e)}}
        code = EXIT_PARSE
    except PreconditionError as e:
        payload = {"error": {"kind": "precondition", "message": str(e),
                             "witness": e.witness}}
        code = EXIT_INVALID
    except ValidationError as e:
        payload = {"error": {"kind": "validation", "message": str(e)}}
        code = EXIT_INVALID
    except LimitExceeded as e:
        payload = {"error": {"kind": "undecided", "bound": e.bound,
                             "message": str(e)}}
        code = EXIT_UNDECIDED
    sys.stdout.write(_emit(command, limits, fmt, payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
