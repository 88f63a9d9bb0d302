"""Command line interface.

Every command prints exactly one report to stdout, as canonical JSON
(sorted keys, two-space indent, trailing newline) or as a flat
deterministic text rendering.  Reports carry no timestamps or
environment data, so identical invocations produce identical bytes.

Exit codes: 0 the checked property holds or the command succeeded,
1 the property fails (a witness is in the report), 2 invalid input, a
failed precondition or a construction error, 3 unreadable input, 4
undecided within the resource bounds.  A bad command line is exit 2
too, with the usage and one ``loccat: error:`` line on stderr and
nothing on stdout.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict
from types import SimpleNamespace

from .approximation import verify_approximation
from .axioms import (
    check_isosaturated,
    check_multiplicative,
    check_reflects_denominators,
    validate_functor,
    word_json,
)
from .equivalence import (
    CheckReport,
    check_s_dense,
    check_s_equivalence,
    check_s_faithful,
    check_s_full,
    prepare,
)
from .fileio import ParseError, load_cat, load_choice, load_functor, _read_json
from .gz import localise, zigzag_view
from .presentation import (
    ConstructionError,
    LimitExceeded,
    PreconditionError,
    ValidationError,
    validate_cat_with_denoms,
)
from .rewrite import (
    ResourceLimits,
    complete,
    denominators,
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


def _limits_from(args: SimpleNamespace) -> ResourceLimits:
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


def cmd_validate(args: SimpleNamespace, limits: ResourceLimits) -> tuple[dict, int]:
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
                problems = validate_functor(f, rs_src, rs_tgt)
        except ValidationError as e:
            problems = [{"kind": "invalid", "detail": str(e)}]
        row["ok"] = not problems
        if problems:
            row["problems"] = problems
            all_ok = False
        rows.append(row)
    return {"result": {"files": rows, "ok": all_ok}}, \
        EXIT_OK if all_ok else EXIT_INVALID


def cmd_localise(args: SimpleNamespace, limits: ResourceLimits) -> tuple[dict, int]:
    cwd = load_cat(args.path)
    rs = complete(cwd.cat, limits)
    lc = localise(cwd, rs)
    dec = denominators(cwd, rs)
    inverted = []
    for w in dec.materialized:
        inv = find_inverse(lc.rs, lc.presentation.word(
            w.letters) if w.letters else lc.presentation.identity(w.src))
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


def cmd_homset(args: SimpleNamespace, limits: ResourceLimits) -> tuple[dict, int]:
    cwd = load_cat(args.path)
    rs = complete(cwd.cat, limits)
    if args.src not in cwd.cat.obj_index or args.dst not in cwd.cat.obj_index:
        raise ValidationError(
            f"unknown object in homset query: {args.src!r} or {args.dst!r}")
    result: dict = {"src": args.src, "dst": args.dst, "status": rs.status}
    if args.localised:
        lc = localise(cwd, rs)
        words = homset(lc.rs, args.src, args.dst)
        result["words"] = [list(w.letters) for w in words]
        result["zigzags"] = [zigzag_view(lc, w).render() for w in words]
        result["localised"] = True
    else:
        words = homset(rs, args.src, args.dst)
        result["words"] = [list(w.letters) for w in words]
        result["localised"] = False
    result["count"] = len(words)
    return {"result": result}, EXIT_OK


def cmd_check(args: SimpleNamespace, limits: ResourceLimits) -> tuple[dict, int]:
    kind = _sniff_kind(args.path)
    which = args.which
    if which in CATEGORY_CHECKS and kind != "category":
        raise ValidationError(f"check {which!r} expects a category file")
    if which in FUNCTOR_CHECKS and kind != "functor":
        raise ValidationError(f"check {which!r} expects a functor file")

    if kind == "category":
        cwd = load_cat(args.path)
        rs = complete(cwd.cat, limits)
        if which == "multiplicative":
            verdict, witness = check_multiplicative(cwd, rs)
            details: dict = {}
        elif which == "isosaturated":
            verdict, witness = check_isosaturated(cwd, rs)
            details = {}
        else:
            mult, w_mult = check_multiplicative(cwd, rs)
            iso, w_iso = check_isosaturated(cwd, rs)
            verdict = mult and iso
            witness = w_mult if w_mult is not None else w_iso
            details = {"multiplicative": mult, "isosaturated": iso}
        report = CheckReport(which, verdict, witness, asdict(limits),
                             rs.status, details).to_json()
    else:
        f = load_functor(args.path)
        setting = prepare(f, limits)
        if which == "reflects-denominators":
            verdict, witness = check_reflects_denominators(
                f, setting.rs_src, setting.rs_tgt)
            report = CheckReport(which, verdict, witness, asdict(limits),
                                 setting.decidability_status, {}).to_json()
        else:
            checker = {"s-dense": check_s_dense, "s-full": check_s_full,
                       "s-faithful": check_s_faithful,
                       "s-equivalence": check_s_equivalence}[which]
            report = checker(f, limits, setting).to_json()
    return {"result": report}, EXIT_OK if report["verdict"] else EXIT_FALSE


def cmd_verify_approximation(args: SimpleNamespace,
                             limits: ResourceLimits) -> tuple[dict, int]:
    f = load_functor(args.path)
    choice = None
    compare = None
    sel = args.choice or ["auto"]
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


# The command-line grammar.  Each command lists its positionals and its
# options in order; every command also takes COMMON_OPTIONS.  A spec may
# give "type" ("bound", a non-negative integer; "flag", no value;
# "words", one or more values; default one string), "choices",
# "required", "default", "metavar" and "help".  A positional's field is
# its name, an option's field its flag without dashes, "-" read as "_".
COMMON_OPTIONS = {
    "--limits-word-len": {"type": "bound", "metavar": "N",
                          "help": "maximum normal form length"},
    "--limits-rules": {"type": "bound", "metavar": "N",
                       "help": "maximum number of rewrite rules"},
    "--limits-homset": {"type": "bound", "metavar": "N",
                        "help": "maximum enumerated hom-set size"},
    "--format": {"choices": ("json", "text"), "default": "json",
                 "help": "report format"},
}

GRAMMAR = {
    "validate": {
        "help": "validate category and functor files",
        "run": cmd_validate,
        "positionals": {"paths": {"type": "words"}},
        "options": {},
    },
    "localise": {
        "help": "present the localisation of a category",
        "run": cmd_localise,
        "positionals": {"path": {}},
        "options": {},
    },
    "homset": {
        "help": "enumerate a hom-set, base or localised",
        "run": cmd_homset,
        "positionals": {"path": {}},
        "options": {
            "--src": {"required": True, "metavar": "X",
                      "help": "source object"},
            "--dst": {"required": True, "metavar": "Y",
                      "help": "target object"},
            "--localised": {"type": "flag",
                            "help": "enumerate in the localisation"},
        },
    },
    "check": {
        "help": "run a named decidable check",
        "run": cmd_check,
        "positionals": {
            "which": {"choices": CATEGORY_CHECKS + FUNCTOR_CHECKS},
            "path": {},
        },
        "options": {},
    },
    "verify-approximation": {
        "help": "verify the approximation theorem componentwise",
        "run": cmd_verify_approximation,
        "positionals": {"path": {}},
        "options": {
            "--choice": {"type": "words", "metavar": "auto | from-file PATH",
                         "help": "the choice of replacements (default auto)"},
            "--experimental-no-mult": {
                "type": "flag", "help": "skip the multiplicativity gate"},
        },
    },
}

DESCRIPTION = ("Localisation of finitely presented categories with "
               "denominators, with replacement machinery checks.")
HELP_FLAGS = ("-h", "--help")


def _field(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _shape(name: str, spec: dict) -> str:
    """How ``name`` is written: a flag, a flag and its value, or a
    positional's metavariable."""
    kind = spec.get("type")
    if name.startswith("--"):
        if kind == "flag":
            return name
        meta = spec.get("metavar") or "|".join(spec.get("choices", ()))
        return f"{name} {meta or name[2:].upper()}"
    meta = "|".join(spec["choices"]) if "choices" in spec else name.upper()
    return f"{meta}..." if kind == "words" else meta


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: loccat {'|'.join(GRAMMAR)} ..."
    grammar = GRAMMAR[command]
    parts = [_shape(n, s) for n, s in grammar["positionals"].items()]
    for name, spec in {**grammar["options"], **COMMON_OPTIONS}.items():
        parts.append(_shape(name, spec) if spec.get("required")
                     else f"[{_shape(name, spec)}]")
    return f"usage: loccat {command} {' '.join(parts)}"


def _help(command: str | None) -> str:
    def rows(options: dict) -> list[str]:
        return [f"  {_shape(n, s):<24} {s['help']}"
                + (" (required)" if s.get("required") else "")
                for n, s in options.items()]

    if command is None:
        lines = [_usage(None), "", DESCRIPTION, "", "commands:"]
        for name, grammar in GRAMMAR.items():
            lines += [f"  {name:<24} {grammar['help']}",
                      "    " + _usage(name)[len("usage: "):]]
    else:
        grammar = GRAMMAR[command]
        lines = [_usage(command), "", grammar["help"]]
        if grammar["options"]:
            lines += ["", "options:", *rows(grammar["options"])]
    lines += ["", "options of every command:", *rows(COMMON_OPTIONS),
              f"  {'-h, --help':<24} show this help and exit"]
    return "\n".join(lines) + "\n"


def _usage_error(command: str | None, message: str):
    sys.stderr.write(f"{_usage(command)}\nloccat: error: {message}\n")
    raise SystemExit(EXIT_INVALID)


def _is_option(arg: str) -> bool:
    # "-" alone and negative numbers are values, so that a negative bound
    # reaches the bound check instead of reading as an unknown option
    return arg.startswith("-") and arg != "-" and not arg[1:].isdigit()


def _convert(command: str, name: str, spec: dict, texts: list[str]):
    for text in texts:
        if text not in spec.get("choices", (text,)):
            _usage_error(command, f"argument {name}: invalid choice: "
                                  f"{text!r} (choose from "
                                  f"{', '.join(spec['choices'])})")
    kind = spec.get("type")
    if kind == "words":
        return texts
    text, = texts
    if kind == "bound":
        if not text.isdecimal():
            _usage_error(command, f"argument {name}: expected a "
                                  f"non-negative integer, got {text!r}")
        return int(text)
    return text


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` against GRAMMAR.  Prints help and raises
    ``SystemExit(0)`` on ``-h``; on bad input writes the usage and an
    error line to stderr and raises ``SystemExit(2)``."""
    if not argv or argv[0] in HELP_FLAGS:
        if argv:
            sys.stdout.write(_help(None))
            raise SystemExit(EXIT_OK)
        _usage_error(None, "a command is required")
    command, rest = argv[0], argv[1:]
    grammar = GRAMMAR.get(command)
    if grammar is None:
        _usage_error(None, f"invalid command: {command!r} "
                           f"(choose from {', '.join(GRAMMAR)})")
    options = {**grammar["options"], **COMMON_OPTIONS}
    fields = {}
    for name, spec in options.items():
        unset = False if spec.get("type") == "flag" else None
        fields[_field(name)] = spec.get("default", unset)
    words: list[str] = []
    i = 0
    while i < len(rest):
        arg = rest[i]
        i += 1
        if not _is_option(arg):
            words.append(arg)
            continue
        if arg in HELP_FLAGS:
            sys.stdout.write(_help(command))
            raise SystemExit(EXIT_OK)
        name, eq, inline = arg.partition("=")
        spec = options.get(name)
        if spec is None:
            _usage_error(command, f"unrecognized argument: {arg}")
        if spec.get("type") == "flag":
            if eq:
                _usage_error(command, f"argument {name}: takes no value")
            fields[_field(name)] = True
            continue
        texts = [inline] if eq else []
        while not eq and i < len(rest) and not _is_option(rest[i]) and \
                (not texts or spec.get("type") == "words"):
            texts.append(rest[i])
            i += 1
        if not texts:
            _usage_error(command, f"argument {name}: expected a value")
        fields[_field(name)] = _convert(command, name, spec, texts)
    missing = [name for name, spec in options.items()
               if spec.get("required") and fields[_field(name)] is None]
    for name, spec in grammar["positionals"].items():
        if not words:
            missing.append(name)
            continue
        take = len(words) if spec.get("type") == "words" else 1
        fields[name] = _convert(command, name, spec, words[:take])
        words = words[take:]
    if missing:
        _usage_error(command, "the following arguments are required: "
                              + ", ".join(missing))
    if words:
        _usage_error(command, f"unrecognized arguments: {' '.join(words)}")
    return SimpleNamespace(command=command, **fields)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    fmt = args.format
    command = args.command
    limits = PROFILES["default"]
    try:
        limits = _limits_from(args)
        payload, code = GRAMMAR[command]["run"](args, limits)
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
    except ConstructionError as e:
        payload = {"error": {"kind": "construction", "message": str(e)}}
        code = EXIT_INVALID
    except LimitExceeded as e:
        payload = {"error": {"kind": "undecided", "bound": e.bound,
                             "message": str(e)}}
        code = EXIT_UNDECIDED
    sys.stdout.write(_emit(command, limits, fmt, payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
