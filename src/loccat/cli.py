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
from json.encoder import encode_basestring
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
    check_report,
    check_s_dense,
    check_s_equivalence,
    check_s_faithful,
    check_s_full,
    prepare,
)
from .fileio import ParseError, load_cat, load_choice, load_functor, read_json
from .gz import localise, zigzag_view
from .presentation import (
    ConstructionError,
    LimitExceeded,
    LoccatError,
    PreconditionError,
    ValidationError,
)
from .rewrite import (
    ResourceLimits,
    complete,
    denominators,
    inverse,
    words,
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

# Each error a command may raise: its report's kind, the exit code, and
# the attributes it adds to the report besides its message.
ERRORS = {
    ParseError: ("parse", EXIT_PARSE, ()),
    PreconditionError: ("precondition", EXIT_INVALID, ("witness",)),
    ValidationError: ("validation", EXIT_INVALID, ()),
    ConstructionError: ("construction", EXIT_INVALID, ()),
    LimitExceeded: ("undecided", EXIT_UNDECIDED, ("bound",)),
}


def _limits_from(args: SimpleNamespace) -> ResourceLimits:
    """The profile's limits, each ``max_X`` replaced by ``--limits-X`` if set."""
    profile_name = os.environ.get("LOCCAT_LIMITS_PROFILE", "default")
    profile = PROFILES.get(profile_name)
    if profile is None:
        raise ValidationError(
            f"unknown LOCCAT_LIMITS_PROFILE {profile_name!r}; "
            f"expected one of {sorted(PROFILES)}")
    return ResourceLimits(
        profile.max_word_len if args.limits_word_len is None else args.limits_word_len,
        profile.max_rules if args.limits_rules is None else args.limits_rules,
        profile.max_homset if args.limits_homset is None else args.limits_homset)


def _flatten(obj: object, path: str, out: list[str]):
    if isinstance(obj, dict) and obj:
        for key in sorted(obj):
            _flatten(obj[key], f"{path}.{key}" if path else str(key), out)
    elif isinstance(obj, list) and obj:
        for i, item in enumerate(obj):
            _flatten(item, f"{path}[{i}]", out)
    else:  # a scalar, or an empty container written as {} or []
        out.append(f"{path} = {json.dumps(obj, ensure_ascii=False)}")


# json's spelling of its three constants
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write_json(value: object, indent: str, out: list[str]):
    """Append to ``out`` the chunks of ``json.dumps(value, sort_keys=True,
    indent=2, ensure_ascii=False)``, for the values a report holds.  json
    writes an indented report with its pure-Python encoder; this one
    quotes strings with json's C quoter, so the only Python code it runs
    is this function."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, dict) and value:
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            out += sep, encode_basestring(key), ": "
            _write_json(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(value, (dict, list, tuple)):
        out.append("{}" if isinstance(value, dict) else "[]")
    elif value is None or isinstance(value, bool):
        out.append(_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(command: str, limits: ResourceLimits, fmt: str, payload: dict) -> str:
    report = {"schema": SCHEMA, "command": command, "limits": limits._asdict(),
              **payload}
    if fmt == "text":
        lines: list[str] = []
        _flatten(report, "", lines)
        return "\n".join(lines) + "\n"
    chunks: list[str] = []
    _write_json(report, "", chunks)
    chunks.append("\n")
    return "".join(chunks)


def _read(path: str) -> tuple[str, object]:
    """A file's kind and JSON: a functor if it has a top-level ``object_map``."""
    data = read_json(path)
    return "functor" if isinstance(data, dict) and "object_map" in data else "category", data


def _spelled(p, lhs: str, rhs: str) -> dict:
    """The codes of two sides as lists of generator names."""
    spell = p.codec[1].__getitem__
    return {"lhs": list(map(spell, lhs)), "rhs": list(map(spell, rhs))}


def _cat_summary(cwd) -> dict:
    return {
        "objects": list(cwd.cat.objects),
        "generators": [{"name": g.name, "src": g.src, "dst": g.dst}
                       for g in cwd.cat.generators],
        "relations": [_spelled(cwd.cat, lhs[2], rhs[2]) for lhs, rhs in cwd.cat.relations],
    }


def cmd_validate(args: SimpleNamespace, limits: ResourceLimits) -> tuple[dict, int]:
    rows = []
    for path in args.paths:
        kind, data = _read(path)
        row: dict = {"path": path, "kind": kind}
        try:
            if kind == "category":
                load_cat(path, data)
                problems = []
            else:
                f = load_functor(path, data)
                rs_src = complete(f.source.cat, limits)
                rs_tgt = complete(f.target.cat, limits)
                problems = validate_functor(f, rs_src, rs_tgt)
        except ValidationError as e:
            problems = [{"kind": "invalid", "detail": str(e)}]
        row["ok"] = not problems
        if problems:
            row["problems"] = problems
        rows.append(row)
    all_ok = all(row["ok"] for row in rows)
    return {"result": {"files": rows, "ok": all_ok}}, \
        EXIT_OK if all_ok else EXIT_INVALID


def cmd_localise(args: SimpleNamespace, limits: ResourceLimits) -> tuple[dict, int]:
    cwd = load_cat(args.path)
    rs = complete(cwd.cat, limits)
    lc = localise(cwd, rs)
    inverted = []
    for w in denominators(cwd, rs).closure:
        inv = inverse(lc.rs, w)
        inverted.append({"denominator": word_json(rs.decode(w)),
                         "inverse": word_json(lc.rs.decode(inv)) if inv is not None else None})
    result = {
        "base": _cat_summary(cwd),
        "localised": _cat_summary(lc.cwd),
        "inverse_generators": dict(sorted(lc.inv_of.items())),
        "fresh_generators": {name: list(rs.decode(w).letters)
                             for name, w in sorted(lc.fresh_defs.items())},
        "rules": [_spelled(lc.presentation, lhs, rhs) for lhs, rhs in lc.rs.rules],
        "status": lc.rs.status,
        "denominators": inverted,
    }
    return {"result": result}, EXIT_OK


def cmd_homset(args: SimpleNamespace, limits: ResourceLimits) -> tuple[dict, int]:
    cwd = load_cat(args.path)
    if args.src not in cwd.cat.obj_index or args.dst not in cwd.cat.obj_index:
        raise ValidationError(
            f"unknown object in homset query: {args.src!r} or {args.dst!r}")
    rs = complete(cwd.cat, limits)
    lc = localise(cwd, rs) if args.localised else None
    system = rs if lc is None else lc.rs
    result: dict = {"src": args.src, "dst": args.dst, "status": system.status,
                    "localised": args.localised}
    found = [(args.src, args.dst, s) for s in words(system, args.src, args.dst)]
    result["words"] = [list(system.decode(w).letters) for w in found]
    if lc is not None:
        result["zigzags"] = [zigzag_view(lc, w).render() for w in found]
    result["count"] = len(found)
    return {"result": result}, EXIT_OK


# called through this module's globals, which bench/tracer.py rebinds
AXIOMS = {"multiplicative": lambda cwd, rs: check_multiplicative(cwd, rs),
          "isosaturated": lambda cwd, rs: check_isosaturated(cwd, rs)}
REFLECTS = "reflects-denominators"

# Each check by name: the kind of file it reads and what it runs.  A
# category check runs axioms on the completed category, in order, and
# reports the first witness found; run on all of AXIOMS, it also reports
# each verdict in its details.  A functor check maps the prepared
# setting to its report.
CHECKS = {
    **{name: ("category", {name: axiom}) for name, axiom in AXIOMS.items()},
    "axioms": ("category", AXIOMS),
    "s-dense": ("functor", check_s_dense),
    "s-full": ("functor", check_s_full),
    "s-faithful": ("functor", check_s_faithful),
    "s-equivalence": ("functor", check_s_equivalence),
    REFLECTS: ("functor", lambda setting: check_report(
        setting, REFLECTS, *check_reflects_denominators(
            setting.f, setting.rs_src, setting.rs_tgt), {})),
}


def cmd_check(args: SimpleNamespace, limits: ResourceLimits) -> tuple[dict, int]:
    kind, data = _read(args.path)
    wanted, run = CHECKS[args.which]
    if kind != wanted:
        raise ValidationError(f"check {args.which!r} expects a {wanted} file")
    if kind == "functor":
        report = run(prepare(load_functor(args.path, data), limits))
    else:
        cwd = load_cat(args.path, data)
        rs = complete(cwd.cat, limits)
        found = {name: axiom(cwd, rs) for name, axiom in run.items()}
        verdicts = {name: verdict for name, (verdict, _) in found.items()}
        witness = next((w for _, w in found.values() if w is not None), None)
        report = CheckReport(args.which, all(verdicts.values()), witness,
                             limits._asdict(), rs.status,
                             verdicts if len(verdicts) > 1 else {})
    return {"result": report._asdict()}, EXIT_OK if report.verdict else EXIT_FALSE


def cmd_verify_approximation(args: SimpleNamespace,
                             limits: ResourceLimits) -> tuple[dict, int]:
    f = load_functor(args.path)
    choice = None if args.choice in (None, ["auto"]) else load_choice(args.choice[1], f)
    report = verify_approximation(
        f, limits, choice=choice,
        experimental_no_mult=args.experimental_no_mult)
    return {"result": report._asdict()}, EXIT_OK if report.ok else EXIT_FALSE


# The command-line grammar.  Each command lists its positionals and its
# options in order; every command also takes COMMON_OPTIONS.  A spec may
# give "type" ("bound", a non-negative integer; "flag", no value;
# "words", one or more values; default one string), "choices", "forms"
# (the first words a "words" option accepts, each with the number of
# words it takes), "required", "default", "metavar" and "help".  A
# positional's field is its name, an option's field its flag without
# dashes, "-" read as "_".
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
            "which": {"choices": tuple(CHECKS)},
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
                         "forms": {"auto": 1, "from-file": 2},
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
        return f"{name} {spec.get('metavar') or '|'.join(spec['choices'])}"
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
        forms = spec.get("forms")
        if forms and forms.get(texts[0]) != len(texts):
            _usage_error(command, f"argument {name}: expected "
                                  f"{spec['metavar']}, got {' '.join(texts)!r}")
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
        # one word, or as many as the form its first word names
        while not eq and i < len(rest) and not _is_option(rest[i]) and \
                (not texts or len(texts) < spec.get("forms", {}).get(texts[0], 1)):
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
    limits = PROFILES["default"]
    try:
        limits = _limits_from(args)
        payload, code = GRAMMAR[args.command]["run"](args, limits)
    except LoccatError as e:
        kind, code, extra = ERRORS[type(e)]
        payload = {"error": {"kind": kind, "message": str(e),
                             **{name: getattr(e, name) for name in extra}}}
    sys.stdout.write(_emit(args.command, limits, args.format, payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
