"""JSON file formats for categories, functors and replacement choices.

Shape errors (bad JSON, wrong types, missing keys) raise
:class:`ParseError`; semantically invalid but well-shaped data raises
:class:`ValidationError` from the structural validators.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .presentation import (
    CatPresentation,
    CatWithDenoms,
    DenomSet,
    FunctorData,
    GenArrow,
    LoccatError,
    ValidationError,
    validate_presentation,
)
from .replacement import ReplacementChoice, SReplacement


class ParseError(LoccatError):
    """The input file could not be read as the expected JSON shape."""


# the escape of a surrogate, paired or not: a file holding a lone one,
# which no report could write out as UTF-8, is a parse error
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def read_json(path: str | Path) -> object:
    try:
        try:
            with open(path, "rb", buffering=0) as f:
                raw = f.read()
        except OSError:  # pathlib forgives a trailing slash and names a/./x.json a/x.json
            raw = Path(path).read_bytes()
        # decoded here, not through text mode's buffer and decoder layers,
        # with "\n" line ends as text mode gives them
        text = raw.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        data = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):  # json.loads joined each valid pair
            json.dumps(data, ensure_ascii=False).encode("utf-8")  # raises on a lone one
        return data
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e}") from e
    except UnicodeEncodeError as e:
        raise ParseError(f"{path} holds a lone surrogate escape: "
                         f"{e.object[e.start]!r}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise ParseError(f"{path} nests too deeply to read: {e}") from e


def _beside(path: str | Path, name: str) -> str:
    """The file ``name`` names relative to the folder holding ``path``,
    spelled as ``str(Path(path).parent / name)`` spells it on POSIX: no
    empty or ``.`` parts, and a root of ``//`` only when written so."""
    def parts(text: str) -> tuple[str, list[str]]:
        rest = text.lstrip("/")
        root = "//" if len(text) - len(rest) == 2 else "/" if rest != text else ""
        return root, [part for part in rest.split("/") if part not in ("", ".")]

    if name.startswith("/"):
        root, names = parts(name)
        return root + "/".join(names)
    root, folder = parts(str(path))
    return root + "/".join(folder[:-1] + parts(name)[1]) or "."


def _expect(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _string_list(value: object, what: str) -> list[str]:
    _expect(isinstance(value, list)
            and all(isinstance(x, str) for x in value), f"{what} must be a "
            "list of strings")
    return list(value)


def _relation_side(p: CatPresentation, letters: list[str], other: list[str],
                   index: int) -> tuple[str, str, str]:
    if letters:
        return p.encode(p.word(letters))
    # an empty side is an identity; endpoints come from the other side
    if not other:
        raise ValidationError(
            f"relation {index} has two empty sides and no endpoints")
    partner = p.word(other)
    if partner.src != partner.dst:
        raise ValidationError(
            f"relation {index} equates a non-endo word with an identity")
    return partner.src, partner.src, ""


def load_cat(path: str | Path, data: object = None) -> CatWithDenoms:
    """Load a category with denominators from a JSON file, or from its ``data`` if read."""
    data = read_json(path) if data is None else data
    _expect(isinstance(data, dict), f"{path}: top level must be an object")
    for key in ("objects", "generators", "relations", "denominators"):
        _expect(key in data, f"{path}: missing key {key!r}")

    objects = tuple(_string_list(data["objects"], f"{path}: objects"))

    _expect(isinstance(data["generators"], list), f"{path}: generators must "
            "be a list")
    gens = []
    for i, entry in enumerate(data["generators"]):
        _expect(isinstance(entry, dict)
                and all(isinstance(entry.get(k), str)
                        for k in ("name", "src", "dst")),
                f"{path}: generator {i} must have string name, src, dst")
        gens.append(GenArrow(entry["name"], entry["src"], entry["dst"]))

    _expect(isinstance(data["relations"], list), f"{path}: relations must be "
            "a list")
    raw_relations = []
    for i, entry in enumerate(data["relations"]):
        _expect(isinstance(entry, dict) and "lhs" in entry and "rhs" in entry,
                f"{path}: relation {i} must have lhs and rhs")
        raw_relations.append((_string_list(entry["lhs"], f"{path}: relation {i} lhs"),
                              _string_list(entry["rhs"], f"{path}: relation {i} rhs")))

    denoms = data["denominators"]
    _expect(isinstance(denoms, dict), f"{path}: denominators must be an object")
    for key in ("words", "include_identities", "close_under_composition"):
        _expect(key in denoms, f"{path}: denominators missing key {key!r}")
    _expect(isinstance(denoms["include_identities"], bool)
            and isinstance(denoms["close_under_composition"], bool),
            f"{path}: denominator flags must be booleans")
    _expect(isinstance(denoms["words"], list), f"{path}: denominator words "
            "must be a list")
    raw_words = [_string_list(w, f"{path}: denominator word {i}")
                 for i, w in enumerate(denoms["words"])]

    # structural validation below here: failures are semantic, not parse
    bare = CatPresentation(objects=objects, generators=tuple(gens),
                           relations=())
    problems = validate_presentation(bare)
    if problems:
        raise ValidationError(f"{path}: {problems}")

    relations = []
    for i, (lhs, rhs) in enumerate(raw_relations):
        left = _relation_side(bare, lhs, rhs, i)
        right = _relation_side(bare, rhs, lhs, i)
        if left[:2] != right[:2]:
            raise ValidationError(f"{path}: relation {i} sides not parallel")
        relations.append((left, right))

    words = []
    for i, letters in enumerate(raw_words):
        if not letters:
            raise ValidationError(
                f"{path}: denominator word {i} is empty; use "
                "include_identities for identity denominators")
        words.append(bare.encode(bare.word(letters)))

    cat = CatPresentation(objects, bare.generators, tuple(relations))
    return CatWithDenoms(cat, DenomSet(
        explicit=tuple(words),
        include_identities=denoms["include_identities"],
        close_under_composition=denoms["close_under_composition"]))


def load_functor(path: str | Path, data: object = None) -> FunctorData:
    """Load a functor from a JSON file, or from its ``data`` if read; source
    and target paths resolve relative to the file."""
    data = read_json(path) if data is None else data
    _expect(isinstance(data, dict), f"{path}: top level must be an object")
    for key in ("source", "target", "object_map", "generator_map"):
        _expect(key in data, f"{path}: missing key {key!r}")
    _expect(isinstance(data["source"], str) and isinstance(data["target"], str),
            f"{path}: source and target must be paths")
    source = load_cat(_beside(path, data["source"]))
    target = load_cat(_beside(path, data["target"]))

    _expect(isinstance(data["object_map"], dict)
            and all(isinstance(k, str) and isinstance(v, str)
                    for k, v in data["object_map"].items()),
            f"{path}: object_map must map strings to strings")
    _expect(isinstance(data["generator_map"], dict),
            f"{path}: generator_map must be an object")

    images: dict[str, tuple[str, str, str]] = {}
    for name, letters in data["generator_map"].items():
        letters = _string_list(letters, f"{path}: generator_map[{name!r}]")
        gen = source.cat.gen_by_name.get(name)
        if gen is None:
            raise ValidationError(f"{path}: generator_map names unknown "
                                  f"generator {name!r}")
        if letters:
            images[name] = target.cat.encode(target.cat.word(letters))
        else:
            image = data["object_map"].get(gen.src)
            if image is None or image != data["object_map"].get(gen.dst):
                raise ValidationError(
                    f"{path}: empty image for {name!r} needs equal mapped "
                    "endpoints")
            images[name] = target.cat.encode(target.cat.identity(image))
    return FunctorData(source, target, dict(data["object_map"]), images)


def load_choice(path: str | Path, f: FunctorData) -> ReplacementChoice:
    """Load a replacement choice file against a functor.

    Each ``q`` is checked to run from ``F x`` to its object and kept as
    written, encoded; :func:`~loccat.approximation.verify_approximation`
    normalises it under the target's completed system.
    """
    data = read_json(path)
    _expect(isinstance(data, dict), f"{path}: top level must be an object")
    choice: ReplacementChoice = {}
    for y, entry in data.items():
        _expect(isinstance(entry, dict) and isinstance(entry.get("x"), str)
                and isinstance(entry.get("q"), list),
                f"{path}: choice for {y!r} must have x and q")
        letters = _string_list(entry["q"], f"{path}: choice q for {y!r}")
        if y not in f.target.cat.obj_index:
            raise ValidationError(f"{path}: unknown target object {y!r}")
        if entry["x"] not in f.source.cat.obj_index:
            raise ValidationError(f"{path}: unknown source object "
                                  f"{entry['x']!r}")
        fx = f.object_map.get(entry["x"])
        if fx is None:
            raise ValidationError(f"{path}: source object {entry['x']!r} "
                                  "is not mapped by the functor")
        if letters:
            q = f.target.cat.word(letters)
            if (q.src, q.dst) != (fx, y):
                raise ValidationError(
                    f"{path}: q for {y!r} must run {fx!r} -> {y!r}")
        else:
            if fx != y:
                raise ValidationError(
                    f"{path}: empty q for {y!r} needs F x == {y!r}")
            q = f.target.cat.identity(y)
        choice[y] = SReplacement(target=y, source=entry["x"], q=f.target.cat.encode(q)[2])
    return choice
