"""The .kmn structure file format: a small JSON document.

Schema (all labels are strings, entries are arrays so files diff cleanly):

    {
      "name": "builtin33",
      "m": 3, "n": 3,
      "elements": ["0", "1", "x"],
      "zero": "0",
      "one": "1" | null,
      "f": [{"args": ["0","0","0"], "value": ["0"]}, ...],
      "g": [{"args": ["0","0","0"], "value": "0"}, ...]
    }

Tables must be total over multisets; args may come in any order and are
canonicalized, with conflicting duplicates rejected.  Export writes sorted
entries with a fixed layout so parse/export round-trips are byte-exact.
"""

from __future__ import annotations

import json

from .core import BITS, FiniteStructure, StructureError, msort, multisets


class ParseError(ValueError):
    """Structure file rejected, with the offending entry named."""


def export_structure(S: FiniteStructure) -> str:
    """The document in the layout of ``json.dumps(doc, indent=2)``, written
    directly from the labels, each escaped once."""
    labels = [json.dumps(label) for label in S.labels]

    def array(items, pad: str) -> str:
        # one item a line, two spaces in from the brackets; items nonempty
        return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"

    def entry(key, value: str) -> str:
        args = array([labels[i] for i in key], "      ")
        return f'{{\n      "args": {args},\n      "value": {value}\n    }}'

    f = [
        entry(key, array([labels[v] for v in BITS[cell]], "      "))
        for key, cell in zip(S.add_shape.keys, S.add_cells)
    ]
    g = [entry(key, labels[cell]) for key, cell in zip(S.mul_shape.keys, S.mul_cells)]
    one = "null" if S.one is None else labels[S.one]
    return (
        f'{{\n  "name": {json.dumps(S.name)},\n  "m": {S.m},\n  "n": {S.n},\n'
        f'  "elements": {array(labels, "  ")},\n'
        f'  "zero": {labels[S.zero]},\n  "one": {one},\n'
        f'  "f": {array(f, "  ")},\n  "g": {array(g, "  ")}\n}}\n'
    )


def parse_structure(text: str) -> FiniteStructure:
    """Parse and construct; table canonicalization detects conflicts."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        # RecursionError: nesting deeper than the decoder can follow
        raise ParseError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    for fld in ("name", "m", "n", "elements", "zero", "f", "g"):
        if fld not in doc:
            raise ParseError(f"missing field {fld!r}")
    if not isinstance(doc["name"], str):
        raise ParseError("name must be a string")
    labels = doc["elements"]
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise ParseError("elements must be a list of labels")
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate element labels")
    index = {label: i for i, label in enumerate(labels)}
    m, n = doc["m"], doc["n"]
    if not (isinstance(m, int) and isinstance(n, int) and m >= 2 and n >= 2):
        raise ParseError("arities m, n must be integers >= 2")

    def resolve(label, where):
        if not isinstance(label, str) or label not in index:
            raise ParseError(f"unknown label {label!r} in {where}")
        return index[label]

    zero = resolve(doc["zero"], "zero")
    declared_one = None
    if doc.get("one") is not None:
        declared_one = resolve(doc["one"], "one")
    for fld in ("f", "g"):
        if not isinstance(doc[fld], list):
            raise ParseError(f"{fld} must be a list of entries")
        for entry in doc[fld]:
            if not isinstance(entry, dict):
                raise ParseError(f"{fld} entry {entry!r} must be an object")

    tables: dict = {}
    for fld, arity in (("f", m), ("g", n)):
        table = tables[fld] = {}
        for entry in doc[fld]:
            args = entry.get("args")
            value = entry.get("value")
            if not isinstance(args, list) or len(args) != arity:
                raise ParseError(f"{fld} entry {entry!r} needs {arity} args")
            if fld == "f" and (not isinstance(value, list) or not value):
                raise ParseError(f"empty value set in f entry for args {args}")
            if fld == "g" and not isinstance(value, str):
                raise ParseError(f"g entry for args {args} needs a single value label")
            key = msort(resolve(a, f"{fld} args") for a in args)
            if fld == "f":
                value = frozenset(resolve(v, "f value") for v in value)
            else:
                value = resolve(value, "g value")
            if table.setdefault(key, value) != value:
                raise ParseError(
                    f"conflicting {fld} entries for multiset {sorted(args)} after reordering"
                )
    # completeness is checked after both tables are read, so an entry error
    # in g is reported before a missing key in f
    for fld, arity in (("f", m), ("g", n)):
        for key in multisets(len(labels), arity):
            if key not in tables[fld]:
                raise ParseError(
                    f"incomplete {fld} table: missing multiset {[labels[i] for i in key]}"
                )
    try:
        return FiniteStructure.build(
            doc["name"], m, n, tuple(labels), tables["f"], tables["g"], zero, declared_one
        )
    except StructureError as e:
        raise ParseError(str(e)) from None


def load_structure(path) -> FiniteStructure:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_structure(fh.read())


def save_structure(S: FiniteStructure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_structure(S))
