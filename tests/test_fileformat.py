"""The .kmn structure file format: round trips and rejection messages."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from hyperring import (
    FiniteStructure,
    ParseError,
    export_structure,
    load_structure,
    parse_structure,
    save_structure,
)
from hyperring.core import multisets


def test_round_trip_builtins(b33, b24):
    for entry in (b33, b24):
        text = export_structure(entry.structure)
        back = parse_structure(text)
        assert back == entry.structure
        assert export_structure(back) == text


def test_round_trip_catalog(full_catalog):
    for entry in full_catalog:
        text = export_structure(entry.structure)
        assert parse_structure(text) == entry.structure


def test_exports_match_published_schema(full_catalog):
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    schema = json.loads(
        (pathlib.Path(__file__).parent.parent / "docs" / "kmn.schema.json").read_text()
    )
    for entry in full_catalog[:12]:
        jsonschema.validate(json.loads(export_structure(entry.structure)), schema)


def reference_export(S):
    """The export as a document serialized by the json module."""
    labels = S.labels
    doc = {
        "name": S.name,
        "m": S.m,
        "n": S.n,
        "elements": list(labels),
        "zero": labels[S.zero],
        "one": None if S.one is None else labels[S.one],
        "f": [
            {"args": [labels[i] for i in key], "value": [labels[v] for v in sorted(value)]}
            for key, value in S.add.items()
        ],
        "g": [{"args": [labels[i] for i in key], "value": labels[v]} for key, v in S.mul.items()],
    }
    return json.dumps(doc, indent=2) + "\n"


# labels and names that need escaping: quotes, backslashes, control
# characters, non-ASCII text, astral code points
ESCAPED = st.sampled_from('"\\\n\t\x00\x1f\x7f/a0é€\u2028😀')
TEXT = st.text(ESCAPED | st.characters(), max_size=4)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_export_is_the_json_layout(data):
    size = data.draw(st.integers(min_value=1, max_value=3))
    m, n = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
    labels = tuple(data.draw(st.lists(TEXT, min_size=size, max_size=size, unique=True)))
    element = st.integers(min_value=0, max_value=size - 1)
    add = {key: frozenset(data.draw(st.sets(element, min_size=1))) for key in multisets(size, m)}
    mul = {key: data.draw(element) for key in multisets(size, n)}
    S = FiniteStructure(data.draw(TEXT), m, n, labels, add, mul, 0)
    text = export_structure(S)
    assert text == reference_export(S)
    assert parse_structure(text) == S


def test_file_io(tmp_path, b24):
    path = tmp_path / "s.kmn"
    save_structure(b24.structure, str(path))
    assert load_structure(str(path)) == b24.structure


def test_args_order_is_canonicalized(b24):
    doc = json.loads(export_structure(b24.structure))
    doc["f"][4]["args"] = list(reversed(doc["f"][4]["args"]))
    assert parse_structure(json.dumps(doc)) == b24.structure


def _doc(b24):
    return json.loads(export_structure(b24.structure))


def test_missing_g_entry_names_the_multiset(b24):
    doc = _doc(b24)
    removed = doc["g"].pop(3)
    with pytest.raises(ParseError, match="incomplete g table"):
        parse_structure(json.dumps(doc))


def test_g_entry_error_comes_before_a_missing_f_key(b24):
    # entries of both tables are read before either is checked for gaps
    doc = _doc(b24)
    doc["f"].pop(3)
    doc["g"][0]["value"] = ["0"]
    with pytest.raises(ParseError, match="g entry for args .* needs a single value label"):
        parse_structure(json.dumps(doc))


def test_empty_value_set_rejected(b24):
    doc = _doc(b24)
    doc["f"][0]["value"] = []
    with pytest.raises(ParseError, match="empty value set"):
        parse_structure(json.dumps(doc))


def test_unknown_label_rejected(b24):
    doc = _doc(b24)
    doc["g"][0]["value"] = "zz"
    with pytest.raises(ParseError, match="unknown label 'zz'"):
        parse_structure(json.dumps(doc))


def test_conflicting_duplicate_entries_rejected(b24):
    doc = _doc(b24)
    first = dict(doc["f"][1])
    first["args"] = list(reversed(first["args"]))
    first["value"] = ["b"]
    doc["f"].append(first)
    with pytest.raises(ParseError, match="conflicting f entries"):
        parse_structure(json.dumps(doc))


def test_duplicate_labels_rejected(b24):
    doc = _doc(b24)
    doc["elements"][1] = "0"
    with pytest.raises(ParseError, match="duplicate"):
        parse_structure(json.dumps(doc))


def test_declared_one_must_act(b33):
    doc = json.loads(export_structure(b33.structure))
    assert doc["one"] == "1"
    doc["one"] = "x"
    with pytest.raises(ParseError, match="does not act as one"):
        parse_structure(json.dumps(doc))


def test_wrong_entry_arity_rejected(b24):
    doc = _doc(b24)
    doc["f"][0]["args"] = doc["f"][0]["args"] + ["0"]
    with pytest.raises(ParseError, match="needs 2 args"):
        parse_structure(json.dumps(doc))


def test_not_json_rejected():
    with pytest.raises(ParseError, match="not valid JSON"):
        parse_structure("m=3 n=3")


def test_deep_nesting_rejected():
    # the decoder gives up with RecursionError long before the end
    with pytest.raises(ParseError, match="not valid JSON"):
        parse_structure("[" * 100000 + "]" * 100000)


def test_name_must_be_a_string(b24):
    doc = _doc(b24)
    doc["name"] = [1]
    with pytest.raises(ParseError, match="name must be a string"):
        parse_structure(json.dumps(doc))


def test_missing_field_rejected(b24):
    doc = _doc(b24)
    del doc["zero"]
    with pytest.raises(ParseError, match="missing field 'zero'"):
        parse_structure(json.dumps(doc))


def test_elements_must_be_labels(b24):
    doc = _doc(b24)
    doc["elements"] = [0, 1, 2, 3]
    with pytest.raises(ParseError, match="list of labels"):
        parse_structure(json.dumps(doc))


def test_arity_fields_validated(b24):
    doc = _doc(b24)
    doc["n"] = 1
    with pytest.raises(ParseError, match="integers >= 2"):
        parse_structure(json.dumps(doc))


def test_document_must_be_an_object():
    with pytest.raises(ParseError, match="must be a JSON object"):
        parse_structure("[1, 2, 3]")


@pytest.mark.parametrize("fld", ["f", "g"])
def test_table_must_be_a_list(b24, fld):
    doc = _doc(b24)
    doc[fld] = {"args": ["0", "0"], "value": "0"}
    with pytest.raises(ParseError, match=f"{fld} must be a list of entries"):
        parse_structure(json.dumps(doc))


@pytest.mark.parametrize("fld", ["f", "g"])
def test_table_entry_must_be_an_object(b24, fld):
    doc = _doc(b24)
    doc[fld][0] = [["0", "0"], "0"]
    with pytest.raises(ParseError, match=f"{fld} entry .* must be an object"):
        parse_structure(json.dumps(doc))


def test_unhashable_label_rejected(b24):
    doc = _doc(b24)
    doc["zero"] = ["0"]
    with pytest.raises(ParseError, match="unknown label"):
        parse_structure(json.dumps(doc))
