import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from selinf.errors import DatasetParseError
from selinf.generators import gen_classical, gen_ghz, gen_prbox
from selinf.experiment import make_design, validate_dataset
from selinf.io import dataset_from_json_dict, dump_dataset, json_text, load_dataset, parse_exact

F = Fraction

CHSH_DOC = {
    "inputs": [
        {"label": "axis1", "values": ["a1", "a2"]},
        {"label": "axis2", "values": ["b1", "b2"]},
    ],
    "outputs": [
        {"label": "spin1", "values": ["up", "down"]},
        {"label": "spin2", "values": ["up", "down"]},
    ],
    "treatments": [
        {"treatment": [1, 1], "probabilities": {"1,1": "1/2", "2,2": "0.5"}},
        {"treatment": [1, 2], "probabilities": {"1,1": "1/2", "2,2": "1/2"}},
        {"treatment": [2, 1], "counts": {"1,1": 30, "2,2": "30"}},
        {"treatment": [2, 2], "probabilities": {"1,2": "0.5", "2,1": "1/2"}},
    ],
}


def test_decimal_and_fraction_strings_parse_exactly():
    ds = dataset_from_json_dict(CHSH_DOC)
    assert ds.prob((1, 1), (2, 2)) == F(1, 2)
    assert ds.prob((2, 2), (1, 2)) == F(1, 2)
    assert validate_dataset(ds).valid


def test_counts_become_exact_frequencies():
    ds = dataset_from_json_dict(CHSH_DOC)
    assert ds.prob((2, 1), (1, 1)) == F(1, 2)


def test_roundtrip_preserves_exactness():
    for ds in (gen_prbox(), gen_ghz(), gen_classical(make_design((2, 2), (2, 3)), seed=3)[0]):
        buf = io.StringIO()
        dump_dataset(ds, buf)
        buf.seek(0)
        again = load_dataset(buf)
        # labels differ from generated ones only if we mangled them; full equality expected
        assert again == ds


def test_malformed_probability_string():
    doc = json.loads(json.dumps(CHSH_DOC))
    doc["treatments"][0]["probabilities"]["1,1"] = "one half"
    with pytest.raises(DatasetParseError, match="malformed probability"):
        dataset_from_json_dict(doc)
    # a short string with a huge exponent is refused before Fraction expands it
    doc["treatments"][0]["probabilities"]["1,1"] = "1e-10000000"
    with pytest.raises(DatasetParseError, match="malformed probability.*exponent"):
        dataset_from_json_dict(doc)
    for text, value in (("0.25", F(1, 4)), ("1/4", F(1, 4)), ("2.5e-1", F(1, 4))):
        doc["treatments"][0]["probabilities"]["1,1"] = text
        assert dataset_from_json_dict(doc).prob((1, 1), (1, 1)) == value


def test_probability_refusals_keep_their_messages():
    # "p/q" in decimal digits is read by int, any other string by
    # Fraction(str); each refusal reads as Fraction(str)'s did
    limit = ""
    try:
        int("9" * 4301)
    except ValueError as exc:
        limit = str(exc)
    long = "9" * 4301 + "/1"
    for text, reason in (
        ("1/0", "Fraction(1, 0)"),
        ("0010/00", "Fraction(10, 0)"),
        ("\u0663/0", "Fraction(3, 0)"),
        ("1_0/0", "Fraction(10, 0)"),
        (" 1/0 ", "Fraction(1, 0)"),
        ("1/", "Invalid literal for Fraction: '1/'"),
        ("/2", "Invalid literal for Fraction: '/2'"),
        ("1/2/3", "Invalid literal for Fraction: '1/2/3'"),
        ("\u00b2/3", "Invalid literal for Fraction: '\u00b2/3'"),
        ("1/-2", "Invalid literal for Fraction: '1/-2'"),
        (long, limit),
        ("1e-1001", "decimal exponent beyond 1000"),
    ):
        message = f"malformed probability string {text!r}: {reason}"
        with pytest.raises(DatasetParseError) as parse_error:
            parse_exact(text)
        assert str(parse_error.value) == message
        doc = json.loads(json.dumps(CHSH_DOC))
        doc["treatments"][0]["probabilities"]["1,1"] = text
        with pytest.raises(DatasetParseError) as load_error:
            load_dataset(io.StringIO(json.dumps(doc)))
        assert str(load_error.value) == message
    for text, value in (("\u0663/\u0664", F(3, 4)), ("06/08", F(3, 4)), ("-1/2", F(-1, 2)), (" 1/2", F(1, 2))):
        assert parse_exact(text) == value


def test_float_probability_rejected():
    doc = json.loads(json.dumps(CHSH_DOC))
    doc["treatments"][0]["probabilities"]["1,1"] = 0.5
    with pytest.raises(DatasetParseError, match="float"):
        dataset_from_json_dict(doc)


def test_bad_outcome_key():
    doc = json.loads(json.dumps(CHSH_DOC))
    doc["treatments"][0]["probabilities"]["1"] = "1/2"
    with pytest.raises(DatasetParseError, match="coordinates"):
        dataset_from_json_dict(doc)


def test_json_error_carries_position():
    with pytest.raises(DatasetParseError, match="line 1"):
        load_dataset(io.StringIO("{not json"))
    # json.loads alone would keep only the last of two equal keys
    text = json.dumps(CHSH_DOC).replace('"2,2": "0.5"', '"1,1": "0.5"', 1)
    with pytest.raises(DatasetParseError, match="repeated JSON key '1,1'"):
        load_dataset(io.StringIO(text))
    # the parser's recursion limit would end in a RecursionError traceback
    with pytest.raises(DatasetParseError, match="nested too deeply"):
        load_dataset(io.StringIO("[" * 100000 + "]" * 100000))


def test_both_probabilities_and_counts_rejected():
    doc = json.loads(json.dumps(CHSH_DOC))
    doc["treatments"][0]["counts"] = {"1,1": 1}
    with pytest.raises(DatasetParseError, match="exactly one"):
        dataset_from_json_dict(doc)
    # wrongly shaped sections name the section instead of crashing; an edit
    # changes the document in place, or returns a new one
    for edit, match in (
        (lambda d: [d], "top level must be an object"),
        (lambda d: {k: v for k, v in d.items() if k != "outputs"}, "missing section 'outputs'"),
        (lambda d: d.update(treatments=[]), "no treatments given"),
        (lambda d: d["treatments"][1].__delitem__("treatment"), "lacks 'treatment'"),
        (lambda d: d["treatments"][0]["probabilities"].update({"1,1": None}), "not a probability: None"),
        (lambda d: d["treatments"][0]["probabilities"].update({"1,x": "0"}), "'1,x' is not a tuple of integers"),
        (lambda d: d["treatments"][2].update(counts={"1,1": 0, "2,2": "0"}), "counts sum to zero"),
        (lambda d: d["treatments"][2].update(counts={"1,1": -1, "2,2": 3}), "bad count -1"),
        (lambda d: d.update(treatments=7), "'treatments' must be a list"),
        (lambda d: d.update(treatments=[5]), "record 5 is not an object"),
        (lambda d: d["treatments"][0].update(probabilities=["1/2", "1/2"]), "'probabilities' must"),
        (lambda d: d["treatments"][2].update(counts=[1, 2]), "'counts' must be an object"),
        (lambda d: d["inputs"][0].update(values="12"), "values must be a list"),
        (lambda d: d["outputs"][1].update(values="12"), "values must be a list"),
        (lambda d: d["treatments"][3].update(treatment="22"), "bad treatment tuple"),
        # int() would truncate these to (2, 2) and (1, 2)
        (lambda d: d["treatments"][3].update(treatment=[2.9, 2.2]), "bad treatment tuple"),
        (lambda d: d["treatments"][1].update(treatment=[True, 2]), "bad treatment tuple"),
        (
            lambda d: d["treatments"][0].update(
                probabilities={"1,1": "1/2", "1, 1": "1/2", "2,2": "1/2"}
            ),
            "repeats",
        ),
        (lambda d: d["treatments"][2].update(counts={"1,1": 3, "01,1": 5}), "repeats"),
    ):
        doc = json.loads(json.dumps(CHSH_DOC))
        doc = edit(doc) or doc
        with pytest.raises(DatasetParseError, match=match):
            dataset_from_json_dict(doc)


def test_memos_keep_every_refusal():
    # the parsed probability strings and outcome keys are shared across a
    # file's treatments; a value that is not a str is never looked up there
    def refused(edit, match):
        doc = json.loads(json.dumps(CHSH_DOC))
        edit(doc)
        with pytest.raises(DatasetParseError, match=match):
            dataset_from_json_dict(doc)

    for first in ("1", 1):  # 1 and True hash alike
        refused(
            lambda d: d["treatments"][0].update(probabilities={"1,1": first, "1,2": True}),
            "not a probability: True",
        )
    refused(lambda d: d["treatments"][0].update(probabilities={"1,1": 1, "1,2": 1.0}), "float 1.0")
    # "1, 1" parsed in an earlier treatment still names the outcome (1, 1)
    refused(
        lambda d: d["treatments"][1].update(probabilities={"1, 1": "1/2", "1,1": "1/2"}),
        r"treatment \(1, 2\): outcome key '1,1' repeats \(1, 1\)",
    )
    refused(
        lambda d: d["treatments"][0].update(probabilities={"1,1": "1/2", "1, 1": "1/2"}),
        r"treatment \(1, 1\): outcome key '1, 1' repeats \(1, 1\)",
    )
    # a library caller's keys need not be str: True is not the 1 before it
    doc = {
        "inputs": [{"label": "a", "values": ["1", "2"]}],
        "outputs": [{"label": "A", "values": ["1"]}],
        "treatments": [
            {"treatment": [1], "probabilities": {1: "1"}},
            {"treatment": [2], "probabilities": {True: "1"}},
        ],
    }
    with pytest.raises(DatasetParseError, match="key True is not a tuple of integers"):
        dataset_from_json_dict(doc)
    # one over-long exponent string in two treatments
    for t in (0, 1):
        doc = json.loads(json.dumps(CHSH_DOC))
        for rec in doc["treatments"][:2]:
            rec["probabilities"]["2,2"] = "1e-10000000"
        doc["treatments"][t]["probabilities"]["2,2"] = "1/2"
        with pytest.raises(DatasetParseError, match="exponent"):
            dataset_from_json_dict(doc)


def test_repeated_json_keys_name_the_first_repeat():
    text = json.dumps(CHSH_DOC).replace(
        '{"1,1": "1/2", "2,2": "0.5"}', '{"1,1": "1/2", "2,2": "0.5", "2,2": "0", "1,1": "0"}', 1
    )
    # "1,1" came first, but "2,2" is the first to repeat
    with pytest.raises(DatasetParseError, match="repeated JSON key '2,2'"):
        load_dataset(io.StringIO(text))


_STRINGS = st.one_of(
    st.text(),
    st.text(st.characters(codec=None, exclude_categories=())),  # lone surrogates too
    st.sampled_from(['"quoted"', "back\\slash", "\x00\x1f\x7f\n\t", "caf\u00e9 \u2028", "\U0001d11e astral"]),
)
# strings that need no escape, which a list of only strs writes in one join
_PLAIN = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=8)


class _Str(str):
    pass


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-320]),
    _STRINGS,
)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(st.integers(), max_size=6),
        st.lists(_STRINGS, max_size=6),
        st.lists(_PLAIN, max_size=8),
        st.lists(_PLAIN, max_size=8),
        # one string that needs an escape, or a str subclass, among plain ones
        st.builds(lambda plain, odd, i: plain[:i] + [odd] + plain[i:], st.lists(_PLAIN, max_size=6),
                  st.one_of(_STRINGS, _PLAIN.map(_Str)), st.integers(0, 6)),
        st.dictionaries(_STRINGS, children, max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_TREES)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [], "c": [{}, [[]]]})
@example([1, True])
@example([True, 1])
@example([-(10**40), 0, 7])
@example(["x", "y\u00e9"])
@example([1.0, 2])
@example(["plain", "", "a b", "~ !"])
@example(["plain", '"'])
@example(["plain", "\\"])
@example(["plain", "\x7f"])
@example(["plain", "\x1f"])
@example(["plain", "caf\u00e9"])
@example(["plain", "\ud800"])
@example(["", ""])
@example(["plain", _Str("sub")])
@example([_Str('"')])
@example({"k": (1, "a", None, math.nan, -math.inf, -0.0, 1e-320)})
def test_json_text_is_the_stdlib_indented_json(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_refuses_a_key_that_is_not_a_str():
    for value in ({1: "a"}, {"a": [{"b": {None: 1}}]}, {("a",): 1}):
        with pytest.raises(TypeError, match="keys must be str"):
            json_text(value)
    with pytest.raises(TypeError, match="not JSON serializable"):
        json_text([{"a": {1, 2}}])


def test_inefficient_detector_shape_loads():
    # 2 inputs x 2 values with ternary outcomes (third outcome = no detection)
    doc = {
        "inputs": [{"label": "a", "values": ["1", "2"]}, {"label": "b", "values": ["1", "2"]}],
        "outputs": [{"label": "A", "values": ["u", "d", "none"]}, {"label": "B", "values": ["u", "d", "none"]}],
        "treatments": [
            {"treatment": [i, j], "probabilities": {"3,3": "1/2", "1,2": "1/4", "2,1": "1/4"}}
            for i in (1, 2)
            for j in (1, 2)
        ],
    }
    ds = dataset_from_json_dict(doc)
    assert validate_dataset(ds).valid
    assert ds.design.outcome_sizes == (3, 3)
