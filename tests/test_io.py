import io
import json
from fractions import Fraction

import pytest

from selinf.errors import DatasetParseError
from selinf.generators import gen_classical, gen_ghz, gen_prbox
from selinf.experiment import make_design, validate_dataset
from selinf.io import dataset_from_json_dict, dump_dataset, load_dataset

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
    # wrongly shaped sections name the section instead of crashing
    for edit, match in (
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
        edit(doc)
        with pytest.raises(DatasetParseError, match=match):
            dataset_from_json_dict(doc)


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
