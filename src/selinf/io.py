"""Dataset file format (JSON).

Top-level object:

    {"inputs":  [{"label": "alpha1", "values": ["1", "2"]}, ...],
     "outputs": [{"label": "A1", "values": ["1", "2"]}, ...],
     "treatments": [
        {"treatment": [1, 1], "probabilities": {"1,1": "1/2", "2,2": "0.5"}},
        {"treatment": [1, 2], "counts": {"1,1": 3, "1,2": 17}}]}

Probabilities are strings so they stay exact: either "p/q" or a decimal
string (parsed as an exact fraction over a power of ten), read by
`experiment.coerce_prob`, whose refusals become DatasetParseErrors.  Raw
count tables are converted to exact frequencies count/total.  Outcome keys
are comma-joined 1-based indices.  Each distinct outcome key and each
distinct probability string is parsed once per file.

`json_text` is the package's one JSON writer, for dataset files and for
every `--json` report.
"""
from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, IO

from .errors import DatasetParseError
from .experiment import Dataset, ExperimentDesign, Input, Output, coerce_prob, parse_index


def parse_exact(value) -> Fraction:
    """Parse "p/q", a decimal string or an int by `coerce_prob`, refusing with DatasetParseError."""
    if isinstance(value, float):
        raise DatasetParseError(
            f"refusing float {value!r}: write probabilities as strings to keep them exact"
        )
    try:
        return coerce_prob(value)
    except TypeError:
        raise DatasetParseError(f"not a probability: {value!r}") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise DatasetParseError(f"malformed probability string {value!r}: {exc}") from None


def format_exact(value: Fraction) -> str:
    """The exact "p/q" text form used in dataset files and reports."""
    return f"{value.numerator}/{value.denominator}"


def _parse_outcome_key(key: str, n: int) -> tuple[int, ...]:
    parts = [p.strip() for p in str(key).split(",")]
    if len(parts) != n:
        raise DatasetParseError(f"outcome key {key!r} has {len(parts)} coordinates, expected {n}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise DatasetParseError(f"outcome key {key!r} is not a tuple of integers") from None


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise DatasetParseError(f"{what} must be a list, got {value!r}")
    return value


def _parse_count(value, tr: tuple[int, ...]) -> int:
    if isinstance(value, str) and value.isdecimal():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DatasetParseError(f"bad count {value!r} under {tr}")
    return value


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):  # name the first key that repeats
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DatasetParseError(f"repeated JSON key {key!r}")
            seen.add(key)
    return doc


def dataset_from_json_dict(doc: dict) -> Dataset:
    if not isinstance(doc, dict):
        raise DatasetParseError("top level must be an object")
    for section in ("inputs", "outputs", "treatments"):
        if section not in doc:
            raise DatasetParseError(f"missing section {section!r}")
    try:
        inputs = tuple(
            Input(str(rec["label"]), tuple(str(v) for v in _list(rec["values"], "values")))
            for rec in doc["inputs"]
        )
        outputs = tuple(
            Output(str(rec["label"]), tuple(str(v) for v in _list(rec["values"], "values")))
            for rec in doc["outputs"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetParseError(f"bad inputs/outputs section: {exc}") from None

    n = len(inputs)
    treatments = []
    tables = {}
    # parsed once per file, and looked up by str only: 1, 1.0 and true hash
    # alike, and a bool or float key or value must still be refused
    outcomes: dict[str, tuple[int, ...]] = {}
    probs: dict[str, Fraction] = {}
    if not isinstance(doc["treatments"], list):
        raise DatasetParseError("section 'treatments' must be a list")
    for rec in doc["treatments"]:
        if not isinstance(rec, dict):
            raise DatasetParseError(f"treatment record {rec!r} is not an object")
        if "treatment" not in rec:
            raise DatasetParseError("treatment record lacks 'treatment'")
        try:
            tr = tuple(parse_index(j) for j in _list(rec["treatment"], "treatment"))
        except (TypeError, ValueError):
            raise DatasetParseError(f"bad treatment tuple {rec.get('treatment')!r}") from None
        has_p = "probabilities" in rec
        has_c = "counts" in rec
        if has_p == has_c:
            raise DatasetParseError(
                f"treatment {tr}: give exactly one of 'probabilities' or 'counts'"
            )
        section = "probabilities" if has_p else "counts"
        if not isinstance(rec[section], dict):
            raise DatasetParseError(f"treatment {tr}: {section!r} must be an object")
        table: dict[tuple[int, ...], Fraction | int] = {}
        for key, val in rec[section].items():
            text = str(key)
            outcome = outcomes.get(text)
            if outcome is None:
                outcome = outcomes[text] = _parse_outcome_key(key, n)
            if outcome in table:
                raise DatasetParseError(f"treatment {tr}: outcome key {key!r} repeats {outcome}")
            if not has_p:
                table[outcome] = _parse_count(val, tr)
            elif type(val) is str:
                p = probs.get(val)
                if p is None:
                    p = probs[val] = parse_exact(val)
                table[outcome] = p
            else:
                table[outcome] = parse_exact(val)
        if has_c:
            total = sum(table.values())
            if total == 0:
                raise DatasetParseError(f"treatment {tr}: counts sum to zero")
            table = {k: Fraction(c, total) for k, c in table.items()}
        treatments.append(tr)
        tables[tr] = table

    if not treatments:
        raise DatasetParseError("no treatments given")
    try:
        design = ExperimentDesign(inputs, outputs, tuple(treatments))
    except ValueError as exc:
        raise DatasetParseError(str(exc)) from None
    return Dataset(design, tables)


def dataset_to_json_dict(dataset: Dataset) -> dict[str, Any]:
    design = dataset.design
    return {
        "inputs": [{"label": i.label, "values": list(i.values)} for i in design.inputs],
        "outputs": [{"label": o.label, "values": list(o.values)} for o in design.outputs],
        "treatments": [
            {
                "treatment": list(tr),
                "probabilities": {
                    ",".join(str(a) for a in outcome): format_exact(p)
                    for outcome, p in sorted(dataset.tables[tr].items())
                },
            }
            for tr in design.treatments
            if tr in dataset.tables
        ],
    }


def load_dataset(source: str | IO[str]) -> Dataset:
    """Load a dataset from a path or file object; raises DatasetParseError."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DatasetParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DatasetParseError("JSON nested too deeply") from None
    return dataset_from_json_dict(doc)


def dump_dataset(dataset: Dataset, dest: str | IO[str]) -> None:
    text = json_text(dataset_to_json_dict(dataset)) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


_encode_scalar = json.JSONEncoder().encode  # compact, so the C encoder


def json_text(value, pad: str = "\n") -> str:
    """The text `json.dumps` gives for `value` at an indent of 2, byte for
    byte; with an indent set, `json.dumps` runs the json module's
    pure-Python encoder.  Here strings and ints are written by C functions,
    a list of only strs or only ints by one join, and any other scalar
    (bool, None, a float, NaN and infinities too) by the compact C encoder;
    strs (a subclass as its str, as `json.dumps` writes it) that need no
    escape, printable ASCII without `"` or `\\`, are quoted in that join.
    Tuples are written as lists; a dict key that is not a str raises
    TypeError.  `pad` is a newline and the indentation of the line `value`
    starts on."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring_ascii(key)}: {json_text(item, inner)}")
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:  # join refuses an item that is not a str
            text = "".join(value) if isinstance(value[0], str) else None
        except TypeError:
            text = None
        if text is not None:
            if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
                return "[" + inner + '"' + ('",' + inner + '"').join(value) + '"' + pad + "]"
            items = map(encode_basestring_ascii, value)
        elif set(map(type, value)) == {int}:
            items = map(int.__repr__, value)
        else:
            items = [json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return _encode_scalar(value)
