"""``report.to_json`` writes the bytes of ``json.dumps(..., sort_keys=True,
indent=2, ensure_ascii=True)`` plus a newline, on every value it accepts."""
import importlib
import json
import pkgutil

import pytest
from hypothesis import example, given, settings, strategies as st

import filtra
from filtra.config import config_schema, load_config, report_schema
from filtra.report import run_job, to_json

from conftest import CORPUS_DIR, GOLDEN_DIR


def dumped(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


@pytest.mark.parametrize("path", sorted(CORPUS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_corpus_reports_are_written_as_json_dumps_writes_them(path):
    report = run_job(load_config(path))
    assert to_json(report) == dumped(report)


def test_schemas_and_the_corpus_summary_are_written_as_json_dumps_writes_them():
    for schema in (report_schema(), config_schema()):
        assert to_json(schema) == dumped(schema)
    text = (GOLDEN_DIR / "corpus_summary.json").read_text()
    assert to_json(json.loads(text)) == text


SCALARS = st.none() | st.booleans() | st.integers() | st.text()
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(VALUES)
@example({"é\x00\n \"\\": [True, 1, False, 0, None], "": {}, "b": [], "a": ()})
@example([[], {}, (), "", -(2 ** 70)])
def test_drawn_values_are_written_as_json_dumps_writes_them(value):
    assert to_json(value) == dumped(value)


def records() -> list:
    """Every tuple subclass the package defines: its records, which are all
    NamedTuples."""
    found = {}
    for info in pkgutil.iter_modules(filtra.__path__):
        module = importlib.import_module(f"filtra.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, tuple)
                    and obj.__module__ == module.__name__):
                found[obj.__name__] = obj
    return [found[name] for name in sorted(found)]


# a record is a tuple; one that leaks into a report must not pass as an array
RECORDS = records()


@pytest.mark.parametrize(
    "value",
    [1.0, {"a": 0.5}, [set()], {1: "a"}, {None: 1}, b"x"]
    + [[r(*range(len(r._fields)))] for r in RECORDS],
    ids=["float", "nested-float", "set", "int-key", "none-key", "bytes"]
    + [r.__name__ for r in RECORDS])
def test_other_types_are_refused(value):
    with pytest.raises(TypeError):
        to_json(value)
