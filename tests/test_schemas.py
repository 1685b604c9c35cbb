"""The schema predicates in ``filtra.config``: sound against jsonschema, and
actually taken.

A predicate may answer True only for a document that
``jsonschema.Draft202012Validator`` accepts.  A refusal is always safe,
since jsonschema then decides, so a predicate that refused everything would
pass every other test while it kept the slow path; hence the checks that
valid documents are accepted and that ``import filtra`` leaves jsonschema
unloaded.
"""
import copy
import json
import random
import subprocess
import sys

import jsonschema
import pytest

from filtra.checkers import ALL_CHECKS
from filtra.config import (_ANNOTATIONS, _CONFIG_VALID, _LEAVES, _NODES,
                           _REPORT_VALID, ConfigError, config_schema,
                           parse_config, report_schema, schema_predicate)
from filtra.report import EXIT_CODES, run_job, to_json

from conftest import CORPUS_DIR, GOLDEN_DIR, PKG_ROOT

CONFIGS = ([json.loads(p.read_text()) for p in sorted(CORPUS_DIR.glob("*.json"))]
           + [e["config"] for e in
              json.loads((GOLDEN_DIR / "report_digests.json").read_text())])

# values swapped in for any node: booleans and integral floats where ints
# are expected, a trailing newline, which Python's ``$`` would match were
# it not for the ``(?!\n)`` after it, empty and wrong-typed containers
SWAPS = [True, False, None, 0, 1, -1, 41, 1.0, 6.0, 8.0, 2.5, "", "q", "q\n",
         "x\n", "all", "fp:7\n", [], ["x", "x"], [1], {}, {"extra": 1}]


@pytest.fixture(scope="module")
def reports():
    return [run_job(parse_config(cfg)) for cfg in CONFIGS]


def _nodes(doc):
    """Every (container, key) under ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _nodes(value)


def _grafts(docs) -> dict:
    """key -> every value some document holds under that key."""
    pool = {}
    for doc in docs:
        for parent, key in _nodes(doc):
            if isinstance(parent, dict):
                pool.setdefault(key, []).append(parent[key])
    return pool


def _mutate(doc, rng, pool):
    """A copy of ``doc`` with one to three random edits."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        nodes = list(_nodes(doc))
        if not nodes:
            break
        parent, key = rng.choice(nodes)
        value = parent[key]
        kind = rng.randrange(6)
        if kind == 0:
            parent[key] = copy.deepcopy(rng.choice(SWAPS))
        elif kind == 1 and isinstance(value, str):
            parent[key] = value + "\n"
        elif kind == 2 and isinstance(value, dict) and value:
            del value[rng.choice(sorted(value))]          # a missing key
        elif kind == 3 and isinstance(value, dict):
            # a key from elsewhere: an extra key, both ``generators`` and
            # ``search`` in a reduction, an object where null stood
            name = rng.choice(sorted(pool))
            value[name] = copy.deepcopy(rng.choice(pool[name]))
        elif kind == 4 and isinstance(value, list) and value:
            value.append(copy.deepcopy(rng.choice(value)))
        elif kind == 5 and isinstance(parent, dict):
            # null for an object, or an object from elsewhere for null
            parent[key] = (None if value is not None
                           else copy.deepcopy(rng.choice(pool[key])))
        else:
            parent[key] = copy.deepcopy(rng.choice(SWAPS))
    return doc


def _targeted(config: dict) -> list:
    """The edits the random ones must not be trusted to reach."""
    out = []
    for key in ("horizon", "power_bound"):
        for value in (True, False, 1.0, 6.0, 8.0):
            out.append({**config, key: value})
    for value in ("q\n", "fp:7\n", "q"):
        out.append({**config, "field": value})
    out.append({**config, "reduction": {"generators": ["x"],
                                        "search": {"seed": 1}}})
    out.append({**config, "reduction": {}})
    out.append({**config, "checks": "all\n"})
    out.append({**config, "checks": ["fit_stability", "fit_stability"]})
    out.append({k: v for k, v in config.items() if k != "ring"})
    out.append({**config, "name": "n" * 81})
    for stage in ("0", "2\n", "x"):
        filt = config["filtration"]
        out.append({**config, "filtration": {
            **filt, "stages": {**filt["stages"], stage: ["x"]}}})
    out.append({**config, "ring": {"variables": [f"x{i}" for i in range(9)]}})
    return out


def _assert_sound(predicate, schema, docs):
    """Predicate True must imply jsonschema's True; returns how many valid
    documents the predicate refused."""
    validator = jsonschema.Draft202012Validator(schema)
    unsound, refused_valid = [], 0
    for doc in docs:
        fast, slow = predicate(doc), validator.is_valid(doc)
        if fast and not slow:
            unsound.append(doc)
        refused_valid += slow and not fast
    assert not unsound, json.dumps(unsound[:3])[:2000]
    return refused_valid


def test_config_predicate_is_sound_on_mutants():
    rng = random.Random(20211)
    pool = _grafts(CONFIGS)
    mutants = [m for cfg in CONFIGS for m in _targeted(cfg)]
    mutants += [_mutate(rng.choice(CONFIGS), rng, pool) for _ in range(4000)]
    refused = _assert_sound(_CONFIG_VALID, config_schema(), mutants)
    # a refusal is correct but slow: none of these needs jsonschema
    assert refused == 0


def test_report_predicate_is_sound_on_mutants(reports):
    rng = random.Random(20212)
    pool = _grafts(reports)
    mutants = [{**r, key: None} for r in reports[:13] for key in r]
    mutants += [{**reports[0], key: value} for key in reports[0] for value in SWAPS]
    mutants += [_mutate(rng.choice(reports), rng, pool) for _ in range(600)]
    refused = _assert_sound(_REPORT_VALID, report_schema(), mutants)
    assert refused == 0


def test_predicates_accept_every_known_config_and_report(reports):
    assert all(_CONFIG_VALID(cfg) for cfg in CONFIGS)
    assert all(_REPORT_VALID(r) for r in reports)


def _keywords(schema) -> set:
    """The keywords ``schema`` uses, in itself and every sub-schema."""
    if isinstance(schema, bool):
        return set()
    out = set(schema)
    for key, value in schema.items():
        if key in ("properties", "$defs"):
            subs = value.values()
        elif key in ("items", "additionalProperties", "propertyNames"):
            subs = [value]
        else:
            continue
        for sub in subs:
            out |= _keywords(sub)
    return out


def test_every_predicate_keyword_is_one_the_schemas_use():
    """A handler that neither published schema needs is dead code."""
    used = _keywords(config_schema()) | _keywords(report_schema())
    assert set(_LEAVES) | set(_NODES) == used - _ANNOTATIONS


@pytest.mark.parametrize("schema", [
    {"type": "object", "patternProperties": {"^x": {"type": "string"}}},
    {"properties": {"a": {"items": {"format": "email"}}}},
    {"not": {"type": "string"}},
    {"oneOf": [{"type": "null"}, {"type": "object"}]},
    {"$defs": {"a": {"multipleOf": 2}}, "items": {"$ref": "#/$defs/a"}},
])
def test_unknown_keyword_has_no_predicate(schema):
    with pytest.raises(ValueError,
                       match="'(patternProperties|format|not|oneOf|multipleOf)'"):
        schema_predicate(schema)


def test_import_leaves_jsonschema_unloaded():
    code = ("import sys, filtra, filtra.report, filtra.cli; "
            "assert 'jsonschema' not in sys.modules, 'jsonschema imported'")
    subprocess.run([sys.executable, "-c", code], check=True,
                   cwd=PKG_ROOT, env={"PYTHONPATH": str(PKG_ROOT / "src")})


def test_config_import_loads_no_engine():
    """Validating a job needs only ``filtra.config``: importing it, and
    loading a config that runs all checks, loads no other filtra module,
    nor ``fractions`` or ``hashlib``, which only the algebra uses.  ``-S``
    keeps site hooks from importing them first."""
    code = ("import sys, filtra.config; "
            f"filtra.config.load_config({str(CORPUS_DIR / 'cusp.json')!r}); "
            "loaded = {m for m in sys.modules if m.startswith('filtra')}; "
            "assert loaded == {'filtra', 'filtra.config'}, loaded; "
            "loaded = {'fractions', 'hashlib'} & set(sys.modules); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-S", "-c", code], check=True,
                   cwd=PKG_ROOT, env={"PYTHONPATH": str(PKG_ROOT / "src")})


def test_schema_command_loads_no_engine():
    """``filtra schema config`` prints the schema with ``json.dumps``, so it
    loads no filtra module beside ``config`` and the command line, nor
    ``fractions`` or ``hashlib``, and its bytes are those ``report.to_json``
    writes.  ``-S`` keeps site hooks from importing them first."""
    code = ("import sys, filtra.cli; "
            "filtra.cli.main(['schema', 'config']); "
            "loaded = {m for m in sys.modules if m.startswith('filtra')}; "
            "assert loaded == {'filtra', 'filtra.config', 'filtra.cli'}, loaded; "
            "loaded = {'fractions', 'hashlib'} & set(sys.modules); "
            "assert not loaded, loaded")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True,
                         cwd=PKG_ROOT, env={"PYTHONPATH": str(PKG_ROOT / "src")})
    assert out.stdout == to_json(config_schema())


def test_a_checks_list_names_the_engine_checks():
    """A config that lists its checks is matched against the engine's
    names: they are kept in the engine's order, and an unknown name is
    refused."""
    config = json.loads((CORPUS_DIR / "cusp.json").read_text())
    picked = [ALL_CHECKS[-1], ALL_CHECKS[0]]
    assert parse_config({**config, "checks": picked}).checks == tuple(reversed(picked))
    with pytest.raises(ConfigError, match="^unknown check names: bogus, zz$"):
        parse_config({**config, "checks": ["zz", ALL_CHECKS[0], "bogus"]})


def test_every_pattern_refuses_a_final_newline():
    """Under Python's ``re.search`` a ``$`` also matches before a final
    newline; each pattern must close with ``$(?!\\n)`` to mean what it
    means to an ECMA-262 validator."""
    patterns = [parent[key] for schema in (config_schema(), report_schema())
                for parent, key in _nodes(schema) if key == "pattern"]
    assert len(patterns) >= 3
    for pattern in patterns:
        assert pattern.endswith("$(?!\\n)"), pattern


def test_exit_codes_are_the_report_schemas_enums():
    props = report_schema()["properties"]
    assert sorted(EXIT_CODES) == sorted(props["verdict"]["enum"])
    assert sorted(EXIT_CODES.values()) == sorted(props["exit_code"]["enum"])
