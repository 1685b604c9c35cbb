"""Job configuration: schema-checked JSON in, a ``JobConfig`` record out.

Each published schema is turned once, at import, into a predicate built
from closures, in the manner of fastjsonschema.  The contract is
one-sided: a predicate answers True only for a document that jsonschema's
``Draft202012Validator`` accepts.  False means only "not shown valid";
jsonschema then decides and words the refusal, and it is imported only
then.

The config schema is the one statement of what a name may be: a field, a
variable, a stage.  Each of its patterns ends in ``$(?!\\n)``.  Python's
``re.search``, which both jsonschema and the predicates use, lets ``$``
match before a final newline; the lookahead refuses that, and changes
nothing under ECMA-262, where ``$`` is already the end of the input.  So
``parse_config`` checks no name again.

This module imports no algebra module, so validating a job loads none of
the engine: ``parse_config`` imports the check names from ``checkers``
only for a config that lists its checks.
"""
from __future__ import annotations

import json
import numbers
import os
import re
from typing import NamedTuple


class ConfigError(ValueError):
    """The configuration file is malformed or semantically inconsistent."""


DEFAULT_HORIZON = 12
DEFAULT_POWER_BOUND = 2
DEFAULT_SEARCH_ATTEMPTS = 60


def _load_schema(name: str) -> dict:
    with open(os.path.join(os.path.dirname(__file__), "schemas", name), encoding="utf-8") as f:
        return json.load(f)


_CONFIG_SCHEMA = _load_schema("config.schema.json")
_REPORT_SCHEMA = _load_schema("report.schema.json")


def config_schema() -> dict:
    return _CONFIG_SCHEMA


def report_schema() -> dict:
    return _REPORT_SCHEMA


# -- schema predicates -----------------------------------------------------
#
# Every leaf check below mirrors the jsonschema keyword it stands for, down
# to the type checker (8.0 is an integer, True is not) and the equality of
# ``enum`` (True is not 1), so its False is a refusal jsonschema also makes.

_ANNOTATIONS = frozenset({"$schema", "$id", "$defs", "$comment", "title",
                          "description"})
_TRUE, _FALSE = object(), object()


def _always(x) -> bool:
    return True


def _never(x) -> bool:
    return False


def _unbool(x):
    return _TRUE if x is True else _FALSE if x is False else x


def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or isinstance(x, float) and x.is_integer()


_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": _is_integer,
    "null": lambda x: x is None,
    "number": _is_number,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _type(names):
    tests = [_TYPES[n] for n in ([names] if isinstance(names, str) else names)]
    return tests[0] if len(tests) == 1 else lambda x: any(t(x) for t in tests)


def _member_of(values, keyword):
    if not all(v is None or isinstance(v, (str, int, float)) for v in values):
        raise ValueError(f"no predicate for schema keyword {keyword!r} "
                         f"with a non-scalar value")
    members = tuple(_unbool(v) for v in values)
    return lambda x: _unbool(x) in members


def _pattern(regex):
    search = re.compile(regex).search
    return lambda x: not isinstance(x, str) or search(x) is not None


def _sized(kind, bound, at_least):
    if at_least:
        return lambda x: not isinstance(x, kind) or len(x) >= bound
    return lambda x: not isinstance(x, kind) or len(x) <= bound


_LEAVES = {
    "type": _type,
    "enum": lambda values: _member_of(values, "enum"),
    "const": lambda value: _member_of([value], "const"),
    "required": lambda names: (
        lambda x: not isinstance(x, dict) or all(n in x for n in names)),
    "minimum": lambda m: lambda x: not _is_number(x) or not x < m,
    "maximum": lambda m: lambda x: not _is_number(x) or not x > m,
    "pattern": _pattern,
    "minLength": lambda n: _sized(str, n, True),
    "maxLength": lambda n: _sized(str, n, False),
    "minItems": lambda n: _sized(list, n, True),
    "maxItems": lambda n: _sized(list, n, False),
    "minProperties": lambda n: _sized(dict, n, True),
    "maxProperties": lambda n: _sized(dict, n, False),
}


def _all(checks):
    if not checks:
        return _always
    if len(checks) == 1:
        return checks[0]
    checks = tuple(checks)

    def check(x) -> bool:
        for c in checks:
            if not c(x):
                return False
        return True
    return check


def _unique(flag, schema, root):
    # judges lists of strings only and leaves any other list to jsonschema
    if not flag:
        return _always
    return lambda x: not isinstance(x, list) or (
        all(isinstance(v, str) for v in x) and len(set(x)) == len(x))


def _object(value, schema, root):
    props = {name: schema_predicate(sub, root)
             for name, sub in schema.get("properties", {}).items()}
    extra = schema.get("additionalProperties", True)
    extra = None if extra is True else schema_predicate(extra, root)

    def check(x) -> bool:
        if not isinstance(x, dict):
            return True
        for name, value in x.items():
            test = props.get(name, extra)
            if test is not None and not test(value):
                return False
        return True
    return check


def _items(sub, schema, root):
    test = schema_predicate(sub, root)
    return lambda x: not isinstance(x, list) or all(map(test, x))


def _property_names(sub, schema, root):
    test = schema_predicate(sub, root)
    return lambda x: not isinstance(x, dict) or all(map(test, x))


def _ref(ref, schema, root):
    prefix = "#/$defs/"
    if not ref.startswith(prefix):
        raise ValueError(f"no predicate for schema keyword '$ref' to {ref!r}")
    return schema_predicate(root["$defs"][ref[len(prefix):]], root)


_NODES = {
    "uniqueItems": _unique,
    "properties": _object,
    "additionalProperties": _object,
    "items": _items,
    "propertyNames": _property_names,
    "$ref": _ref,
}


def schema_predicate(schema, root=None):
    """A predicate that returns True only for documents that ``schema``
    (Draft 2020-12) accepts; ``root`` holds the ``$defs`` a ``$ref`` names.
    A keyword without a predicate raises ValueError, so an edit to a
    schema cannot quietly weaken its check."""
    if isinstance(schema, bool):
        return _always if schema else _never
    root = schema if root is None else root
    checks = []
    for key, value in schema.items():
        if key in _LEAVES:
            checks.append(_LEAVES[key](value))
        elif key in _NODES:
            if key == "additionalProperties" and "properties" in schema:
                continue          # checked with ``properties``
            checks.append(_NODES[key](value, schema, root))
        elif key not in _ANNOTATIONS:
            raise ValueError(f"no predicate for schema keyword {key!r}")
    return _all(checks)


def _schema_error(schema: dict, doc) -> str | None:
    """Where and why jsonschema refuses ``doc``, or None if it accepts it."""
    import jsonschema
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    first = errors[0]
    where = "/".join(str(p) for p in first.absolute_path) or "<root>"
    return f"{where}: {first.message}"


_CONFIG_VALID = schema_predicate(_CONFIG_SCHEMA)
_REPORT_VALID = schema_predicate(_REPORT_SCHEMA)


class JobConfig(NamedTuple):
    name: str
    field_descriptor: str
    horizon: int
    power_bound: int
    strict: bool
    checks: tuple | None          # None means all
    variables: tuple
    relations: tuple
    kind: str
    stages: dict                  # int -> tuple of generator strings
    generators: tuple | None      # None means search
    search_seed: int
    search_attempts: int

    def canonical(self) -> dict:
        """Round-trippable form with defaults applied; echoed into reports."""
        out = {
            "name": self.name,
            "field": self.field_descriptor,
            "horizon": self.horizon,
            "power_bound": self.power_bound,
            "strict": self.strict,
            "checks": "all" if self.checks is None else list(self.checks),
            "ring": {"variables": list(self.variables),
                     "relations": list(self.relations)},
            "filtration": {
                "kind": self.kind,
                "stages": {str(n): list(g) for n, g in sorted(self.stages.items())},
            },
        }
        if self.generators is not None:
            out["reduction"] = {"generators": list(self.generators)}
        else:
            out["reduction"] = {"search": {"seed": self.search_seed,
                                           "attempts": self.search_attempts}}
        return out


def parse_config(obj, fallback_name: str = "job") -> JobConfig:
    if not _CONFIG_VALID(obj):
        try:
            error = _schema_error(_CONFIG_SCHEMA, obj)
        except RecursionError as exc:
            # comparing or printing deeply nested values recurses
            raise ConfigError("config nests its values too deeply to validate") from exc
        if error:
            raise ConfigError(f"config invalid at {error}")

    checks = obj.get("checks", "all")
    if checks == "all":
        selected = None
    else:
        from .checkers import ALL_CHECKS  # only a list of checks needs the engine
        unknown = sorted(set(checks) - set(ALL_CHECKS))
        if unknown:
            raise ConfigError(f"unknown check names: {', '.join(unknown)}")
        selected = tuple(c for c in ALL_CHECKS if c in checks)

    # with the schema's name pattern, the one check of a stage table:
    # Filtration trusts what passes here
    stages_raw = obj["filtration"]["stages"]
    if "1" not in stages_raw:
        raise ConfigError("filtration stages must include stage 1")
    kind = obj["filtration"]["kind"]
    count = len(stages_raw)
    if kind != "explicit" and count > 1:
        raise ConfigError(f"{kind} filtration takes only stage 1")
    if set(stages_raw) != {str(n) for n in range(1, count + 1)}:
        raise ConfigError("explicit stages must be consecutive from 1")
    stages = {n: tuple(stages_raw[str(n)]) for n in range(1, count + 1)}

    red = obj["reduction"]
    generators = tuple(red["generators"]) if "generators" in red else None
    search = red.get("search", {})

    return JobConfig(
        name=obj.get("name", fallback_name),
        field_descriptor=obj.get("field", "q"),
        # the schema counts 8.0 as an integer; the algebra needs an int
        horizon=int(obj.get("horizon", DEFAULT_HORIZON)),
        power_bound=int(obj.get("power_bound", DEFAULT_POWER_BOUND)),
        strict=obj.get("strict", False),
        checks=selected,
        variables=tuple(obj["ring"]["variables"]),
        relations=tuple(obj["ring"].get("relations", [])),
        kind=kind,
        stages=stages,
        generators=generators,
        search_seed=int(search.get("seed", 0)),
        search_attempts=int(search.get("attempts", DEFAULT_SEARCH_ATTEMPTS)),
    )


def load_config(path) -> JobConfig:
    from pathlib import Path
    p = Path(path)
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{p} nests its JSON too deeply to read") from exc
    return parse_config(obj, fallback_name=p.stem)


def validate_report(report: dict):
    """Self-check emitted reports against the published schema."""
    if not _REPORT_VALID(report):
        error = _schema_error(_REPORT_SCHEMA, report)
        if error:
            raise ValueError(f"report fails its schema at {error}")
