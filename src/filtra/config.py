"""Job configuration: schema-validated JSON in, a frozen dataclass out."""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import jsonschema

from .checkers import ALL_CHECKS


class ConfigError(ValueError):
    """The configuration file is malformed or semantically inconsistent."""


DEFAULT_HORIZON = 12
DEFAULT_POWER_BOUND = 2
DEFAULT_SEARCH_ATTEMPTS = 60


def _load_schema(name: str) -> dict:
    text = resources.files("filtra").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


_CONFIG_SCHEMA = _load_schema("config.schema.json")
_REPORT_SCHEMA = _load_schema("report.schema.json")


def config_schema() -> dict:
    return _CONFIG_SCHEMA


def report_schema() -> dict:
    return _REPORT_SCHEMA


@dataclass(frozen=True)
class JobConfig:
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
    validator = jsonschema.Draft202012Validator(_CONFIG_SCHEMA)
    try:
        errors = sorted(validator.iter_errors(obj), key=lambda e: list(e.absolute_path))
    except RecursionError as exc:
        # comparing or printing deeply nested values recurses
        raise ConfigError("config nests its values too deeply to validate") from exc
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {first.message}")

    checks = obj.get("checks", "all")
    if checks == "all":
        selected = None
    else:
        unknown = sorted(set(checks) - set(ALL_CHECKS))
        if unknown:
            raise ConfigError(f"unknown check names: {', '.join(unknown)}")
        selected = tuple(c for c in ALL_CHECKS if c in checks)

    stages_raw = obj["filtration"]["stages"]
    stages = {int(n): tuple(g) for n, g in stages_raw.items()}
    if 1 not in stages:
        raise ConfigError("filtration stages must include stage 1")
    kind = obj["filtration"]["kind"]
    if kind != "explicit" and max(stages) > 1:
        raise ConfigError(f"{kind} filtration takes only stage 1")
    if kind == "explicit" and max(stages) > 1:
        want = list(range(1, max(stages) + 1))
        if sorted(stages) != want:
            raise ConfigError("explicit stages must be consecutive from 1")

    red = obj["reduction"]
    generators = tuple(red["generators"]) if "generators" in red else None
    search = red.get("search", {})

    return JobConfig(
        name=obj.get("name", fallback_name),
        field_descriptor=obj.get("field", "q"),
        horizon=obj.get("horizon", DEFAULT_HORIZON),
        power_bound=obj.get("power_bound", DEFAULT_POWER_BOUND),
        strict=obj.get("strict", False),
        checks=selected,
        variables=tuple(obj["ring"]["variables"]),
        relations=tuple(obj["ring"].get("relations", [])),
        kind=kind,
        stages=stages,
        generators=generators,
        search_seed=search.get("seed", 0),
        search_attempts=search.get("attempts", DEFAULT_SEARCH_ATTEMPTS),
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
    validator = jsonschema.Draft202012Validator(_REPORT_SCHEMA)
    errors = sorted(validator.iter_errors(report), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.absolute_path) or "<root>"
        raise ValueError(f"report fails its schema at {where}: {first.message}")
