"""The declarative scenario schema: plain dicts <-> :class:`Scenario`.

A scenario file is data, not code: a mapping with a ``format`` tag,
the scenario's identity (name / title / description), the replication
protocol, one ``config`` block, and an optional ``points`` list whose
entries override the shared config field by field.  This module defines
that schema once — the YAML/TOML loader (:mod:`repro.scenarios.loader`)
only parses text into a dict and hands it here.

Validation is **eager and named**: an unknown key anywhere (top level,
``config``, a nested ``ocb``/``arrivals``/``aggregation``/``cluster``/
``failures``/``faults``/``retry``/``replication`` section, a point)
raises :class:`ScenarioSchemaError`
carrying the full
key path and the closest valid spelling, before any simulation runs.
So does a value that does not fit its field's declared scalar type
(``nusers: 1.5``, ``nusers: true``) and a ``metrics`` entry no
replication reports (checked against the declarations in
:mod:`repro.core.results`).
The semantic checks themselves live in the config dataclasses — the
schema builds real :class:`~repro.core.parameters.VOODBConfig` objects,
so a scenario file can express exactly what the Python API can, no more.

``scenario_to_dict`` is the canonical inverse: it emits the minimal
diff against the dataclass defaults (and, per point, against the
scenario-level config), so ``scenario_from_dict(scenario_to_dict(s))``
reproduces ``s`` exactly and re-serializing is byte-stable.

Config blocks may open with loader-only sugar:

``base``
    Named preset to start from instead of the Table 3 defaults:
    ``default`` | ``o2`` (Table 4 left column) | ``texas`` (right).
``cache_mb`` (with ``base: o2``)
    Server cache in MB -> ``buffsize`` via
    :func:`repro.systems.o2.o2_buffer_pages`.
``memory_mb`` (with ``base: texas``)
    Machine memory in MB -> ``buffsize`` via
    :func:`repro.systems.texas.texas_memory_frames`.

The serializer never emits sugar — committed files may use it for
readability, the canonical form spells the resolved fields out.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, get_type_hints

from repro.core.overrides import checked_replace, suggest_key
from repro.core.parameters import VOODBConfig
from repro.core.results import METRIC_NAMES, is_metric_name
from repro.scenarios.catalog import DEFAULT_METRICS, Scenario

#: The format tag every scenario file must carry (schema version v1).
SCENARIO_FORMAT = "voodb-scenario/v1"

#: Nested config sections and the dataclass each one configures.
CONFIG_SECTIONS = (
    "ocb",
    "arrivals",
    "aggregation",
    "cluster",
    "failures",
    "faults",
    "retry",
    "replication",
)

#: Loader-only sugar keys a scenario-level config block may open with.
PRESET_KEYS = ("base", "cache_mb", "memory_mb")

#: Named presets ``base:`` may select.
PRESET_NAMES = ("default", "o2", "texas")

_TOP_LEVEL_KEYS = (
    "format",
    "name",
    "title",
    "description",
    "x_label",
    "metrics",
    "replications",
    "base_seed",
    "config",
    "points",
)

_POINT_KEYS = ("x", "config")

#: Scenario fields with defaults the serializer may omit.
_SCENARIO_DEFAULTS = {
    "x_label": "point",
    "metrics": DEFAULT_METRICS,
    "replications": 3,
    "base_seed": 1,
}


class ScenarioSchemaError(ValueError):
    """A scenario definition that does not fit the schema.

    The message always carries the source (file path or ``<dict>``) and
    the key path to the offending entry.
    """

    def __init__(self, source: str, message: str) -> None:
        super().__init__(f"{source}: {message}")
        self.source = source


# ----------------------------------------------------------------------
# dict -> Scenario
# ----------------------------------------------------------------------
def _require_mapping(value: Any, where: str, source: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioSchemaError(
            source, f"{where} must be a mapping, got {type(value).__name__}"
        )
    return value


def _check_keys(
    data: Mapping, allowed: Tuple[str, ...], where: str, source: str
) -> None:
    for key in data:
        if key not in allowed:
            hint = suggest_key(str(key), allowed)
            did_you_mean = f" (did you mean {hint!r}?)" if hint else ""
            raise ScenarioSchemaError(
                source,
                f"unknown key {key!r} in {where}{did_you_mean}; "
                f"valid keys: {', '.join(allowed)}",
            )


def _check_preset_megabytes(value: Any, key: str, source: str) -> None:
    """A ``cache_mb``/``memory_mb`` sugar value: a finite number > 0."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ScenarioSchemaError(
            source, f"{key} must be a finite number of MB > 0, got {value!r}"
        )


def _base_preset(
    data: Mapping, where: str, source: str
) -> VOODBConfig:
    """Resolve the loader-only ``base``/``cache_mb``/``memory_mb`` sugar."""
    from repro.systems.o2 import o2_buffer_pages, o2_config
    from repro.systems.texas import texas_config, texas_memory_frames

    base = data.get("base", "default")
    if base not in PRESET_NAMES:
        hint = suggest_key(str(base), PRESET_NAMES)
        did_you_mean = f" (did you mean {hint!r}?)" if hint else ""
        raise ScenarioSchemaError(
            source,
            f"unknown preset {base!r} in {where}.base{did_you_mean}; "
            f"valid presets: {', '.join(PRESET_NAMES)}",
        )
    cache_mb = data.get("cache_mb")
    memory_mb = data.get("memory_mb")
    if cache_mb is not None and base != "o2":
        raise ScenarioSchemaError(
            source, f"{where}.cache_mb only applies to 'base: o2'"
        )
    if memory_mb is not None and base != "texas":
        raise ScenarioSchemaError(
            source, f"{where}.memory_mb only applies to 'base: texas'"
        )
    if base == "o2":
        config = o2_config()
        if cache_mb is not None:
            _check_preset_megabytes(cache_mb, f"{where}.cache_mb", source)
            config = config.with_changes(buffsize=o2_buffer_pages(cache_mb))
        return config
    if base == "texas":
        config = texas_config()
        if memory_mb is not None:
            _check_preset_megabytes(memory_mb, f"{where}.memory_mb", source)
            config = config.with_changes(
                buffsize=texas_memory_frames(memory_mb)
            )
        return config
    return VOODBConfig()


def _coerce_value(value: Any) -> Any:
    """YAML/TOML natives -> the field types the dataclasses expect."""
    if isinstance(value, list):
        return tuple(value)
    return value


def _scalar_types(config_class: type) -> Dict[str, type]:
    """Declared ``int``/``float``/``bool``/``str`` fields of a config."""
    hints = get_type_hints(config_class)
    return {
        f.name: hints[f.name]
        for f in fields(config_class)
        if hints[f.name] in (int, float, bool, str)
    }


def _check_types(
    config: Any, changes: Mapping[str, Any], where: str, source: str
) -> None:
    """Reject values that do not fit the field's declared scalar type.

    A ``bool`` is not an ``int`` (YAML ``true`` for ``nusers``), an
    ``int`` is accepted for a ``float`` field, and a float — NaN
    included — never passes for an ``int`` field.
    """
    types = _scalar_types(type(config))
    for key, value in changes.items():
        kind = types.get(key)
        if kind is None:
            continue
        if kind is float:
            fits = isinstance(value, (int, float))
        else:
            fits = isinstance(value, kind)
        if not fits or (kind is not bool and isinstance(value, bool)):
            raise ScenarioSchemaError(
                source,
                f"{where}.{key} must be {kind.__name__}, "
                f"got {type(value).__name__} {value!r}",
            )


def _apply_section(
    section: Any, data: Any, where: str, source: str
) -> Any:
    """Field-by-field overrides onto one nested config dataclass."""
    mapping = _require_mapping(data, where, source)
    changes = {key: _coerce_value(value) for key, value in mapping.items()}
    _check_types(section, changes, where, source)
    try:
        return checked_replace(section, changes, label=where)
    except ScenarioSchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioSchemaError(source, f"{where}: {exc}") from exc


def apply_config_overrides(
    config: VOODBConfig,
    data: Mapping,
    where: str,
    source: str = "<dict>",
    allow_presets: bool = False,
) -> VOODBConfig:
    """Merge one schema config block over ``config``, field by field.

    Scalar keys override :class:`VOODBConfig` fields; the
    :data:`CONFIG_SECTIONS` keys override fields *inside* the embedded
    section dataclasses (unmentioned section fields keep the base
    config's values).  Preset sugar is only honoured when
    ``allow_presets`` (the scenario-level block).
    """
    _require_mapping(data, where, source)
    changes: Dict[str, Any] = {}
    for key, value in data.items():
        if key in PRESET_KEYS:
            if not allow_presets:
                raise ScenarioSchemaError(
                    source,
                    f"{where}.{key}: presets are only valid in the "
                    "scenario-level config block, not per point",
                )
            continue
        if key in CONFIG_SECTIONS:
            changes[key] = _apply_section(
                getattr(config, key), value, f"{where}.{key}", source
            )
        else:
            changes[key] = _coerce_value(value)
    _check_types(config, changes, where, source)
    try:
        return checked_replace(config, changes, label=where)
    except ScenarioSchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioSchemaError(source, f"{where}: {exc}") from exc


def _scenario_field(data: Mapping, key: str, kind: type, source: str) -> Any:
    if key not in data:
        if key in _SCENARIO_DEFAULTS:
            return _SCENARIO_DEFAULTS[key]
        raise ScenarioSchemaError(source, f"missing required key {key!r}")
    value = data[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ScenarioSchemaError(
            source, f"{key} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def scenario_from_dict(
    data: Mapping, source: str = "<dict>"
) -> Scenario:
    """Compile one schema mapping into a registered-equivalent Scenario."""
    _require_mapping(data, "scenario", source)
    _check_keys(data, _TOP_LEVEL_KEYS, "scenario", source)
    fmt = data.get("format")
    if fmt != SCENARIO_FORMAT:
        raise ScenarioSchemaError(
            source,
            f"format must be {SCENARIO_FORMAT!r}, got {fmt!r}"
            if fmt is not None
            else f"missing required key 'format' ({SCENARIO_FORMAT!r})",
        )
    name = _scenario_field(data, "name", str, source)
    title = _scenario_field(data, "title", str, source)
    description = _scenario_field(data, "description", str, source)
    x_label = _scenario_field(data, "x_label", str, source)
    replications = _scenario_field(data, "replications", int, source)
    base_seed = _scenario_field(data, "base_seed", int, source)
    metrics = data.get("metrics", DEFAULT_METRICS)
    if not isinstance(metrics, (list, tuple)) or not all(
        isinstance(m, str) for m in metrics
    ):
        raise ScenarioSchemaError(source, "metrics must be a list of strings")
    for metric in metrics:
        if not is_metric_name(metric):
            hint = suggest_key(metric, METRIC_NAMES)
            did_you_mean = f" (did you mean {hint!r}?)" if hint else ""
            raise ScenarioSchemaError(
                source,
                f"unknown metric {metric!r} in metrics{did_you_mean}",
            )
    config_block = data.get("config", {})
    base = _base_preset(
        _require_mapping(config_block, "config", source), "config", source
    )
    shared = apply_config_overrides(
        base, config_block, "config", source, allow_presets=True
    )
    points_block = data.get("points")
    if points_block is None:
        points: Tuple[Tuple[Any, VOODBConfig], ...] = (("baseline", shared),)
    else:
        if not isinstance(points_block, (list, tuple)) or not points_block:
            raise ScenarioSchemaError(
                source, "points must be a non-empty list of point mappings"
            )
        built: List[Tuple[Any, VOODBConfig]] = []
        for index, entry in enumerate(points_block):
            where = f"points[{index}]"
            mapping = _require_mapping(entry, where, source)
            _check_keys(mapping, _POINT_KEYS, where, source)
            if "x" not in mapping:
                raise ScenarioSchemaError(
                    source, f"{where} is missing its 'x' value"
                )
            config = shared
            if "config" in mapping:
                config = apply_config_overrides(
                    shared, mapping["config"], f"{where}.config", source
                )
            built.append((mapping["x"], config))
        points = tuple(built)
    try:
        return Scenario(
            name=name,
            title=title,
            description=description,
            points=points,
            x_label=x_label,
            metrics=tuple(metrics),
            replications=replications,
            base_seed=base_seed,
        )
    except ValueError as exc:
        raise ScenarioSchemaError(source, str(exc)) from exc


# ----------------------------------------------------------------------
# Scenario -> dict (canonical diff form)
# ----------------------------------------------------------------------
def _plain_value(value: Any) -> Any:
    """Dataclass field value -> YAML/TOML-native representation."""
    if isinstance(value, tuple):
        return [_plain_value(item) for item in value]
    if hasattr(value, "value") and not isinstance(value, (int, float)):
        return value.value  # str-Enums (SystemClass, MemoryModel, ...)
    return value


def _section_diff(section: Any, baseline: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for field_ in fields(section):
        if not field_.init:
            continue
        value = getattr(section, field_.name)
        if value != getattr(baseline, field_.name):
            out[field_.name] = _plain_value(value)
    return out


def config_to_diff(
    config: VOODBConfig, baseline: Optional[VOODBConfig] = None
) -> Dict[str, Any]:
    """Minimal schema config block turning ``baseline`` into ``config``.

    ``baseline`` defaults to the Table 3 defaults (``VOODBConfig()``);
    per-point diffs pass the scenario-level config instead.
    """
    if baseline is None:
        baseline = VOODBConfig()
    out: Dict[str, Any] = {}
    for field_ in fields(config):
        if not field_.init:
            continue
        value = getattr(config, field_.name)
        base_value = getattr(baseline, field_.name)
        if field_.name in CONFIG_SECTIONS:
            sub = _section_diff(value, base_value)
            if sub:
                out[field_.name] = sub
        elif value != base_value:
            out[field_.name] = _plain_value(value)
    return out


def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """The canonical (minimal-diff) schema mapping of a scenario.

    Inverse of :func:`scenario_from_dict`: defaults are omitted, the
    first point's config anchors the scenario-level block, and every
    point records only its field-level differences from that anchor —
    so the output is stable under a round trip.
    """
    data: Dict[str, Any] = {
        "format": SCENARIO_FORMAT,
        "name": scenario.name,
        "title": scenario.title,
        "description": scenario.description,
    }
    if scenario.x_label != _SCENARIO_DEFAULTS["x_label"]:
        data["x_label"] = scenario.x_label
    if tuple(scenario.metrics) != _SCENARIO_DEFAULTS["metrics"]:
        data["metrics"] = list(scenario.metrics)
    if scenario.replications != _SCENARIO_DEFAULTS["replications"]:
        data["replications"] = scenario.replications
    if scenario.base_seed != _SCENARIO_DEFAULTS["base_seed"]:
        data["base_seed"] = scenario.base_seed
    shared = scenario.points[0][1]
    config_block = config_to_diff(shared)
    if config_block:
        data["config"] = config_block
    single_default_point = (
        len(scenario.points) == 1 and scenario.points[0][0] == "baseline"
    )
    if not single_default_point:
        data["points"] = []
        for x, config in scenario.points:
            entry: Dict[str, Any] = {"x": x}
            diff = config_to_diff(config, baseline=shared)
            if diff:
                entry["config"] = diff
            data["points"].append(entry)
    return data


__all__ = [
    "SCENARIO_FORMAT",
    "CONFIG_SECTIONS",
    "PRESET_NAMES",
    "ScenarioSchemaError",
    "apply_config_overrides",
    "config_to_diff",
    "scenario_from_dict",
    "scenario_to_dict",
]
