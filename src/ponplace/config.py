"""JSON config files: a ``topology`` section mapping to TopologyConfig
fields and a ``model`` section selecting scenario, reduction and flags.
Each value is checked against its field; a bad file raises a ConfigError
naming the file and the key."""

from __future__ import annotations

import enum
import json
import math
from dataclasses import fields
from pathlib import Path

from .power import ModelParams
from .topology import ConfigError, RelayLayout, TopologyConfig

_MODEL_KEYS = {"scenario", "reduction_pct", "demand_bps", "capacity_enforced"}


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_pair(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(map(_is_number, value)))


def _wanted(default, value) -> str | None:
    """What a value of the field whose default is ``default`` must be, if
    ``value`` is not one; the type of the default says."""
    if isinstance(default, enum.Enum):
        choices = [m.value for m in type(default)]
        return None if value in choices else f"one of {choices}"
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "true or false"
    if isinstance(default, int):
        return (None if isinstance(value, int) and not isinstance(value, bool)
                else "an integer")
    if isinstance(default, float):
        return None if _is_number(value) else "a finite number"
    # coordinator_xy, whose default None stands for the area's center
    return (None if value is None or _is_pair(value)
            else "null or a pair of numbers")


def _section(path, data: dict, name: str, cls, keys) -> dict:
    """Section ``name`` of ``data`` as keyword arguments of ``cls``: each
    key one of ``keys`` and each value one of its field."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: section {name!r} must be an object")
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"{path}: unknown {name} keys {sorted(unknown)}")
    defaults = {f.name: f.default for f in fields(cls)}
    out = {}
    for key, value in section.items():
        default = defaults[key]
        wanted = _wanted(default, value)
        if wanted:
            raise ConfigError(f"{path}: {name}.{key} is "
                              f"{json.dumps(value)}; it must be {wanted}")
        out[key] = (type(default)(value) if isinstance(default, enum.Enum)
                    else tuple(value) if isinstance(value, list) else value)
    return out


def load_config(path: str | Path) -> tuple[TopologyConfig, ModelParams]:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: not JSON: {exc.msg}") \
            from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: the top level must be an object")
    unknown = set(data) - {"topology", "model"}
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")
    topology_data = _section(path, data, "topology", TopologyConfig,
                             {f.name for f in fields(TopologyConfig)})
    if (topology_data.get("relay_layout") is RelayLayout.LINE
            and "relay_spacing_m" in topology_data):
        raise ConfigError(f"{path}: topology.relay_spacing_m is "
                          f"{json.dumps(topology_data['relay_spacing_m'])}; "
                          f"it must be left out, as the line relay layout "
                          f"does not read it")
    model_data = _section(path, data, "model", ModelParams, _MODEL_KEYS)
    try:
        topology = TopologyConfig(**topology_data)
        return topology, ModelParams.for_scenario(vm_types=topology.vm_types,
                                                  **model_data)
    except ValueError as exc:  # a value out of range
        raise ConfigError(f"{path}: {exc}") from None
