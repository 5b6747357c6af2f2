"""JSON config files: a ``topology`` section of TopologyConfig fields and a
``model`` section of ModelParams ones.  Only faults of the JSON itself are
refused here; TopologyConfig and ModelParams check each value.  A refusal
is a ConfigError naming the file and the key."""

from __future__ import annotations

import enum
import json
from dataclasses import MISSING, fields
from pathlib import Path

from .power import ModelParams
from .topology import ConfigError, RelayLayout, TopologyConfig


def _section(path, data: dict, name: str, cls) -> dict:
    """Section ``name`` of ``data`` as keyword arguments of ``cls``, each
    key a field of ``cls`` with a default: an enum field's name becomes its
    member and a list a tuple, and ``cls`` checks the rest when built."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: section {name!r} must be an object")
    kinds = {f.name: type(f.default) for f in fields(cls)
             if f.default is not MISSING}
    unknown = set(section) - set(kinds)
    if unknown:
        raise ConfigError(f"{path}: unknown {name} keys {sorted(unknown)}")
    out = {}
    for key, value in section.items():
        if issubclass(kinds[key], enum.Enum):
            choices = [m.value for m in kinds[key]]
            if value not in choices:
                raise ConfigError(f"{path}: {name}.{key} is {json.dumps(value)}"
                                  f"; it must be one of {choices}")
            value = kinds[key](value)
        out[key] = tuple(value) if isinstance(value, list) else value
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
    topology_data = _section(path, data, "topology", TopologyConfig)
    if (topology_data.get("relay_layout") is RelayLayout.LINE
            and "relay_spacing_m" in topology_data):
        raise ConfigError(f"{path}: topology.relay_spacing_m is "
                          f"{json.dumps(topology_data['relay_spacing_m'])}; "
                          f"it must be left out, as the line relay layout "
                          f"does not read it")
    model_data = _section(path, data, "model", ModelParams)
    try:
        topology = TopologyConfig(**topology_data)
        return topology, ModelParams.for_scenario(vm_types=topology.vm_types,
                                                  **model_data)
    except ValueError as exc:  # a value of the wrong type or out of range
        raise ConfigError(f"{path}: {exc}") from None
