"""JSON config files: a ``topology`` section mapping to TopologyConfig
fields and a ``model`` section selecting scenario, reduction and flags."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .power import ModelParams
from .topology import (ConfigError, RelayLayout, RequestAssignment,
                       TopologyConfig)

_MODEL_KEYS = {"scenario", "reduction_pct", "demand_bps", "capacity_enforced"}

_ENUM_FIELDS = {
    "request_assignment": RequestAssignment,
    "relay_layout": RelayLayout,
}


def load_config(path: str | Path) -> tuple[TopologyConfig, ModelParams]:
    data = json.loads(Path(path).read_text())
    topo_data = dict(data.get("topology", {}))
    known = {f.name for f in fields(TopologyConfig)}
    unknown = set(topo_data) - known
    if unknown:
        raise ConfigError(f"{path}: unknown topology keys {sorted(unknown)}")
    for key, enum_cls in _ENUM_FIELDS.items():
        if key in topo_data:
            topo_data[key] = enum_cls(topo_data[key])
    if "coordinator_xy" in topo_data and topo_data["coordinator_xy"] is not None:
        topo_data["coordinator_xy"] = tuple(topo_data["coordinator_xy"])
    topology = TopologyConfig(**topo_data)

    model_data = dict(data.get("model", {}))
    unknown = set(model_data) - _MODEL_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown model keys {sorted(unknown)}")
    return topology, model_params(model_data, topology.vm_types)


def model_params(model_data: dict, vm_types: int) -> ModelParams:
    """``ModelParams`` from the keys of a ``model`` section; a key left
    out takes its default (scenario 1, reduction 0.5)."""
    model_data = dict(model_data)
    scenario = model_data.pop("scenario", 1)
    reduction = model_data.pop("reduction_pct", 0.5)
    return ModelParams.for_scenario(scenario, reduction, vm_types=vm_types,
                                    **model_data)
