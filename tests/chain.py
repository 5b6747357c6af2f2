"""The smallest topology, which tests build by hand."""

from dataclasses import replace

from ponplace import TopologyConfig


def minimal_chain_config(**overrides) -> TopologyConfig:
    """1 network, 1 object, 1 relay, 1 VM type: the smallest instance with a
    unique object -> relay -> coordinator -> gateway -> ONU -> OLT path."""
    base = TopologyConfig(networks=1, objects_per_network=1,
                          relays_per_network=1, vm_types=1)
    return replace(base, **overrides)
