"""The model with commodities as blocks, and its emitters, against the
flat model they replaced (``flat_model.py``): the same ``model.lp`` and
``model.mps`` byte for byte, the same counts, and the same variables and
rows when the blocks are expanded."""

import tempfile
from dataclasses import fields, replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ponplace as pp
from ponplace import milp
from ponplace.experiments import topology_for_scale
from ponplace.power import EnergyParams, ModelParams
from ponplace.topology import RelayLayout

import flat_model
from chain import minimal_chain_config

FILES = ("model.lp", "model.mps")


def written(emitters, model, directory: Path) -> list[bytes]:
    directory.mkdir()
    emitters.emit_lp(model, directory / "model.lp")
    emitters.emit_mps(model, directory / "model.mps")
    return [(directory / name).read_bytes() for name in FILES]


def assert_same_as_flat(inst, params, directory: Path, expand: bool = True):
    """``expand`` also compares every variable and row one by one."""
    model = milp.build_model(inst, params)
    flat = flat_model.build_model(inst, params)
    assert model.counts() == flat.counts()
    assert len(model.variables) == len(flat.variables)
    assert len(model.rows) == len(flat.rows)
    if expand:
        assert dict(model.variables) == {
            name: var.kind for name, var in flat.variables.items()}
        assert [(r.name, r.coeffs, r.sense, r.rhs) for r in model.rows] == [
            (r.name, r.coeffs, r.sense, r.rhs) for r in flat.rows]
    new = written(milp, model, directory / "blocks")
    old = written(flat_model, flat, directory / "flat")
    for name, a, b in zip(FILES, new, old):
        if a != b:
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                      min(len(a), len(b)))
            pytest.fail(f"{name} differs from byte {at}: "
                        f"{a[at - 80:at + 80]!r} != {b[at - 80:at + 80]!r}")


@lru_cache(maxsize=None)
def reduced_seed(seed: int) -> pp.NetworkInstance:
    return pp.build_instance(topology_for_scale("reduced", seed))


def test_minimal_chain(tmp_path):
    assert_same_as_flat(pp.build_instance(minimal_chain_config()),
                        ModelParams.for_scenario(1, 0.5, vm_types=1), tmp_path)


def test_no_objects(tmp_path):
    inst = pp.build_instance(minimal_chain_config(objects_per_network=0))
    assert_same_as_flat(inst, ModelParams.for_scenario(1, 0.5, vm_types=1),
                        tmp_path)


def test_row_without_terms(tmp_path):
    # Without the relay's out-link the relay has no link among the
    # candidates: the processed commodities' rows there are empty.
    chain = pp.build_instance(minimal_chain_config())
    obj = chain.objects()[0]
    relay = next(dst for src, dst in chain.links if src == obj)
    cut = pp.NetworkInstance(chain.config, list(chain.nodes),
                             {link: end for link, end in chain.links.items()
                              if link[0] != relay},
                             chain.vm_request)
    assert_same_as_flat(cut, ModelParams.for_scenario(1, 0.5, vm_types=1),
                        tmp_path)
    assert "0 nothing" in (tmp_path / "blocks" / "model.lp").read_text()


@pytest.mark.parametrize("capacity", [True, False],
                         ids=["capacity", "no-capacity"])
@pytest.mark.parametrize("reduction", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("scenario", [1, 2, 3])
@pytest.mark.parametrize("seed", [7, 11, 12345])
def test_reduced(seed, scenario, reduction, capacity, tmp_path):
    assert_same_as_flat(reduced_seed(seed), ModelParams.for_scenario(
        scenario, reduction, capacity_enforced=capacity), tmp_path)


def test_paper_topology_with_10_objects_per_network(tmp_path):
    inst = pp.build_instance(pp.TopologyConfig(objects_per_network=10))
    assert_same_as_flat(inst, ModelParams.for_scenario(2, 0.3), tmp_path,
                        expand=False)


ZERO_ENERGY = EnergyParams(**{f.name: 0.0 for f in fields(EnergyParams)})


@settings(max_examples=25, deadline=None)
@given(networks=st.integers(1, 2), objects=st.integers(0, 4),
       layout=st.sampled_from([(RelayLayout.GRID, 1), (RelayLayout.GRID, 4),
                               (RelayLayout.LINE, 2), (RelayLayout.LINE, 3)]),
       vm_types=st.integers(1, 3), seed=st.integers(0, 10 ** 6),
       scenario=st.sampled_from([1, 2, 3]),
       reduction=st.sampled_from([0.0, 0.3, 0.9]),
       capacity=st.booleans(), zero_energy=st.booleans())
def test_small_topologies(networks, objects, layout, vm_types, seed, scenario,
                          reduction, capacity, zero_energy):
    # Zero link costs are "obj 0" entries in the MPS and absent from the LP.
    relay_layout, relays = layout
    inst = pp.build_instance(pp.TopologyConfig(
        networks=networks, objects_per_network=objects,
        relays_per_network=relays, relay_layout=relay_layout,
        vm_types=vm_types, rng_seed=seed))
    params = ModelParams.for_scenario(scenario, reduction, vm_types=vm_types,
                                      capacity_enforced=capacity)
    if zero_energy:
        params = replace(params, energy=ZERO_ENERGY)
    with tempfile.TemporaryDirectory() as directory:
        assert_same_as_flat(inst, params, Path(directory))
