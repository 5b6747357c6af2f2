import pytest

import ponplace as pp
from ponplace.experiments import REDUCED_SCALE_CONFIG

from chain import minimal_chain_config


@pytest.fixture(scope="session")
def paper_instance():
    return pp.build_instance(pp.TopologyConfig())


@pytest.fixture(scope="session")
def reduced_instance():
    return pp.build_instance(REDUCED_SCALE_CONFIG)


@pytest.fixture()
def minimal_chain():
    return pp.build_instance(minimal_chain_config())
