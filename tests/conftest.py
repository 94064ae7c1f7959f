import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import peakmin.online as online
from peakmin.core import DemandProfile, Instance

DHAT = np.array([379.5, 411.0, 411.0, 442.5, 442.5, 600, 600, 600, 600, 600])


@pytest.fixture(autouse=True)
def fresh_certificate_memo():
    """Every test starts with an empty slot-certification memo: session
    fixtures such as tiny_instance share one instance object, so without
    this a test could be answered from certificates another test stored,
    and a fault a test injects into the certification might never run."""
    online._certify.cache_clear()


@pytest.fixture(scope="session")
def dhat_instance() -> Instance:
    return Instance(capacity_c=630.0, rate_limit=None, horizon_T=10,
                    demand_lb=300.0, demand_ub=600.0)


@pytest.fixture(scope="session")
def dhat_profile(dhat_instance) -> DemandProfile:
    return DemandProfile(dhat_instance, DHAT)


@pytest.fixture(scope="session")
def tiny_instance() -> Instance:
    """The hand-derived instance: c=1, T=2, bounds [1,2], pi* = 4/3."""
    return Instance(capacity_c=1.0, rate_limit=None, horizon_T=2,
                    demand_lb=1.0, demand_ub=2.0)


def random_profiles(instance: Instance, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(instance.demand_lb, instance.demand_ub,
                       (count, instance.horizon_T))
