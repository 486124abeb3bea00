import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and never time out on a
# loaded machine.
settings.register_profile("conic-alm", derandomize=True, deadline=None, database=None)
settings.load_profile("conic-alm")

from conic_alm.fixtures import toy_rank1_instance
from conic_alm.model import synth_known_solution
from conic_alm.symcone import symmetrize


@pytest.fixture(scope="session")
def toy():
    """The 2x2 certified instance with rank-one solutions on both sides."""
    return toy_rank1_instance()


@pytest.fixture(scope="session")
def certified5():
    """A mid-size certified instance reused across modules."""
    return synth_known_solution(n=5, m=6, rank_x=2, seed=7)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def random_sym(rng, n, scale=1.0):
    return symmetrize(rng.standard_normal((n, n))) * scale
