"""Shared fixtures.

The Green-pair fixtures are session-scoped: the case-2 construction runs a
nonlinear Newton solve (under a second at n=256) and the pairs at n=512
are large; everything downstream (unit tests and the acceptance gate)
reuses one build per resolution.
"""

import numpy as np
import pytest

from todalab.geometry import make_flat_torus
from todalab.greens import extract_expansions, green_pair_case1, green_pair_case2

# symmetric two-point configuration on the diagonal
P1 = np.array([0.25, 0.25])
P2 = np.array([0.75, 0.75])
# single-point configuration
PC = np.array([0.5, 0.5])


@pytest.fixture(scope="session")
def flat64():
    return make_flat_torus(64)


@pytest.fixture(scope="session")
def flat128():
    return make_flat_torus(128)


@pytest.fixture(scope="session")
def flat256():
    return make_flat_torus(256)


def _two_point_pair(n):
    pair = green_pair_case1(P1, P2, make_flat_torus(n))
    extract_expansions(pair)
    return pair


@pytest.fixture(scope="session")
def pair1_128():
    return _two_point_pair(128)


@pytest.fixture(scope="session")
def pair1_256():
    return _two_point_pair(256)


@pytest.fixture(scope="session")
def pair1_512():
    return _two_point_pair(512)


@pytest.fixture(scope="session")
def pair2_256():
    pair = green_pair_case2(PC, make_flat_torus(256))
    extract_expansions(pair)
    return pair
