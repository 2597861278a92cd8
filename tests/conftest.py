import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from authalic.mesh import make_icosphere, normalize_area


@pytest.fixture(scope="session")
def icosphere1():
    return make_icosphere(1)


@pytest.fixture(scope="session")
def icosphere2():
    return make_icosphere(2)


@pytest.fixture(scope="session")
def icosphere3():
    return make_icosphere(3)


@pytest.fixture(scope="session")
def ellipsoid3():
    """The (1, 0.8, 0.6) ellipsoid at 642 vertices, area-normalized."""
    return normalize_area(make_icosphere(3, (1.0, 0.8, 0.6)))


@pytest.fixture(scope="session")
def ellipsoid4():
    """The (1, 0.8, 0.6) ellipsoid at 2,562 vertices, area-normalized."""
    return normalize_area(make_icosphere(4, (1.0, 0.8, 0.6)))
