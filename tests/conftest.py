import pytest

from rankcrank import tables


@pytest.fixture(scope="session")
def table60():
    # one enumeration pass shared by every suite that needs desk range
    return tables.build(60)


@pytest.fixture(scope="session")
def table100():
    # the enumeration oracle over the arithmetic backend's whole range
    return tables.build(100)


@pytest.fixture(scope="session")
def accel100():
    return tables.build_accelerated(100)


@pytest.fixture(scope="session")
def table30():
    return tables.build(30)
