import pytest

from quiverrep.dynkin import build_table
from quiverrep.exactlin import GF, QQ
from quiverrep.quiver import a_n, d4_subspace


@pytest.fixture(scope="session")
def table_a2_f2():
    return build_table(a_n(2), GF(2))


@pytest.fixture(scope="session")
def table_a2_f5():
    return build_table(a_n(2), GF(5))


@pytest.fixture(scope="session")
def table_a3_f2():
    return build_table(a_n(3), GF(2))


@pytest.fixture(scope="session")
def table_a3_f3():
    return build_table(a_n(3), GF(3))


@pytest.fixture(scope="session")
def table_a3_f5():
    return build_table(a_n(3), GF(5))


@pytest.fixture(scope="session")
def table_a3_q():
    return build_table(a_n(3), QQ)


@pytest.fixture(scope="session")
def table_d4_f2():
    return build_table(d4_subspace(), GF(2))


@pytest.fixture(scope="session")
def table_d4_f5():
    return build_table(d4_subspace(), GF(5))
