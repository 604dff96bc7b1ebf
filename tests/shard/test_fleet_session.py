"""Sessions over a fleet: the single-token ``Session``, minus batching."""

import pytest

from repro.core.session import PreparedStatement, Session
from repro.errors import GhostDBError
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

TEMPLATE = ("SELECT T0.id, T1.id, T12.id, T1.v1 "
            "FROM T0, T1, T12 "
            "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
            "AND T1.v1 < ? AND T12.h2 = ?")
SELECT_T0 = "SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 3"


@pytest.fixture(scope="module")
def pair():
    """A single token and a 2-shard fleet over the same rows."""
    cfg = SyntheticConfig(scale=0.0005, full_indexing=True)
    return build_synthetic(cfg), build_synthetic(cfg, shards=2)


def test_fleet_session_is_a_plain_session(pair):
    single, fleet = pair
    session = fleet.session()
    assert type(session) is Session
    stmt = session.prepare(TEMPLATE)
    assert type(stmt) is PreparedStatement
    assert type(fleet.prepare(TEMPLATE)) is PreparedStatement
    reference = single.prepare(TEMPLATE)
    for params in ((100, 2), (10, 3)):
        assert sorted(stmt.execute(params).rows) == \
            sorted(reference.execute(params).rows)
    # planned once for the fleet, reused for the second parameter set
    assert (session.plan_cache.misses, session.plan_cache.hits) == (1, 1)
    assert sorted(session.query(SELECT_T0).rows) == \
        sorted(single.reference_query(SELECT_T0)[1])


def test_fleet_refuses_batched_execution(pair):
    _, fleet = pair
    session = fleet.session()
    with pytest.raises(GhostDBError, match="batched execution"):
        session.query_many(TEMPLATE, [(10, 2), (20, 2)])
    with pytest.raises(GhostDBError, match="batched execution"):
        session.query_many([SELECT_T0, SELECT_T0])
    with pytest.raises(GhostDBError, match="batched execution"):
        session.prepare(TEMPLATE).execute_many([(10, 2)])
