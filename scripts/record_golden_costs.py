#!/usr/bin/env python
"""Record the golden simulated costs that ``tests/core/test_golden_costs.py``
checks.

Runs one fixed, seeded workload on freshly built databases and writes
every statement's simulated cost report to
``tests/core/golden_costs.json``:

* on a single token (synthetic, scale 0.002): every fig10/fig12
  strategy x cross x selectivity point of Query Q and Query Q with a
  hidden projection, plus the cost-based plan of each (the grid of
  ``tests/core/test_vectorized_differential.py``), one batched
  ``query_many`` and one INSERT and one DELETE;
* on a 2-shard fleet (synthetic, scale 0.001): two scatter reads with
  their per-shard ``shard_stats``, a broadcast child-table INSERT and
  the fleet's two-phase child-table DELETE of the inserted rows.

Simulated costs are deterministic, so the test replays the same
workload and demands exact equality.  Regenerate the fixture only in a
change that states why simulated costs moved::

    PYTHONPATH=src python scripts/record_golden_costs.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Dict

from repro.workloads.queries import query_q, query_q_with_hidden_projection
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = REPO / "tests" / "core" / "golden_costs.json"

SV_GRID = (0.001, 0.01, 0.05, 0.2, 0.5)

STRATEGIES = (
    ("pre", False), ("post", False), ("post-select", False),
    ("nofilter", False), ("pre", True), ("post", True),
    ("post-select", True), ("nofilter", True),
)

FLEET_READS = (
    query_q(0.05),
    "SELECT T0.id, T1.v1 FROM T0, T1 WHERE T0.fk1 = T1.id "
    "AND T1.v1 < 300 ORDER BY T1.v1 DESC, T0.id LIMIT 25",
)


def observe(stats, rows: int) -> Dict:
    """One statement's cost report as a JSON-ready value."""
    return {
        "rows": rows,
        "total_s": stats.total_s,
        "by_operator": dict(stats.by_operator),
        "counters": dict(stats.counters),
        "bytes_to_secure": stats.bytes_to_secure,
        "bytes_to_untrusted": stats.bytes_to_untrusted,
        "ram_peak": stats.ram_peak,
        "result_rows": stats.result_rows,
    }


def single_token_costs() -> Dict[str, Dict]:
    db = build_synthetic(SyntheticConfig(scale=0.002, full_indexing=True))
    out: Dict[str, Dict] = {}
    for sv in SV_GRID:
        for sql_of in (query_q, query_q_with_hidden_projection):
            sql = sql_of(sv)
            for strategy, cross in STRATEGIES:
                result = db.execute(sql, vis_strategy=strategy, cross=cross)
                key = f"{sql_of.__name__}({sv}) {strategy} cross={cross}"
                out[key] = observe(result.stats, len(result.rows))
            result = db.execute(sql)
            out[f"{sql_of.__name__}({sv}) cost-based"] = \
                observe(result.stats, len(result.rows))
    batch = db.session().query_many([query_q(0.01), query_q(0.2)])
    out["query_many batch"] = observe(
        batch.stats, sum(len(r.rows) for r in batch))
    for sql in ("INSERT INTO T12 VALUES (7, 8, 3, 4), (9, 10, 5, 6)",
                "DELETE FROM T0 WHERE T0.v1 < 12"):
        result = db.execute(sql)
        out[sql] = observe(result.stats, result.rows_affected)
    return out


def fleet_costs() -> Dict[str, Dict]:
    fleet = build_synthetic(SyntheticConfig(scale=0.001, full_indexing=True),
                            shards=2)
    out: Dict[str, Dict] = {}
    for sql in FLEET_READS:
        result = fleet.execute(sql)
        out[sql] = observe(result.stats, len(result.rows))
        for k, stats in enumerate(result.shard_stats):
            out[f"{sql} [shard {k}]"] = observe(stats, stats.result_rows)
    # a fresh T2 row is unreferenced, so the two-phase delete of a
    # root-referenced table succeeds instead of hitting RESTRICT
    for sql in ("INSERT INTO T2 (v1, h1) VALUES (4242, 1), (4242, 7)",
                "DELETE FROM T2 WHERE T2.v1 = 4242"):
        result = fleet.execute(sql)
        out[sql] = observe(result.stats, result.rows_affected)
    return out


def golden_costs() -> Dict[str, Dict[str, Dict]]:
    return {"single": single_token_costs(), "fleet": fleet_costs()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(FIXTURE))
    args = parser.parse_args()
    costs = golden_costs()
    with open(args.out, "w") as fh:
        json.dump(costs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n = sum(len(v) for v in costs.values())
    print(f"wrote {n} cost reports to {args.out}")


if __name__ == "__main__":
    main()
