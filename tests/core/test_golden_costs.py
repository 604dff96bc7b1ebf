"""Golden simulated costs: the cost model's bit-identity check.

``scripts/record_golden_costs.py`` runs a fixed workload (the fig10/
fig12 strategy grid, a batch, DML, and a 2-shard fleet's scatter reads
and two-phase delete) on freshly built databases and records every
cost report in ``golden_costs.json``.  Simulated costs are
deterministic, so replaying the workload must reproduce each report
exactly -- rows, ``total_s``, per-operator seconds, counters, channel
bytes and ``ram_peak``.  A change that moves simulated costs must say
why and regenerate the fixture with the script.
"""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURE = pathlib.Path(__file__).with_name("golden_costs.json")


def _recorder():
    path = REPO / "scripts" / "record_golden_costs.py"
    spec = importlib.util.spec_from_file_location("record_golden_costs",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def replayed():
    # through JSON so tuples and floats compare exactly as recorded
    return json.loads(json.dumps(_recorder().golden_costs()))


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("group", ["single", "fleet"])
def test_costs_match_golden(replayed, golden, group):
    assert replayed[group].keys() == golden[group].keys()
    for key, expected in golden[group].items():
        got = replayed[group][key]
        for field, value in expected.items():
            assert got[field] == value, (
                f"{group} {key!r}: {field} moved\n"
                f"  golden : {value}\n  now    : {got[field]}"
            )
