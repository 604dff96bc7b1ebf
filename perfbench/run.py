"""GhostDB benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload point-service --seed 1 \\
        --seconds 15 --trace 0

Run from the repository root.  Prints every metric by name, unit and
sample count, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A wrong answer prints ``"correct": false`` and exits 1.
The run record (and, traced, every span) is written under
``perfbench/_out/``; nothing else outside ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no GhostDB sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if hasattr(os, "sched_setaffinity"):
        # one CPU: token work is serialized anyway (the GIL, the
        # service's execution lock), and handing a request to a thread
        # on another, idle virtual CPU pays that CPU's wake-up, whose
        # latency swings with the host's load (README, "One CPU")
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from workloads import LAYER_METRICS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = _load_spec()
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, args.trace)
    for name, unit in LAYER_METRICS:
        if args.trace and name not in outcome.metrics:
            outcome.add(name, 0.0, unit, 0, "layer not run")
    if outcome.attempted:
        outcome.add("error_rate", outcome.failed / outcome.attempted,
                    "ratio", outcome.attempted)

    _print_table(outcome)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": outcome.metrics[m["name"]].value,
                           "unit": m["unit"]} for m in wanted}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"run": outcome.header,
                   "metrics": {k: vars(v)
                               for k, v in outcome.metrics.items()},
                   "failures": dict(outcome.failures),
                   "observed": dict(outcome.observed),
                   "wrong": outcome.wrong}, fh, indent=1)
    if outcome.tracer is not None:
        outcome.tracer.dump(stem + ".spans.json", outcome.header)
    correct = not outcome.wrong
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def _print_table(outcome) -> None:
    head = " ".join(f"{k}={v}" for k, v in outcome.header.items())
    print(f"run: {head}")
    width = max(len(n) for n in outcome.metrics)
    for name, m in sorted(outcome.metrics.items()):
        print(f"  {name:<{width}}  {m.value:>14.6g} {m.unit:<6} "
              f"n={m.samples:<6} {m.note}")
    if outcome.failures or outcome.observed:
        print(f"  failures: {dict(outcome.failures)} "
              f"observed: {dict(outcome.observed)}")
    for what in outcome.wrong[:10]:
        print(f"  WRONG ANSWER: {what}")


if __name__ == "__main__":
    sys.exit(main())
