"""Self-tests of the benchmark itself (not of demimart).

    python3 bench/selftest.py

- Two runs with the same seed give identical counts and identical values,
  and ``attempted`` is the number of distinct ops.
- A different seed changes Monte-Carlo values but not counts.
- An injected wrong reference is flagged as a failed, incorrect op.
- Layer self times plus the unattributed rest add up to the traced wall
  time, and every span name is reported by some per-layer metric.
- Each run stays within nproc threads and reports every metric named in
  BENCHMARK.json.

Each check runs the smallest run the benchmark allows (one warm-up, one
untraced and one traced round); the whole file takes a few minutes.
"""

from __future__ import annotations

import math
import os
import sys

import run

COUNT_SUFFIXES = (".calls", ".values", ".elements", ".probes", ".outcomes", ".blocks",
                  ".bytes_computed", ".checks")
failures: list[str] = []


def expect(cond: bool, message: str) -> None:
    print(("ok    " if cond else "FAIL  ") + message)
    if not cond:
        failures.append(message)


def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def values(res: dict) -> list:
    return [rec["values"] for rec in run.op_records(res)]


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    res = run.run_workload(workload, seed, seconds=0, trace=True)
    return res, run.compute_metrics(res)


def check_workload(workload: str, spec: dict) -> None:
    a, ma = traced_run(workload, 7)
    b, mb = traced_run(workload, 7)
    c, mc = traced_run(workload, 8)
    expect(counts(ma) == counts(mb), f"{workload}: same seed, same counts")
    line_a, line_b = run.summarize(a), run.summarize(b)
    expect((line_a["attempted"], line_a["failed"]) == (line_b["attempted"], line_b["failed"])
           and line_a["attempted"] == run.WORKLOADS[workload].slots,
           f"{workload}: same seed, same attempted and failed; attempted = distinct ops")
    expect(values(a) == values(b), f"{workload}: same seed, identical values")
    expect(counts(ma) == counts(mc), f"{workload}: other seed, same counts")
    exact = all(rec["exact"] for rec in run.op_records(a))
    if exact:
        expect(values(a) == values(c), f"{workload}: exact values do not depend on the seed")
    else:
        expect(values(a) != values(c), f"{workload}: other seed, other Monte-Carlo values")
    expect(a["round_path_steps"] == c["round_path_steps"], f"{workload}: same problem size")

    wall = ma["trace.wall_s"]
    named_self = sum(v for k, v in ma.items() if k.endswith(".self_s"))
    expect(math.isclose(named_self + ma["trace.unattributed_s"], wall, rel_tol=1e-9),
           f"{workload}: per-layer self times + unattributed = traced wall_s")
    expect(abs(ma["trace.unattributed_s"]) <= 0.01 * wall,
           f"{workload}: unattributed time {ma['trace.unattributed_s']:.2e} s <= 1% of wall")
    spans = {name for r in a["rounds"] for name in r.layers}
    reported = {span for span, _ in run.LAYER_METRICS.values()}
    expect(spans <= reported, f"{workload}: every span name has a per-layer metric")
    expect(not a["trace_missing"], f"{workload}: every entry point was traced")

    threads, nproc = a["provenance"]["process_threads"], os.cpu_count()
    expect(threads is not None and threads <= nproc, f"{workload}: {threads} threads <= nproc {nproc}")
    names = {m["name"] for m in spec["per_layer"]}
    expect(all(set(run.summarize(res)["metrics"]) == names for res in (a, b, c)),
           f"{workload}: traced result names every per_layer metric")
    a["trace"] = False
    line = run.summarize(a)
    expect(set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
           and all(m["value"] > 0 for m in line["metrics"].values()),
           f"{workload}: untraced result names every end_to_end metric, all nonzero")


def check_injected_reference() -> None:
    dm = run.import_library()
    for workload, bump in (("mc_tail", 0.05), ("exact_tail", 1e-9)):
        op = run.build_ops(dm, workload, 7)[0]
        ref = op.reference()
        good = run.run_round([op], [ref]).ops
        expect(not run.op_failed(good[0]), f"{workload}: true reference passes")
        wrong = [ref[0] * (1.0 + bump), *ref[1:]]
        bad = run.run_round([op], [wrong]).ops[0]
        expect(run.op_failed(bad) and run.op_incorrect(bad),
               f"{workload}: reference off by {bump:g} relative is flagged")
        first = [dict(good[0], values=[v * (1.0 + bump) for v in good[0]["values"]])]
        moved = run.run_round([op], [ref], first=first).ops[0]
        expect(run.op_failed(moved) and run.op_incorrect(moved),
               f"{workload}: a repeat whose output differs from the first run is flagged")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = run.load_benchmark_spec()
    check_injected_reference()
    for w in spec["workloads"]:
        check_workload(w["name"], spec)
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
