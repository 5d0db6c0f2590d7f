"""Run every workload of BENCHMARK.json, untraced and traced, each in its
own process; print every metric by name with its unit, check each traced
layer map, and write the results to ``bench/BENCH_<label>.json``.

    python3 bench/run_all.py --label baseline [--seed 1] [--seconds 20]

Exits 1 when a run fails, an output misses its reference (``correct`` is
false), or a layer map does not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

PER_RUN_TIMEOUT_S = 600


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=PER_RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("# failed op") or line.startswith("# warning"):
            print(f"  {workload} trace {trace}: {line[2:]}")
    detail_line = next(line for line in lines if line.startswith("# details "))
    detail = json.loads((run.ROOT / detail_line.split(" ", 2)[2]).read_text())
    return json.loads(lines[-1]), detail


def main(argv=None) -> int:
    spec = run.load_benchmark_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="run")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    ok = True
    report = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
              "command": spec["command"], "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        e2e, e2e_detail = run_one(name, args.seed, args.seconds, 0)
        layer, layer_detail = run_one(name, args.seed, args.seconds, 1)
        per_layer = {k: m["value"] for k, m in layer["metrics"].items()}
        splits = run.split_checks(name, per_layer)
        entry = {
            "why": w["why"],
            "judges": run.WORKLOADS[name].judges,
            "layer_map": splits,
            "correct": e2e["correct"] and layer["correct"],
            "attempted": e2e["attempted"] + layer["attempted"],
            "failed": e2e["failed"] + layer["failed"],
            "rounds": {"untraced": len(e2e_detail["rounds"]), "traced": len(layer_detail["rounds"])},
            "end_to_end": e2e["metrics"],
            "per_layer": layer["metrics"],
            "provenance": e2e_detail["provenance"],
        }
        report["workloads"][name] = entry
        ok = ok and entry["correct"] and all(c["ok"] for c in splits)

        print(f"{name}: {entry['attempted']} ops, {entry['failed']} failed, "
              f"correct={entry['correct']}")
        for metric, m in {**e2e["metrics"], **layer["metrics"]}.items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        for c in splits:
            bound = f">= {c['min']}" if "min" in c else f"<= {c['max']}"
            print(f"  layer map {' + '.join(c['layers'])}: {c['share']:.1%} "
                  f"(want {bound}) {'ok' if c['ok'] else 'MISSED'}")

    out = run.BENCH_DIR / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.relative_to(run.ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
