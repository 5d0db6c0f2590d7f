"""Verdict benchmark for demimart: one workload per process.

    python3 bench/run.py --workload mc_tail --seed 1 --seconds 20 --trace 0

A run imports the library from ``src/`` of the checkout it sits in, builds
the workload's verdict calls (its ops) once from ``--seed``, and repeats
rounds of the same ops until ``--seconds`` have passed (at least one round;
with ``--trace 1`` at least one untraced and one traced round, alternating).
Every output is checked against an independent reference computed outside
the timed calls, and every repeat of an op must give the same output as its
first run.

With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer metrics, from spans recorded by wrapping
the library's public entry points (see ``tracing.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details (provenance, every op's verdict and
misses, and in traced runs every span) go to ``bench/out/``.

An op is one verdict call with its own seed; ``attempted`` counts the
run's distinct ops, so that it and ``failed`` depend on ``--seed`` only, not
on how many rounds fit in ``--seconds``.  An op *fails* when a run of it
raises or when its output misses its reference: a value outside 5 stderr
(Monte Carlo) or 1e-12 relative (exact) of the reference, or a verdict
other than the expected one.  ``correct`` is false when an op raised, a value missed, or an exact
verdict missed; a Monte-Carlo verdict that misses (the battery's known false
FAIL) counts in ``failed`` only, since it is the harness's statistical gate
at work, not a wrong number.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import tracing

# One BLAS thread: on a few shared cores a second OpenBLAS thread mostly
# spins (CPU time doubles on exact_tail for no wall-time gain) and makes the
# timings depend on the neighbours' load.  Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Set-up samples: before the warm-up, and after every timed round, so that
# their median spans the run like the rounds do (the host's speed drifts
# over seconds, and one burst of samples would catch a single phase of it).
SETUP_FIRST = 9
SETUP_PER_ROUND = 2
MC_Z = 5.0
EXACT_REL = 1e-12


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def rademacher_sum_prob(n: int, event: Callable[[int], bool]) -> Fraction:
    """P(event(B_n)) for B_n a sum of n Rademacher steps, B_n = 2K - n."""
    hits = sum(math.comb(n, k) for k in range(n + 1) if event(2 * k - n))
    return Fraction(hits, 2**n)


def shared_shock_prob(n: int, event: Callable[[int], bool]) -> Fraction:
    """P(event(S_n)) for S_n = B_n + n W, one Rademacher shock W per path."""
    return sum(
        (Fraction(1, 2) * rademacher_sum_prob(n, lambda b, w=w: event(b + n * w)) for w in (-1, 1)),
        Fraction(0),
    )


def moving_sum_c22_reference(n: int, weights: tuple[float, float], threshold: float) -> list[float]:
    """E[S_j - S_(tau^j)], j = 1..n, for centered X_i = w0 Y_(i+1) + w1 Y_i
    over Bernoulli(1/2) draws Y, tau the first passage of S above threshold,
    by direct enumeration of all 2^(n+1) draw vectors."""
    import numpy as np

    m = n + 1
    idx = np.arange(2**m)
    y = ((idx[:, None] >> np.arange(m)[None, :]) & 1).astype(np.float64)
    x = weights[0] * y[:, 1:] + weights[1] * y[:, :-1] - 0.5 * sum(weights)
    s = np.cumsum(x, axis=1)
    hit = s >= threshold
    tau = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, n + 1)
    rows = np.arange(s.shape[0])
    return [float(np.mean(s[:, j - 1] - s[rows, np.minimum(tau, j) - 1])) for j in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One verdict call, its problem size, and how to check its output."""

    label: str
    seed: int
    exact: bool
    run: Callable[[], object]
    outcomes: int  # sampled paths, or the enumerated problem's outcome count
    path_steps: int  # outcomes x horizon
    reference: Callable[[], object]  # untimed; cached per run by ref_key
    ref_key: str
    check: Callable[[object, object], tuple[list[str], str | None]]


def op_seed(seed: int, slot: int) -> int:
    import numpy as np

    ss = np.random.SeedSequence([seed, slot])
    return int(ss.generate_state(1, np.uint64)[0])


def _check_values(results, refs, exact: bool) -> list[str]:
    misses = []
    if len(results) != len(refs):
        return [f"{len(results)} checks, expected {len(refs)}"]
    for r, ref in zip(results, refs):
        value, se = r.stats.mean, r.stats.stderr
        if exact:
            ok = se == 0.0 and abs(value - ref) <= EXACT_REL * abs(ref)
        else:
            ok = math.isfinite(se) and abs(value - ref) <= MC_Z * se + EXACT_REL * max(1.0, abs(ref))
        if not ok:
            misses.append(f"{r.name}: {value!r} +- {se!r} vs reference {ref!r}")
    return misses


def _verify_check(exact: bool, expected: str):
    def check(out, refs):
        report, results, _ = out
        misses = _check_values(results, refs, exact)
        if report.exact != exact:
            misses.append(f"report.exact is {report.exact}")
        verdict_miss = None
        if report.verdict != expected:
            verdict_miss = f"verdict {report.verdict}, expected {expected}"
        return misses, verdict_miss

    return check


def _verify_op(dm, label, theorem, spec, *, seed, mode, paths=0, rule=None, params=None,
               reference, ref_key, expected="PASS") -> Op:
    exact = mode == "exact"
    if exact:
        outcomes = dm.to_chain(spec).outcome_count
    else:
        outcomes = paths
    return Op(
        label=label,
        seed=seed,
        exact=exact,
        run=lambda: dm.verify_detailed(
            theorem, spec, rule=rule, params=params, mode=mode, paths=paths, seed=seed
        ),
        outcomes=outcomes,
        path_steps=outcomes * spec.horizon,
        reference=reference,
        ref_key=ref_key,
        check=_verify_check(exact, expected),
    )


def _zeros(count: int):
    return lambda: [0.0] * count


def _library_exact(dm, theorem, spec, rule, params, seed):
    def reference():
        _, results, _ = dm.verify_detailed(
            theorem, spec, rule=rule, params=params, mode="exact", seed=seed
        )
        return [r.stats.mean for r in results]

    return reference


def _mc_tail(dm, seeds):
    spec = dm.iid_spec(dm.rademacher(), 100)
    t = 10

    def reference():
        return [
            float(rademacher_sum_prob(100, lambda b: b >= t)),
            float(rademacher_sum_prob(100, lambda b: abs(b) >= t)),
        ]

    return [
        _verify_op(dm, "T4.7 iid rademacher n=100", "T4.7", spec, seed=s,
                   mode="monte_carlo", paths=524_288, params={"t": float(t)},
                   reference=reference, ref_key="T4.7")
        for s in seeds
    ]


def _mc_battery(dm, seeds):
    spec = dm.iid_spec(dm.rademacher(), 10)
    # iid Rademacher is a martingale: every battery statistic has mean 0
    return [
        _verify_op(dm, "Def1.2-demi iid rademacher n=10", "Def1.2-demi", spec, seed=s,
                   mode="monte_carlo", paths=131_072, params={"battery_size": 32},
                   reference=_zeros(9 * 32), ref_key="Def1.2-zeros")
        for s in seeds
    ]


def _mc_stopped(dm, seeds):
    paths = 1 << 20
    bern = dm.iid_spec(dm.bernoulli(0.5), 12)
    jump = dm.jump_if_high(3, 2.0, 4, 12)
    walk20 = dm.iid_spec(dm.rademacher(), 20)
    capped = dm.capped(dm.first_passage_up(2.0), 20)
    moving = dm.centered(
        dm.GeneratorSpec("moving_sum", 8, law=dm.bernoulli(0.5), weights=(1.0, 0.5))
    )
    up1 = dm.first_passage_up(1.0)
    walk16 = dm.iid_spec(dm.rademacher(), 16)
    up2 = dm.first_passage_up(2.0)
    t14 = {"n": 8, "m": 16}
    s0, s1, s2, s3 = seeds
    return [
        # the battery follows the op seed, so the exact reference does too
        _verify_op(dm, "T2.1 jump_if_high bernoulli n=12", "T2.1", bern, seed=s0,
                   mode="monte_carlo", paths=paths, rule=jump,
                   reference=_library_exact(dm, "T2.1", bern, jump, None, s0),
                   ref_key=f"T2.1-exact-{s0}"),
        _verify_op(dm, "L5.1 capped up(2) rademacher n=20", "L5.1", walk20, seed=s1,
                   mode="monte_carlo", paths=paths, rule=capped,
                   reference=_library_exact(dm, "L5.1", walk20, capped, None, 0),
                   ref_key="L5.1-exact"),
        _verify_op(dm, "C2.2 up(1) centered moving sum n=8", "C2.2", moving, seed=s2,
                   mode="monte_carlo", paths=paths, rule=up1,
                   reference=lambda: moving_sum_c22_reference(8, (1.0, 0.5), 1.0),
                   ref_key="C2.2-enum"),
        # iid Rademacher is a martingale: both T1.4 statistics have mean 0
        _verify_op(dm, "T1.4 up(2) rademacher n=16", "T1.4", walk16, seed=s3,
                   mode="monte_carlo", paths=paths, rule=up2, params=t14,
                   reference=_zeros(2), ref_key="T1.4-zeros"),
    ]


def _cc_check(grid):
    def check(out, refs):
        misses = []
        recs = out.tail_estimates
        if [rec.n for rec in recs] != list(grid):
            return [f"horizons {[rec.n for rec in recs]}"], None
        for rec, ref in zip(recs, refs):
            if not (rec.exact and rec.stderr == 0.0 and abs(rec.estimate - ref) <= EXACT_REL * ref):
                misses.append(f"n={rec.n}: {rec.estimate!r} (exact={rec.exact}) vs {ref!r}")
        verdict_miss = None
        if not all(rec.within_envelope for rec in recs):
            verdict_miss = "a tail left its envelope"
        return misses, verdict_miss

    return check


def _exact_tail(dm, seeds):
    rad = dm.rademacher()
    n, t = 20, 12
    shock = dm.shared_shock_spec(rad, rad, n)

    def shock_reference():
        return [
            float(shared_shock_prob(n, lambda s: s >= t)),
            float(shared_shock_prob(n, lambda s: abs(s) >= t)),
        ]

    grid, r, eps = (20, 22), 0.75, 0.5
    walk = dm.iid_spec(rad, grid[0])

    def cc_reference():
        # same float threshold as the library: n^r * eps
        return [
            float(rademacher_sum_prob(k, lambda b, thr=float(k**r * eps): abs(b) >= thr))
            for k in grid
        ]

    chains = [dm.to_chain(dm.iid_spec(rad, k)).outcome_count for k in grid]
    cc_seed = seeds[1]
    return [
        # designed FAIL: shared shocks make E S_n^2 grow like n^2
        _verify_op(dm, "T5.6 exact shared shock n=20 t=12", "T5.6", shock, seed=seeds[0],
                   mode="exact", params={"t": float(t)}, reference=shock_reference,
                   ref_key="T5.6-closed-form", expected="FAIL"),
        Op(
            label="complete convergence r=0.75 eps=0.5 n=20,22",
            seed=cc_seed,
            exact=True,
            run=lambda: dm.complete_convergence_diagnose(
                walk, r, eps, list(grid), paths=1 << 16, seed=cc_seed
            ),
            outcomes=sum(chains),
            path_steps=sum(c * k for c, k in zip(chains, grid)),
            reference=cc_reference,
            ref_key="cc-closed-form",
            check=_cc_check(grid),
        ),
    ]


@dataclass(frozen=True)
class Workload:
    """How the workload's ops are built and what the workload decides;
    its one-line why is in BENCHMARK.json."""

    build: Callable  # (dm, one seed per op) -> the run's ops
    slots: int  # ops per round
    judges: str  # the ROADMAP items this workload decides
    # layer map: (layers, "min" or "max", share of the traced wall time)
    split: tuple[tuple[tuple[str, ...], str, float], ...]


WORKLOADS = {
    "mc_tail": Workload(
        build=_mc_tail,
        slots=4,
        judges="thread-parallel chunks (item 1); a Rademacher-only draw change, "
        "judged against mc_stopped",
        split=(
            (("generators.draw", "generators.partial_sum"), "min", 0.80),
            (("monotone.evaluate_batch", "monotone.certify"), "max", 0.05),
        ),
    ),
    "mc_battery": Workload(
        build=_mc_battery,
        slots=4,
        judges="item 2 (time-major battery, vectorized reduction); thread-parallel "
        "chunks; no-change control for generator work",
        split=((("monotone.evaluate_batch", "core.reduce"), "min", 0.70),),
    ),
    "mc_stopped": Workload(
        build=_mc_stopped,
        slots=4,
        judges="thread-parallel chunks; guards stopped statistics against battery- "
        "or Rademacher-tuned changes",
        split=((("stopping.tau_batch", "registry.statistic"), "min", 0.30),),
    ),
    "exact_tail": Workload(
        build=_exact_tail,
        slots=2,
        judges="item 4 (exact lattice oracle); no-change control for every MC change",
        split=(
            (("oracle.enumerate",), "min", 0.70),
            (("monotone.evaluate_batch", "monotone.certify"), "max", 0.05),
        ),
    ),
}



def build_ops(dm, workload: str, seed: int) -> list[Op]:
    w = WORKLOADS[workload]
    return w.build(dm, [op_seed(seed, i) for i in range(w.slots)])


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def import_library():
    """Fresh import of demimart from this checkout's src/ (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "demimart" or m.startswith("demimart.")]:
        del sys.modules[name]
    dm = importlib.import_module("demimart")
    if not Path(dm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"demimart imported from {dm.__file__}, not {SRC}")
    return dm


def measure_setup(workload: str, seed: int, repeats: int, times: list[float]) -> list[Op]:
    """Time ``repeats`` fresh imports plus op construction into ``times``;
    return the last import's ops."""
    for _ in range(repeats):
        t0 = time.perf_counter()
        dm = import_library()
        ops = build_ops(dm, workload, seed)
        times.append(time.perf_counter() - t0)
    return ops


def library_modules() -> dict:
    return {name: m for name, m in sys.modules.items()
            if name == "demimart" or name.startswith("demimart.")}


@dataclass
class RoundResult:
    traced: bool
    wall_s: float
    cpu_s: float
    ops: list[dict] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def run_round(ops: list[Op], refs: list, tracer=None, op_base: int = 0,
              first: list[dict] | None = None) -> RoundResult:
    """Time the ops' calls (and nothing else), then check every output against
    its reference and, given the records ``first`` of an earlier round of the
    same ops, against that round's output."""
    outs, errors, times = [], [], []
    cpu0 = time.process_time()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op_base + i
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception:  # a failed op is reported, not fatal
            out, err = None, traceback.format_exc()
        times.append(time.perf_counter() - t0)
        outs.append(out)
        errors.append(err)
    cpu = time.process_time() - cpu0
    result = RoundResult(traced=tracer is not None, wall_s=math.fsum(times), cpu_s=cpu)
    for slot, (op, ref, out, err, t) in enumerate(zip(ops, refs, outs, errors, times)):
        rec = {"slot": slot, "label": op.label, "seed": op.seed, "exact": op.exact,
               "wall_s": t, "error": err}
        if err is None:
            misses, verdict_miss = op.check(out, ref)
            rec["verdict"], rec["values"] = _summary(out)
            if first is not None and first[slot]["error"] is None and (
                (rec["verdict"], rec["values"]) != (first[slot]["verdict"], first[slot]["values"])
            ):
                misses.append("output differs from the first run of this op")
            rec["misses"] = misses
            rec["verdict_miss"] = verdict_miss
        result.ops.append(rec)
    return result


def _summary(out) -> tuple[str, list[float]]:
    """Verdict and estimated values of a verify_detailed or diagnostics output."""
    if isinstance(out, tuple):
        return out[0].verdict, [r.stats.mean for r in out[1]]
    recs = out.tail_estimates
    verdict = "within envelope" if all(r.within_envelope for r in recs) else "outside"
    return verdict, [r.estimate for r in recs]


def op_failed(rec: dict) -> bool:
    return rec["error"] is not None or bool(rec["misses"]) or rec["verdict_miss"] is not None


def op_incorrect(rec: dict) -> bool:
    """A raised error, a value off its reference, or a wrong exact verdict."""
    if rec["error"] is not None or rec["misses"]:
        return True
    return rec["exact"] and rec["verdict_miss"] is not None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, then run rounds for ``seconds``; return metrics and details."""
    import numpy  # noqa: F401  (a dependency, loaded before set-up is timed)

    load_start = os.getloadavg()
    setup_all: list[float] = []
    ops = measure_setup(workload, seed, SETUP_FIRST, setup_all)
    run_modules = library_modules()
    ref_cache: dict[str, object] = {}
    for op in ops:
        if op.ref_key not in ref_cache:
            ref_cache[op.ref_key] = op.reference()
    refs = [ref_cache[op.ref_key] for op in ops]
    rounds: list[RoundResult] = []
    missing: list[str] = []

    def one_round(k: int, traced: bool = False, first=None) -> RoundResult:
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            missing[:] = tracer.install()
        try:
            res = run_round(ops, refs, tracer, op_base=k * len(ops), first=first)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            res.layers = tracing.layer_totals(tracer.spans)
            res.spans = tracer.spans
        return res

    # Round 0 is an untimed warm-up (its outputs are still checked): the
    # first calls of a process run measurably slower while the allocator's
    # heap and thresholds grow to the workload's array sizes.
    warmup = one_round(0)
    t_start = time.perf_counter()
    k = 1
    while True:
        rounds.append(one_round(k, traced=trace and k % 2 == 0, first=warmup.ops))
        k += 1
        # the ops and the tracer keep using the run's own library modules
        measure_setup(workload, seed, SETUP_PER_ROUND, setup_all)
        for name in library_modules():
            del sys.modules[name]
        sys.modules.update(run_modules)
        gc.collect()  # the discarded imports, collected outside the timed calls
        if time.perf_counter() - t_start >= seconds and (not trace or len(rounds) >= 2):
            break
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_s": statistics.median(setup_all),
        "setup_samples_s": setup_all,
        "round_outcomes": sum(op.outcomes for op in ops),
        "round_path_steps": sum(op.path_steps for op in ops),
        "warmup": warmup,
        "rounds": rounds,
        "trace_missing": missing,
        "provenance": provenance(load_start),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# per-layer metric name -> (span name, key in that span's totals)
LAYER_METRICS = {
    "core.derive_stream.calls": ("core.derive_stream", "calls"),
    "core.derive_stream.self_s": ("core.derive_stream", "self_s"),
    "core.reduce.calls": ("core.reduce", "calls"),
    "core.reduce.self_s": ("core.reduce", "self_s"),
    "generators.draw.calls": ("generators.draw", "calls"),
    "generators.draw.self_s": ("generators.draw", "self_s"),
    "generators.draw.values": ("generators.draw", "values"),
    "generators.partial_sum.self_s": ("generators.partial_sum", "self_s"),
    "generators.partial_sum.bytes_computed": ("generators.partial_sum", "bytes_computed"),
    "monotone.evaluate_batch.calls": ("monotone.evaluate_batch", "calls"),
    "monotone.evaluate_batch.self_s": ("monotone.evaluate_batch", "self_s"),
    "monotone.evaluate_batch.elements": ("monotone.evaluate_batch", "elements"),
    "monotone.certify.self_s": ("monotone.certify", "self_s"),
    "monotone.certify.probes": ("monotone.certify", "probes"),
    "stopping.tau_batch.calls": ("stopping.tau_batch", "calls"),
    "stopping.tau_batch.self_s": ("stopping.tau_batch", "self_s"),
    "registry.statistic.calls": ("registry.statistic", "calls"),
    "registry.statistic.self_s": ("registry.statistic", "self_s"),
    "registry.checks": ("registry.driver", "checks"),
    "registry.driver.calls": ("registry.driver", "calls"),
    "registry.driver.self_s": ("registry.driver", "self_s"),
    "oracle.enumerate.self_s": ("oracle.enumerate", "self_s"),
    "oracle.enumerate.blocks": ("oracle.enumerate", "blocks"),
    "oracle.enumerate.outcomes": ("oracle.enumerate", "outcomes"),
    "oracle.fold.self_s": ("oracle.fold", "self_s"),
    "asymptotics.self_s": ("asymptotics", "self_s"),
}


def compute_metrics(res: dict) -> dict[str, float]:
    rounds = res["rounds"]
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    if not res["trace"]:
        # each op's median over the timed rounds, summed over the ops
        wall = math.fsum(
            statistics.median(r.ops[slot]["wall_s"] for r in plain)
            for slot in range(len(plain[0].ops))
        )
        return {
            "wall_s": wall,
            "setup_s": res["setup_s"],
            "path_steps_per_s": res["round_path_steps"] / wall,
            "outcomes_per_s": res["round_outcomes"] / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    # per traced round, averaged, so that layer self times add up to the wall
    n = len(traced)
    metrics = {}
    for name, (span, key) in LAYER_METRICS.items():
        metrics[name] = sum(r.layers.get(span, {}).get(key, 0) for r in traced) / n
    traced_wall = sum(r.wall_s for r in traced) / n
    plain_wall = sum(r.wall_s for r in plain) / len(plain)
    self_total = sum(
        entry["self_s"] for r in traced for entry in r.layers.values()
    ) / n
    metrics["process.cpu_s"] = sum(r.cpu_s for r in plain) / len(plain)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = plain_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.unattributed_s"] = traced_wall - self_total
    return metrics


def split_checks(workload: str, per_layer: dict[str, float]) -> list[dict]:
    """The workload's layer map, checked against a traced run's self times."""
    wall = per_layer["trace.wall_s"]
    checks = []
    for layers, kind, limit in WORKLOADS[workload].split:
        share = sum(per_layer[f"{name}.self_s"] for name in layers) / wall
        ok = share >= limit if kind == "min" else share <= limit
        checks.append({"layers": list(layers), kind: limit, "share": share, "ok": ok})
    return checks


def op_records(res: dict) -> list[dict]:
    """Every op run, the warm-up round included."""
    return [rec for r in [res["warmup"], *res["rounds"]] for rec in r.ops]


def distinct_ops(res: dict) -> list[list[dict]]:
    """The records of every run of each distinct op, by slot."""
    return [[r.ops[slot] for r in [res["warmup"], *res["rounds"]]]
            for slot in range(len(res["warmup"].ops))]


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(res: dict) -> dict:
    """The result line: every metric of the requested kind, by name, with unit."""
    spec = load_benchmark_spec()
    wanted = spec["per_layer"] if res["trace"] else spec["end_to_end"]
    values = compute_metrics(res)
    by_op = distinct_ops(res)
    return {
        "correct": not any(op_incorrect(rec) for runs in by_op for rec in runs),
        "attempted": len(by_op),
        "failed": sum(any(op_failed(rec) for rec in runs) for runs in by_op),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of this checkout, read from its own .git (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def blas_info() -> dict:
    """OpenBLAS version and thread count, asked of the loaded library."""
    import ctypes

    import numpy as np

    info = {"blas": None, "blas_threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(p for p in libs if p.startswith("/")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def process_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def provenance(load_start) -> dict:
    import numpy as np

    info = {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "load_avg_start": list(load_start),
        "load_avg_end": list(os.getloadavg()),
        "process_threads": process_threads(),
    }
    info.update(blas_info())
    return info


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def write_details(res: dict, line: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{res['workload']}-seed{res['seed']}-trace{int(res['trace'])}.json"
    rounds = [
        {"traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "ops": r.ops,
         "layers": r.layers, "spans": r.spans}
        for r in res["rounds"]
    ]
    detail = {k: v for k, v in res.items() if k not in ("rounds", "warmup")}
    detail.update(result=line, warmup_ops=res["warmup"].ops, rounds=rounds,
                  span_fields=["name", "start", "end", "parent", "op", "counts"])
    path.write_text(json.dumps(detail))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")
    if not (SRC / "demimart" / "__init__.py").is_file():
        print(f"error: no demimart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = summarize(res)
    prov = res["provenance"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(res['rounds'])} rounds, {line['attempted']} ops, {line['failed']} failed")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    if prov["process_threads"] and prov["nproc"] and prov["process_threads"] > prov["nproc"]:
        print(f"# warning: {prov['process_threads']} threads > nproc {prov['nproc']}")
    for name in res["trace_missing"]:
        print(f"# warning: entry point for {name} not found; layer not traced")
    for runs in distinct_ops(res):
        rec = next((rec for rec in runs if op_failed(rec)), None)
        if rec is not None:
            why = rec["error"] or "; ".join(rec["misses"] + [rec["verdict_miss"] or ""])
            print(f"# failed op: {rec['label']} seed {rec['seed']}: {why.strip()}")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("# details " + str(write_details(res, line).relative_to(ROOT)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
