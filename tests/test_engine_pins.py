"""Recorded values of the complete-convergence sweep, the CLT diagnostics,
``demimart oracle``, exact folds over several enumeration blocks,
Monte-Carlo verdicts over several tiles and chunks and sampled paths,
pinned bit for bit.

``tests/data/engine_pins.json`` holds every float as ``float.hex``, the
oracle's standard output verbatim and the sha256 of each sampled matrix's
little-endian float64 bytes in row-major order.  Regenerate it only for a change that is
meant to move these numbers:

    PYTHONPATH=src python tests/test_engine_pins.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from demimart import (
    GeneratorSpec,
    bernoulli,
    capped,
    centered,
    clt_diagnose,
    complete_convergence_diagnose,
    deterministic,
    first_passage_down,
    first_passage_up,
    iid_spec,
    jump_if_high,
    rademacher,
    shared_shock_spec,
    to_chain,
    uniform,
    verify_detailed,
)
from demimart.cli import main
from demimart.core import CHUNK_PATHS, derive_stream, tile_paths
from demimart.generators import sample_final_sums, sample_paths
from demimart.oracle import iter_blocks
from demimart.registry import Instance, expectations, lookup

DATA = Path(__file__).resolve().parent / "data" / "engine_pins.json"

# (label, spec, r, epsilon, n_grid, paths, seed)
SWEEPS = (
    # continuous steps: no chain, every horizon is sampled
    ("mc-uniform", iid_spec(uniform(-1.0, 1.0), 4), 0.75, 0.5, (4, 8, 16), 20_000, 11),
    # lattice steps: every horizon folds the exact law of S_n
    ("exact-rademacher", iid_spec(rademacher(), 10), 0.75, 0.5, (10, 12, 16, 20), 20_000, 12),
    # 2^30 outcomes is above ENUMERATION_CAP, so this lattice horizon is sampled
    ("above-cap-rademacher", iid_spec(rademacher(), 30), 0.6, 0.5, (30,), 20_000, 13),
)

# (label, spec, n_grid, paths, seed)
CLTS = (
    ("iid-rademacher", iid_spec(rademacher(), 4), (4, 16, 64), 5_000, 3),
    (
        "moving-sum-uniform",
        GeneratorSpec("moving_sum", 4, law=uniform(-1.0, 1.0), weights=(1.0, 0.5)),
        (4, 16),
        5_000,
        4,
    ),
)

ORACLES = {
    "iid": "generator.family = iid\ngenerator.law = rademacher\n"
    "generator.horizon = 10\nparams.t = 2\n",
    "shared-shock-n20": "generator.family = shared_shock\ngenerator.base.law = rademacher\n"
    "generator.shock.law = rademacher\ngenerator.horizon = 20\nparams.t = 12\n",
    "alternating": "generator.family = adversarial_sign_flip\ngenerator.horizon = 5\n"
    "params.t = 1\n",
    "centered": "generator.family = centered_partial_sum\ngenerator.inner.family = iid\n"
    "generator.inner.law = bernoulli\ngenerator.inner.p = 0.3\ngenerator.horizon = 8\n"
    "params.t = 1\n",
}

# (label, theorem_id, spec, keyword arguments): exact verdicts whose folds run
# over several enumeration blocks, on Bernoulli(0.3) steps so that the values
# depend on the order of every product and sum
_CB18 = centered(iid_spec(bernoulli(0.3), 18))
_CB17 = centered(iid_spec(bernoulli(0.3), 17))
EXACT_FOLDS = (
    # 2^18 outcomes: four 65,536-outcome blocks
    ("l51-n18", "L5.1", _CB18, dict(rule=capped(first_passage_up(2.0), 18))),
    ("t14-n18", "T1.4", _CB18, dict(rule=first_passage_up(1.0), params={"n": 9, "m": 18})),
    # K = 18 statistics, whole 65,536-outcome blocks
    ("c22-n18", "C2.2", _CB18, dict(rule=first_passage_up(1.0))),
    # battery 32, K = 352 statistics: one 4,096-outcome tile per shared atom
    ("def12-n12", "Def1.2-demi", centered(shared_shock_spec(rademacher(), bernoulli(0.3), 12)), {}),
    # K = 416 statistics: two 8,192-outcome tiles
    ("def12-n14", "Def1.2-demi", centered(iid_spec(bernoulli(0.3), 14)), {}),
    # single-row stopped statistics, two whole 65,536-outcome blocks
    ("t31-n17", "T3.1", _CB17, dict(rule=capped(first_passage_up(1.0), 17))),
    ("c52-n17", "C5.2", _CB17, dict(rule=capped(first_passage_down(-1.0), 17))),
)

# (label, theorem_id, spec, paths, seed, keyword arguments): Monte-Carlo
# verdicts of the battery and stopped statistics, each over several tiles;
# statistics with K < 64 rows take whole chunks, so they run on two chunks.
# On a chain of at most CHUNK_PATHS outcomes the sampled outcomes are
# counted and each distinct path is evaluated once, weighted by its count
_RAD6 = iid_spec(rademacher(), 6)
# nonnegative steps, as C5.4 requires
_BER6 = iid_spec(bernoulli(0.3), 6)
MONTE_CARLO = (
    # K = 288 statistics; the 2^10 outcomes of CHUNK_PATHS + 3 sampled paths
    # are counted, and each distinct one is evaluated once in one tile
    ("def12-demi-rademacher", "Def1.2-demi", iid_spec(rademacher(), 10), CHUNK_PATHS + 3, 31, {}),
    # K = 18 x 16 = 288 per path: 2^17 outcomes is above CHUNK_PATHS, so
    # every sampled path is evaluated in 8,192-path tiles, ending in a
    # three-path tile of a second chunk
    (
        "def12-demi-rademacher-n17",
        "Def1.2-demi",
        iid_spec(rademacher(), 17),
        CHUNK_PATHS + 3,
        31,
        dict(params={"battery_size": 18}),
    ),
    ("def12-demisub-bernoulli", "Def1.2-demisub", iid_spec(bernoulli(0.3), 10), 20_000, 32, {}),
    ("def12-demi-uniform", "Def1.2-demi", iid_spec(uniform(-1.0, 1.0), 10), 20_000, 33, {}),
    ("t21-jump", "T2.1", _RAD6, CHUNK_PATHS + 3, 34, dict(rule=jump_if_high(2, 1.0, 3, 6))),
    (
        "t23-jump",
        "T2.3",
        _RAD6,
        CHUNK_PATHS + 3,
        35,
        dict(rule=jump_if_high(2, 1.0, 3, 6), rule2=deterministic(6)),
    ),
    (
        "c410-precheck",
        "C4.10",
        _RAD6,
        CHUNK_PATHS + 3,
        36,
        dict(rule=capped(first_passage_up(1.0), 6), params={"theta": 0.3}),
    ),
    (
        "l51-n20",
        "L5.1",
        iid_spec(rademacher(), 20),
        CHUNK_PATHS + 3,
        37,
        dict(rule=capped(first_passage_up(2.0), 20)),
    ),
    (
        "c22-moving-sum",
        "C2.2",
        centered(GeneratorSpec("moving_sum", 8, law=bernoulli(0.5), weights=(1.0, 0.5))),
        CHUNK_PATHS + 3,
        38,
        dict(rule=first_passage_up(1.0)),
    ),
    (
        "t14-n16",
        "T1.4",
        iid_spec(rademacher(), 16),
        CHUNK_PATHS + 3,
        39,
        dict(rule=first_passage_up(2.0), params={"n": 8, "m": 16}),
    ),
    # single-row stopped statistics g(tau, S_tau, S_1)
    (
        "t31-capped-up",
        "T3.1",
        _RAD6,
        CHUNK_PATHS + 3,
        41,
        dict(rule=capped(first_passage_up(1.0), 6)),
    ),
    (
        "t33-capped-down",
        "T3.3",
        _RAD6,
        CHUNK_PATHS + 3,
        42,
        dict(rule=capped(first_passage_down(-1.0), 6)),
    ),
    (
        "c52-bernoulli",
        "C5.2",
        _BER6,
        CHUNK_PATHS + 3,
        43,
        dict(rule=capped(first_passage_up(2.0), 6)),
    ),
    (
        "c54-bernoulli",
        "C5.4",
        _BER6,
        CHUNK_PATHS + 3,
        44,
        dict(rule=capped(first_passage_down(0.0), 6)),
    ),
    (
        "c55-bernoulli",
        "C5.5",
        _BER6,
        CHUNK_PATHS + 3,
        45,
        dict(rule=capped(first_passage_up(2.0), 6), params={"theta": 0.5}),
    ),
)

# (label, spec, paths, seed, chunk): sampled paths and final sums; a zero
# weight, float draws and a horizon above 8, where numpy's row sum depends on
# the memory order of the increments; Rademacher bits over two full 64-path
# blocks and a partial one, at a horizon past the uint8 bit count
SAMPLES = (
    (
        "moving-sum-uniform",
        GeneratorSpec("moving_sum", 12, law=uniform(-1.0, 1.0), weights=(1.0, 0.0, 0.5)),
        10_000,
        40,
        3,
    ),
    ("iid-rademacher-n300", iid_spec(rademacher(), 300), 130, 46, 5),
)


def _hex(x) -> str:
    return float(x).hex()


def _sweep(spec, r, eps, grid, paths, seed) -> dict:
    diag = complete_convergence_diagnose(spec, r, eps, list(grid), paths, seed)
    return {
        "records": [
            {
                "n": rec.n,
                "estimate": _hex(rec.estimate),
                "stderr": _hex(rec.stderr),
                "envelope": _hex(rec.envelope),
                "vn_over_nr": _hex(rec.vn_over_nr),
                "within_envelope": rec.within_envelope,
                "exact": rec.exact,
            }
            for rec in diag.tail_estimates
        ],
        "partial_sum": [_hex(x) for x in diag.partial_sum],
        "geometric_fit": _hex(diag.geometric_fit),
    }


def _clt(spec, grid, paths, seed) -> list[dict]:
    return [
        {
            "n": d.n,
            "sigma_n": _hex(d.sigma_n),
            "V_n": _hex(d.V_n),
            "ratio_cubed": _hex(d.ratio_cubed),
            "ks_distance": _hex(d.ks_distance),
            "ecf_distance": _hex(d.ecf_distance),
        }
        for d in clt_diagnose(spec, grid, paths, seed)
    ]


def _oracle(text: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "oracle.cfg"
        cfg.write_text("theorem_id = T4.7\nseed = 1\n" + text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["oracle", "--config", str(cfg)])
    assert code == 0
    return out.getvalue()


def _exact_fold(theorem_id, spec, kwargs) -> dict:
    report, results, _ = verify_detailed(theorem_id, spec, mode="exact", **kwargs)
    return {"verdict": report.verdict, "means": [_hex(r.stats.mean) for r in results]}


def _monte_carlo(theorem_id, spec, paths, seed, kwargs) -> dict:
    report, results, extras = verify_detailed(
        theorem_id, spec, mode="monte_carlo", paths=paths, seed=seed, **kwargs
    )
    entry = lookup(theorem_id)
    inst = Instance(
        spec, kwargs.get("rule"), kwargs.get("rule2"), dict(kwargs.get("params", {})), seed
    )
    # every row of an auxiliary checkset, averaged as verify_detailed does
    extra_stats = {
        name: expectations(spec, cs.evaluate, len(cs.metas), "monte_carlo", paths, seed)
        for name, cs in (entry.extra_checksets(inst) if entry.extra_checksets else {}).items()
    }
    return {
        "verdict": report.verdict,
        "means": [_hex(r.stats.mean) for r in results],
        "stderrs": [_hex(r.stats.stderr) for r in results],
        "verdicts": [r.verdict for r in results],
        "extras": {
            name: {
                "verdict": rep.verdict,
                "mean": _hex(rep.lhs.mean),
                "stderr": _hex(rep.lhs.stderr),
                "means": [_hex(st.mean) for st in extra_stats[name]],
                "stderrs": [_hex(st.stderr) for st in extra_stats[name]],
            }
            for name, rep in extras.items()
        },
    }


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def _samples(spec, paths, seed, chunk) -> dict:
    return {
        "paths": _digest(sample_paths(spec, paths, derive_stream(seed, chunk))),
        "final_sums": _digest(sample_final_sums(spec, paths, derive_stream(seed, chunk))),
    }


def capture() -> dict:
    return {
        "complete_convergence": {
            label: _sweep(spec, r, eps, grid, paths, seed)
            for label, spec, r, eps, grid, paths, seed in SWEEPS
        },
        "clt": {label: _clt(spec, grid, paths, seed) for label, spec, grid, paths, seed in CLTS},
        "oracle": {label: _oracle(text) for label, text in ORACLES.items()},
        "exact_folds": {
            label: _exact_fold(theorem_id, spec, kwargs)
            for label, theorem_id, spec, kwargs in EXACT_FOLDS
        },
        "monte_carlo": {
            label: _monte_carlo(theorem_id, spec, paths, seed, kwargs)
            for label, theorem_id, spec, paths, seed, kwargs in MONTE_CARLO
        },
        "samples": {
            label: _samples(spec, paths, seed, chunk) for label, spec, paths, seed, chunk in SAMPLES
        },
    }


def _recorded() -> dict:
    return json.loads(DATA.read_text())


def test_sweep_kinds_are_covered():
    recs = _recorded()["complete_convergence"]
    assert not any(r["exact"] for r in recs["mc-uniform"]["records"])
    assert all(r["exact"] for r in recs["exact-rademacher"]["records"])
    assert not any(r["exact"] for r in recs["above-cap-rademacher"]["records"])


def test_complete_convergence_is_bit_for_bit():
    want = _recorded()["complete_convergence"]
    for label, spec, r, eps, grid, paths, seed in SWEEPS:
        assert _sweep(spec, r, eps, grid, paths, seed) == want[label], label


def test_clt_diagnose_is_bit_for_bit():
    want = _recorded()["clt"]
    for label, spec, grid, paths, seed in CLTS:
        assert _clt(spec, grid, paths, seed) == want[label], label


def test_oracle_output_is_unchanged():
    want = _recorded()["oracle"]
    for label, text in ORACLES.items():
        assert _oracle(text) == want[label], label


def test_exact_folds_span_several_blocks():
    want = _recorded()["exact_folds"]
    for label, _, spec, _ in EXACT_FOLDS:
        block = tile_paths(len(want[label]["means"]))
        assert sum(1 for _ in iter_blocks(to_chain(spec), block)) >= 2, label


def test_exact_folds_are_bit_for_bit():
    want = _recorded()["exact_folds"]
    for label, theorem_id, spec, kwargs in EXACT_FOLDS:
        assert _exact_fold(theorem_id, spec, kwargs) == want[label], label


def test_exact_folds_do_not_depend_on_the_blas_thread_count():
    """T3.1 and C5.2 fold two 65,536-outcome blocks of one statistic row;
    OpenBLAS would split a dot of a whole block across threads, so each is
    folded in two processes, with one and two BLAS threads, to the same bits."""
    code = (
        "import test_engine_pins as t\n"
        "print([t._exact_fold(*case[1:]) for case in t.EXACT_FOLDS"
        " if case[0] in ('t31-n17', 'c52-n17')])"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            cwd=Path(__file__).resolve().parent,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", "2")
    ]
    outs = [run.communicate(timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outs[0] == outs[1]
    assert outs[0].count("means") == 2


def test_monte_carlo_verdicts_span_several_tiles():
    want = _recorded()["monte_carlo"]
    for label, _, _, paths, _, _ in MONTE_CARLO:
        assert paths > tile_paths(len(want[label]["means"])), label
    assert want["c410-precheck"]["extras"], "the precheck is pinned"


def test_monte_carlo_verdicts_are_bit_for_bit():
    want = _recorded()["monte_carlo"]
    for label, theorem_id, spec, paths, seed, kwargs in MONTE_CARLO:
        assert _monte_carlo(theorem_id, spec, paths, seed, kwargs) == want[label], label


def test_samples_are_bit_for_bit():
    want = _recorded()["samples"]
    for label, spec, paths, seed, chunk in SAMPLES:
        assert _samples(spec, paths, seed, chunk) == want[label], label


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_engine_pins.py --write")
    DATA.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
