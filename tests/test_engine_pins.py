"""Recorded values of the complete-convergence sweep, the CLT diagnostics and
``demimart oracle``, pinned bit for bit.

``tests/data/engine_pins.json`` holds every float as ``float.hex`` and the
oracle's standard output verbatim.  Regenerate it only for a change that is
meant to move these numbers:

    PYTHONPATH=src python tests/test_engine_pins.py --write
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from demimart import (
    GeneratorSpec,
    clt_diagnose,
    complete_convergence_diagnose,
    iid_spec,
    rademacher,
    uniform,
)
from demimart.cli import main

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
            "sigma_exact": d.sigma_exact,
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


def capture() -> dict:
    return {
        "complete_convergence": {
            label: _sweep(spec, r, eps, grid, paths, seed)
            for label, spec, r, eps, grid, paths, seed in SWEEPS
        },
        "clt": {label: _clt(spec, grid, paths, seed) for label, spec, grid, paths, seed in CLTS},
        "oracle": {label: _oracle(text) for label, text in ORACLES.items()},
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_engine_pins.py --write")
    DATA.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
