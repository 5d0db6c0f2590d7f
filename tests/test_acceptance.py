"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure).  Tolerances are pinned here, not calibrated elsewhere: exact
checks at relative 1e-12, Monte-Carlo agreement at 4 stderr, verdict gates
at 3 stderr.
"""

import json
import math
import os
import re
import time

import numpy as np
import pytest

from demimart import (
    PreconditionError,
    bernstein_tail,
    capped,
    centered,
    check_definition,
    clt_diagnose,
    complete_convergence_diagnose,
    deterministic,
    first_passage_down,
    first_passage_up,
    h1,
    h1_lower,
    iid_spec,
    jump_if_high,
    ks_critical_value,
    ks_distance_to_normal,
    phi,
    phi_bound,
    psi_sup,
    rademacher,
    bernoulli,
    ratio_cubed_decreasing,
    shared_shock_spec,
    to_chain,
    verify,
    verify_detailed,
)
from demimart.core import derive_stream
from demimart.generators import adversarial_spec
from demimart.monotone import (
    COUNTEREXAMPLE,
    MonotoneTestFunction,
    certify_indicator_monotonicity,
    evaluate_batch,
    sample_battery,
)
from demimart.oracle import fold_expectations
from demimart.cli import config_from_dict, parse_config_text, report_dict, run

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _clockbox(limit_s: float):
    start = time.perf_counter()

    def finish(num: int, desc: str):
        elapsed = time.perf_counter() - start
        print(f"[PASS] criterion {num}: {desc} ({elapsed:.2f}s < {limit_s:g}s)")
        assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s ({elapsed:.2f}s)"

    return finish


def test_criterion_01_analytic_lemma_suite():
    finish = _clockbox(1.0)
    u = 3.0 * np.arange(1, 10_001) / 10_001
    rel = (phi_bound(u) - phi(u)) / phi_bound(u)
    assert rel.min() >= -1e-12

    v = np.linspace(0.0, 1e3, 10_001)
    rel = (h1(v) - h1_lower(v)) / np.maximum(h1_lower(v), 1e-30)
    assert rel.min() >= -1e-12

    rng = derive_stream(2026, 0)
    t = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=1000))
    vv = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=1000))
    cc = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=1000))
    for i in range(1000):
        lower = t[i] ** 2 / (2.0 * (vv[i] + t[i] * cc[i] / 3.0))
        assert (psi_sup(t[i], vv[i], cc[i]) - lower) / lower >= -1e-12
    finish(1, "phi/h1/psi_sup dominate their closed-form comparators")


def _projections(n, battery):
    """(S_{j+1} - S_j) f(S_1..S_j) for every j < n and battery member f."""
    return lambda p: [
        (p[:, j] - p[:, j - 1]) * evaluate_batch(f, p[:, :j])
        for j in range(1, n)
        for f in battery
    ]


def test_criterion_02_definition_check_exact():
    finish = _clockbox(10.0)
    full = sample_battery(2026, 32, require_nonnegative=False)
    nonneg = sample_battery(2026, 32, require_nonnegative=True)
    assert len(full) >= 32 and len(nonneg) >= 32

    cases = [
        (lambda n: iid_spec(rademacher(), n), full),          # mean zero, any f
        (lambda n: iid_spec(rademacher(), n), nonneg),
        (lambda n: iid_spec(bernoulli(0.5), n), nonneg),      # nonneg mean, f >= 0
        (lambda n: centered(iid_spec(bernoulli(0.5), n)), full),
    ]
    for make, battery in cases:
        for n in range(2, 11):
            values = fold_expectations(to_chain(make(n)), _projections(n, battery))
            assert len(values) == (n - 1) * len(battery)
            assert min(values) >= -1e-12

    last = MonotoneTestFunction("last_coordinate")
    (value,) = fold_expectations(to_chain(adversarial_spec(4)), _projections(2, [last]))
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert value < 0
    finish(2, "exact projection battery on n <= 10 chains; sign-flip control at -1")


def test_criterion_03_optional_sampling_exact():
    finish = _clockbox(30.0)
    report = verify(
        "T3.1",
        iid_spec(rademacher(), 3),
        rule=capped(first_passage_up(1.0), 3),
        mode="exact",
        seed=2026,
    )
    assert report.verdict == "PASS"
    assert report.lhs.mean == pytest.approx(0.0, abs=1e-12)  # E S_(tau^3) = E S_1

    for h in range(2, 9):
        for lam in (1.0, 2.0):
            up = first_passage_up(lam)
            rad = iid_spec(rademacher(), h)
            r = verify("T1.4", rad, rule=up, params={"n": max(1, h // 2), "m": h},
                       mode="exact", seed=2026)
            assert r.verdict == "PASS", ("T1.4 up", h, lam)
            r = verify("C2.2", rad, rule=up, mode="exact", seed=2026)
            assert r.verdict == "PASS", ("C2.2 up", h, lam)

            down = first_passage_down(lam)
            bern = iid_spec(bernoulli(0.5), h)
            r = verify("T1.4", bern, rule=down, params={"n": max(1, h // 2), "m": h},
                       mode="exact", seed=2026)
            assert r.verdict == "PASS", ("T1.4 down", h, lam)
            # C2.2's claim does not reverse for a nonincreasing rule: refused
            with pytest.raises(PreconditionError) as err:
                verify("C2.2", bern, rule=down, mode="exact", seed=2026)
            assert err.value.name == "stopping.direction", ("C2.2 down", h, lam)

    for h in range(2, 9):
        for lam in (0.0, 1.0):
            r = verify(
                "T3.3",
                iid_spec(bernoulli(0.5), h),
                rule=capped(first_passage_down(lam), h),
                mode="exact",
                seed=2026,
            )
            assert r.verdict == "PASS", ("T3.3", h, lam)
    finish(3, "stopped-mean orderings exact on all n <= 8 chains")


def _agreement_pairs():
    rad3 = iid_spec(rademacher(), 3)
    rad6 = iid_spec(rademacher(), 6)
    rad12 = iid_spec(rademacher(), 12)
    bern6 = iid_spec(bernoulli(0.5), 6)
    bern8 = iid_spec(bernoulli(0.5), 8)
    cbern6 = centered(iid_spec(bernoulli(0.5), 6))
    shock = shared_shock_spec(rademacher(), rademacher(), 10)
    small_battery = {"battery_size": 8}
    return [
        ("Def1.2-demi", rad6, dict(params=small_battery)),
        ("Def1.2-demi", cbern6, dict(params=small_battery)),
        ("Def1.2-demisub", bern6, dict(params=small_battery)),
        ("Def1.2-demi", shared_shock_spec(rademacher(), rademacher(), 4),
         dict(params=small_battery)),
        ("T1.4", rad6, dict(rule=first_passage_up(1.0), params={"n": 3, "m": 6})),
        ("T1.4", bern6, dict(rule=first_passage_down(0.0), params={"n": 3, "m": 6})),
        ("T2.1", bern6, dict(rule=deterministic(4), params=small_battery)),
        ("T2.1", rad6, dict(rule=jump_if_high(2, 1.0, 3, 6), params=small_battery)),
        ("C2.2", rad6, dict(rule=capped(first_passage_up(1.0), 6))),
        ("C2.2", bern6, dict(rule=first_passage_up(3.0))),
        ("T2.3", rad6, dict(rule=deterministic(2), rule2=deterministic(5),
                            params=small_battery)),
        ("T2.3", rad6, dict(rule=jump_if_high(2, 1.0, 3, 6), rule2=deterministic(6),
                            params=small_battery)),
        ("T3.1", rad3, dict(rule=capped(first_passage_up(1.0), 3))),
        ("T3.1", cbern6, dict(rule=capped(first_passage_up(1.0), 6))),
        ("T3.2", iid_spec(rademacher(), 6, offset=6.0),
         dict(rule=capped(first_passage_up(8.0), 6))),
        ("T3.3", bern6, dict(rule=capped(first_passage_down(0.0), 6))),
        ("L5.1", rad6, dict(rule=capped(first_passage_up(2.0), 6))),
        ("T4.1", iid_spec(rademacher(), 6, offset=6.0), dict(params={"lambda": 8.0})),
        ("C4.3", iid_spec(rademacher(), 6, offset=7.0), dict(params={"p": 0.5})),
        ("T4.7", rad12, dict(params={"t": 3.0})),
        ("C4.10", rad6, dict(rule=capped(first_passage_up(1.0), 6),
                             params={"theta": 0.3, "battery_size": 6})),
        ("C4.10", rad6, dict(rule=deterministic(1, "nonincreasing"),
                             params={"theta": 0.5, "battery_size": 6})),
        ("C5.2", bern8, dict(rule=capped(first_passage_down(0.0), 8))),
        ("C5.2", bern8, dict(rule=deterministic(4))),
        ("C5.4", bern6, dict(rule=capped(first_passage_down(0.0), 6))),
        ("C5.5", bern8, dict(rule=capped(first_passage_down(0.0), 8),
                             params={"theta": 0.5})),
        ("T5.6", shock, dict(params={"t": 4.0})),
    ]


def test_criterion_04_monte_carlo_oracle_agreement():
    finish = _clockbox(120.0)
    pairs = _agreement_pairs()
    assert len(pairs) >= 20
    checked = 0
    for tid, spec, kw in pairs:
        _, exact_results, _ = verify_detailed(tid, spec, mode="exact", seed=2026, **kw)
        _, mc_results, _ = verify_detailed(
            tid, spec, mode="monte_carlo", paths=100_000, seed=2026, **kw
        )
        for er, mr in zip(exact_results, mc_results):
            assert er.name == mr.name
            gap = abs(mr.stats.mean - er.stats.mean)
            if mr.stats.stderr > 0:
                assert gap <= 4.0 * mr.stats.stderr, (tid, er.name, gap, mr.stats.stderr)
            else:
                scale = max(1.0, abs(er.stats.mean))
                assert gap <= 1e-12 * scale, (tid, er.name, gap)
            checked += 1
    finish(4, f"{len(pairs)} (theorem, instance) pairs, {checked} statistics within 4 stderr")


def test_criterion_05_bernstein_tail_large_walk():
    finish = _clockbox(60.0)
    spec = iid_spec(rademacher(), 100)
    for t in (5.0, 10.0, 15.0):
        report, results, _ = verify_detailed(
            "T4.7", spec, params={"t": t}, mode="monte_carlo", paths=1_000_000, seed=2026
        )
        assert report.verdict == "PASS", t
        assert report.z_margin is not None and report.z_margin >= 0.0
        for res in results:  # one-sided and two-sided both hold with slack
            assert res.margin >= 0.0, (t, res.name)
        if t == 10.0:
            assert report.rhs == pytest.approx(math.exp(-0.483871), rel=1e-6) or (
                results[0].rhs == pytest.approx(math.exp(-0.483871), rel=1e-6)
            )
    finish(5, "walk-of-100 tails below the exponential bound at t in {5,10,15}")


def test_criterion_06_wald_suite():
    finish = _clockbox(30.0)
    bern = iid_spec(bernoulli(0.5), 8)
    report = verify("C5.2", bern, rule=deterministic(5), mode="exact", seed=2026)
    assert report.verdict == "PASS"
    assert report.lhs.mean == pytest.approx(0.0, abs=1e-12)  # E S_m = m E X_1 exactly

    for h in range(2, 11):
        spec = iid_spec(bernoulli(0.5), h)
        rule = capped(first_passage_down(0.0), h)
        r = verify("C5.2", spec, rule=rule, mode="exact", seed=2026)
        assert r.verdict == "PASS", ("C5.2", h)
        r = verify("C5.5", spec, rule=rule, params={"theta": 0.5}, mode="exact", seed=2026)
        assert r.verdict == "PASS", ("C5.5", h)
    finish(6, "random-sum mean and exponential inequalities exact on n <= 10 chains")


def test_criterion_07_clt_harness_calibration():
    finish = _clockbox(120.0)
    crit = ks_critical_value(10_000, 0.01)
    assert crit == pytest.approx(0.0163, abs=2e-4)
    passes = sum(
        ks_distance_to_normal(derive_stream(seed, 0).standard_normal(10_000)) < crit
        for seed in range(100)
    )
    assert passes >= 99, f"KS gate passed only {passes}/100 seeds"

    spec = shared_shock_spec(rademacher(), rademacher(), 16)
    diags = clt_diagnose(spec, [16, 64, 256], paths=2000, seed=2026)
    for d in diags:
        closed_form = (2.0 * d.n / (d.n**2 + d.n)) ** 1.5
        assert d.ratio_cubed == pytest.approx(closed_form, rel=1e-9)
    assert ratio_cubed_decreasing(diags)
    finish(7, f"KS calibration {passes}/100; shared-shock ratios match closed form")


def test_criterion_08_complete_convergence():
    finish = _clockbox(300.0)
    diag = complete_convergence_diagnose(
        iid_spec(rademacher(), 100), r=1.0, epsilon=0.5,
        n_grid=[25, 50, 100], paths=10_000_000, seed=2026,
    )
    by_n = {rec.n: rec for rec in diag.tail_estimates}
    assert by_n[100].envelope == pytest.approx(4.445e-5, rel=1e-3)
    for rec in diag.tail_estimates:
        assert rec.within_envelope, rec
    assert by_n[50].estimate <= by_n[25].estimate / 10.0
    assert by_n[100].estimate <= by_n[50].estimate / 10.0
    assert list(diag.partial_sum) == sorted(diag.partial_sum)
    finish(8, "tails under the envelope; >= 10x decay per doubling of n")


def test_criterion_09_negative_controls():
    finish = _clockbox(10.0)
    report = check_definition(adversarial_spec(4), "demimartingale", seed=2026)
    assert report.verdict == "FAIL"
    assert report.exact

    from demimart.generators import generate

    probe = generate(iid_spec(rademacher(), 4), 256, seed=2026)
    cert = certify_indicator_monotonicity(
        first_passage_down(-1.0), "nondecreasing", probe, 64, seed=2026
    )
    assert cert.status == COUNTEREXAMPLE
    assert cert.coordinate is not None and cert.delta > 0
    finish(9, "sign-flip family FAILs; down-rule declared nondecreasing refuted")


def test_criterion_10_suite_determinism():
    finish = _clockbox(300.0)
    cfg_files = sorted(
        f for f in os.listdir(CONFIG_DIR) if f.endswith(".cfg")
    )
    assert cfg_files, "shipped experiment suite missing"

    def run_once():
        blobs = []
        for name in cfg_files:
            with open(os.path.join(CONFIG_DIR, name)) as fh:
                config = config_from_dict(parse_config_text(fh.read()))
            _, payload, _ = run(config)
            text = json.dumps(payload, sort_keys=True)
            blobs.append(re.sub(r'"runtime_ms": [0-9.e+-]+', '"runtime_ms": 0', text))
        return blobs

    first = run_once()
    second = run_once()
    assert first == second, "suite reports differ between identical reruns"
    finish(10, f"{len(cfg_files)} experiment reports byte-identical modulo runtime_ms")
