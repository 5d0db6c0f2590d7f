"""Battery semantics, battery-wide monotonicity, and indicator certification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demimart.core import derive_stream
from demimart.generators import generate, iid_spec, rademacher
from demimart.monotone import (
    CERTIFIED_BY_CONSTRUCTION,
    COUNTEREXAMPLE,
    KINDS,
    SAMPLED_OK,
    MonotoneTestFunction,
    certify_indicator_monotonicity,
    evaluate,
    evaluate_batch,
    evaluate_prefixes,
    sample_battery,
)
from demimart.stopping import deterministic, first_passage_down, first_passage_up, jump_if_high


class TestEvaluate:
    def test_constant_one(self):
        f = MonotoneTestFunction("constant_one")
        assert evaluate(f, [7.0, -3.0]) == 1.0

    def test_linear(self):
        f = MonotoneTestFunction("linear_nonneg", weights=(1.0, 1.0))
        assert evaluate(f, [2.0, 3.0]) == 5.0

    def test_threshold(self):
        f = MonotoneTestFunction("coordinate_max_threshold", shifts=(2.0,))
        assert evaluate(f, [1.0, 2.5, 0.0]) == 1.0
        assert evaluate(f, [1.0, 1.5, 0.0]) == 0.0

    def test_last_coordinate(self):
        f = MonotoneTestFunction("last_coordinate")
        assert evaluate(f, [1.0, -4.0]) == -4.0

    def test_weights_padded_with_zeros(self):
        # prefix longer than weights: missing weights are zero
        f = MonotoneTestFunction("linear_nonneg", weights=(2.0,))
        assert evaluate(f, [3.0, 100.0]) == 6.0
        # prefix shorter than weights: extra weights ignored
        assert evaluate(f, [3.0]) == 6.0

    def test_clipped_linear(self):
        f = MonotoneTestFunction(
            "clipped_linear", weights=(1.0,), shifts=(1.0,), floor=0.0, ceiling=2.0
        )
        assert evaluate(f, [0.0]) == 0.0  # clamped up to floor
        assert evaluate(f, [2.5]) == 1.5
        assert evaluate(f, [9.0]) == 2.0  # clamped to ceiling

    def test_nan_rejected(self):
        f = MonotoneTestFunction("constant_one")
        with pytest.raises(ValueError, match="NaN"):
            evaluate(f, [math.nan])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            MonotoneTestFunction("linear_nonneg", weights=(-1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            MonotoneTestFunction("linear_nonneg", weights=(1.0, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_shifts_rejected(self, bad):
        with pytest.raises(ValueError, match="shifts must be finite"):
            MonotoneTestFunction("coordinate_max_threshold", shifts=(bad,))

    @pytest.mark.parametrize("bounds", [dict(floor=math.nan), dict(ceiling=math.nan)])
    def test_nan_floor_or_ceiling_rejected(self, bounds):
        with pytest.raises(ValueError, match="NaN"):
            MonotoneTestFunction("clipped_linear", weights=(1.0,), **bounds)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: MonotoneTestFunction("sine"), "unknown kind 'sine'"),
            (
                lambda: MonotoneTestFunction(
                    "clipped_linear", weights=(1.0,), floor=2.0, ceiling=1.0
                ),
                "floor must not exceed ceiling",
            ),
            (lambda: evaluate(MonotoneTestFunction("constant_one"), []), "nonempty 1-d"),
            (lambda: evaluate(MonotoneTestFunction("constant_one"), [[1.0]]), "nonempty 1-d"),
            (
                lambda: evaluate_batch(MonotoneTestFunction("constant_one"), np.zeros(3)),
                r"\(paths, j\) matrix",
            ),
            (lambda: sample_battery(0, 0, False), "count must be >= 1"),
            (
                lambda: certify_indicator_monotonicity(
                    first_passage_up(1.0), "up", np.zeros((2, 3)), 1, 0
                ),
                "direction must be nondecreasing or nonincreasing",
            ),
            (
                lambda: certify_indicator_monotonicity(
                    first_passage_up(1.0), "nondecreasing", np.zeros((2, 3)), 1, 0, target="lt"
                ),
                "target must be 'le' or 'eq'",
            ),
        ],
        ids=["unknown-kind", "floor-above-ceiling", "empty-prefix", "2d-prefix",
             "1d-prefixes", "empty-battery", "certify-direction", "certify-target"],
    )
    def test_refusals(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_infinite_clip_bounds_are_the_defaults(self):
        f = MonotoneTestFunction("clipped_linear", weights=(1.0,))
        assert (f.floor, f.ceiling) == (-math.inf, math.inf)
        assert evaluate(f, [-1e300]) == -1e300


def _evaluate_batch_reference(f, prefixes):
    """Row-major evaluation of one prefix length: the definition the
    time-major evaluator must reproduce."""
    p = np.asarray(prefixes, dtype=np.float64)
    j = p.shape[1]
    if f.kind == "constant_one":
        return np.ones(p.shape[0])
    if f.kind == "last_coordinate":
        return p[:, -1].copy()
    if f.kind == "coordinate_max_threshold":
        c1 = f.shifts[0] if f.shifts else 0.0
        return (p.max(axis=1) >= c1).astype(np.float64)
    k = min(len(f.weights), j)
    w = np.asarray(f.weights[:k], dtype=np.float64)
    if f.kind == "linear_nonneg":
        return p[:, :k] @ w if k else np.zeros(p.shape[0])
    c = np.zeros(k)
    c[: min(len(f.shifts), k)] = f.shifts[: min(len(f.shifts), k)]
    raw = (p[:, :k] - c) @ w if k else np.zeros(p.shape[0])
    return np.clip(raw, f.floor, f.ceiling)


_coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@st.composite
def _function_and_paths(draw):
    kind = draw(st.sampled_from(KINDS))
    weights = tuple(draw(st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=10)))
    shifts = tuple(draw(st.lists(_coords, max_size=10)))
    floor = draw(_coords)
    ceiling = floor + draw(st.floats(min_value=0.0, max_value=50.0))
    f = MonotoneTestFunction(kind, weights, shifts, floor, ceiling)
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=9))
    rows = draw(st.lists(st.lists(_coords, min_size=n, max_size=n), min_size=m, max_size=m))
    return f, np.array(rows)


class TestTimeMajorEvaluation:
    @given(_function_and_paths())
    @settings(max_examples=300, deadline=None)
    def test_every_prefix_matches_row_major_reference(self, case):
        """Row j-1 of the time-major evaluation is f on S_1..S_j, for weight
        vectors longer and shorter than j."""
        f, paths = case
        values = evaluate_prefixes(f, np.ascontiguousarray(paths.T))
        assert values.shape == paths.shape[::-1]
        for j in range(1, paths.shape[1] + 1):
            ref = _evaluate_batch_reference(f, paths[:, :j])
            # every term w_i (s_i - c_i) is at most 100 w_i in size
            scale = max(1.0, 100.0 * sum(f.weights))
            for got in (values[j - 1], evaluate_batch(f, paths[:, :j])):
                assert np.all(np.abs(got - ref) <= 1e-12 * scale), (f, j)


class TestBattery:
    def test_same_seed_same_battery(self):
        a = sample_battery(99, 16, require_nonnegative=False)
        b = sample_battery(99, 16, require_nonnegative=False)
        assert a == b

    def test_fixed_members_present(self):
        battery = sample_battery(7, 8, require_nonnegative=False)
        kinds = [f.kind for f in battery]
        assert "constant_one" in kinds
        assert "last_coordinate" in kinds

    def test_constant_one_always_present(self):
        battery = sample_battery(7, 2, require_nonnegative=True)
        assert battery[0].kind == "constant_one"

    def test_nonnegative_battery_never_negative(self):
        """min over random probes >= 0 when the nonnegative flag is set."""
        battery = sample_battery(3, 24, require_nonnegative=True)
        rng = derive_stream(4, 0)
        prefixes = rng.normal(0.0, 5.0, size=(2000, 6))
        for f in battery:
            assert f.nonnegative
            assert evaluate_batch(f, prefixes).min() >= 0.0

    def test_battery_size_respected(self):
        assert len(sample_battery(1, 40, require_nonnegative=False)) == 40

    def test_battery_monotone_under_propagated_perturbation(self):
        """Raising one coordinate (and its successors) never lowers any f."""
        battery = sample_battery(12, 32, require_nonnegative=False)
        rng = derive_stream(5, 0)
        total = 100_000
        j = 6
        per = total // len(battery)
        for f in battery:
            base = rng.normal(0.0, 3.0, size=(per, j))
            coord = rng.integers(0, j, size=per)
            delta = np.exp(rng.uniform(math.log(1e-6), 0.0, size=per))
            bumped = base + (np.arange(j)[None, :] >= coord[:, None]) * delta[:, None]
            lo = evaluate_batch(f, base)
            hi = evaluate_batch(f, bumped)
            assert np.all(hi >= lo - 1e-12), f.label


class TestCertification:
    def _probe_ensemble(self, n=4):
        return generate(iid_spec(rademacher(), n), 256, seed=17)

    def test_first_passage_up_certified(self):
        cert = certify_indicator_monotonicity(
            first_passage_up(1.0), "nondecreasing", self._probe_ensemble(), 16, seed=1
        )
        assert cert.status == CERTIFIED_BY_CONSTRUCTION

    def test_first_passage_down_certified_nonincreasing(self):
        cert = certify_indicator_monotonicity(
            first_passage_down(-1.0), "nonincreasing", self._probe_ensemble(), 16, seed=1
        )
        assert cert.status == CERTIFIED_BY_CONSTRUCTION

    def test_down_rule_declared_nondecreasing_is_refuted(self):
        """Raising a coordinate can un-trigger a down-crossing."""
        cert = certify_indicator_monotonicity(
            first_passage_down(-1.0), "nondecreasing", self._probe_ensemble(), 64, seed=2
        )
        assert cert.status == COUNTEREXAMPLE
        assert cert.coordinate is not None
        assert cert.delta > 0

    def test_deterministic_certified_both_directions_and_targets(self):
        ens = self._probe_ensemble()
        for direction in ("nondecreasing", "nonincreasing"):
            for target in ("le", "eq"):
                cert = certify_indicator_monotonicity(
                    deterministic(2), direction, ens, 8, seed=3, target=target
                )
                assert cert.status == CERTIFIED_BY_CONSTRUCTION

    def test_user_jump_rule_sampled_ok(self):
        rule = jump_if_high(2, 1.0, 3, 4)
        ens = self._probe_ensemble(4)
        cert = certify_indicator_monotonicity(
            rule, "nondecreasing", ens, 64, seed=4, target="eq"
        )
        assert cert.status == SAMPLED_OK
        assert cert.probes == 256 * 64

    def test_counterexample_is_reproducible(self):
        ens = self._probe_ensemble()
        a = certify_indicator_monotonicity(
            first_passage_down(-1.0), "nondecreasing", ens, 64, seed=2
        )
        b = certify_indicator_monotonicity(
            first_passage_down(-1.0), "nondecreasing", ens, 64, seed=2
        )
        assert a.coordinate == b.coordinate
        assert a.delta == b.delta
