"""The closed-form facts of every generator family, pinned exactly.

For each spec in ``SPECS`` (every family x law x offset, and every family
that can be centered, centered) ``tests/data/generator_facts.json`` holds, per fact,
the ``repr`` of the value or ``"!<ExceptionType>: <message>"`` for a refusal.
Draws are pinned elsewhere (``engine_pins.json`` and the raw-word tests), so
only the moments, bounds, log-MGF, structural class and exact chain are here.
Regenerate the file only for a change that is meant to move these facts:

    PYTHONPATH=src python tests/test_generator_facts.py --write
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from demimart import generators as gen

DATA = Path(__file__).resolve().parent / "data" / "generator_facts.json"

HORIZON = 4
LAWS = (gen.rademacher(), gen.bernoulli(0.3), gen.uniform(-1.0, 0.5))
OFFSETS = (0.0, 1.5)
COVARIANCES = (
    np.eye(HORIZON),
    np.array([[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.5, 0.0], [0.0, 0.5, 1.0, 0.5],
              [0.0, 0.0, 0.5, 1.0]]),
)
THETAS = (-0.5, 0.25, 1.0)

FACTS = {
    "step_mean": gen.step_mean,
    "step_second_moment": gen.step_second_moment,
    "v_n": gen.v_n,
    "sigma_n_exact": gen.sigma_n_exact,
    "mean_s1": gen.mean_s1,
    "increment_bound": gen.increment_bound,
    "first_step_bound": gen.first_step_bound,
    "step_min": gen.step_min,
    "path_min_bound": gen.path_min_bound,
    "classify": gen.classify,
    "to_chain": gen.to_chain,
    **{
        f"step_log_mgf({theta!r})": (lambda spec, theta=theta: gen.step_log_mgf(spec, theta))
        for theta in THETAS
    },
}


def _inners(offset: float) -> list:
    """Every family that takes an offset and may sit inside a centering."""
    specs = []
    for law in LAWS:
        specs.append(gen.iid_spec(law, HORIZON, offset))
        specs.append(gen.shared_shock_spec(law, gen.bernoulli(0.5), HORIZON, offset))
        specs.append(
            gen.GeneratorSpec("moving_sum", HORIZON, law=law, weights=(1.0, 0.5), offset=offset)
        )
    specs += [gen.gaussian_assoc_spec(cov, HORIZON, offset) for cov in COVARIANCES]
    return specs


def _specs() -> list:
    specs = []
    for offset in OFFSETS:
        specs += _inners(offset)
        specs += [gen.centered(inner, offset) for inner in _inners(0.0)]
        specs += [
            gen.GeneratorSpec("adversarial_sign_flip", HORIZON, law=law, offset=offset)
            for law in LAWS
        ]
    return specs


SPECS = _specs()


def _fact(fn, spec) -> str:
    try:
        return repr(fn(spec))
    except Exception as exc:  # a refusal is a fact too
        return f"!{type(exc).__name__}: {exc}"


def table() -> dict:
    return {
        spec.generator_id: {name: _fact(fn, spec) for name, fn in FACTS.items()}
        for spec in SPECS
    }


def test_spec_ids_are_distinct():
    assert len({spec.generator_id for spec in SPECS}) == len(SPECS)


def test_every_family_is_covered():
    assert {spec.family for spec in SPECS} == set(gen.FAMILIES)
    assert {spec.family for spec in SPECS if spec.centered} == {
        "iid", "shared_shock", "moving_sum", "gaussian_assoc"
    }


def test_family_facts_match_the_recorded_table():
    recorded = json.loads(DATA.read_text())
    got = table()
    assert list(got) == list(recorded)
    for spec_id, facts in recorded.items():
        assert got[spec_id] == facts, spec_id


# ---------------------------------------------------------------------------
# Reference closed forms, one branch per family and a centered family read
# through its uncentered twin, against which the one list of parts in
# ``generators`` is checked bit for bit on random specs.
# ---------------------------------------------------------------------------


def _inner(spec):
    return dataclasses.replace(spec, centered=False, offset=0.0)


def ref_step_mean(spec):
    if spec.centered or spec.family == "gaussian_assoc":
        return 0.0
    if spec.family == "iid":
        return spec.law.mean
    if spec.family == "shared_shock":
        return spec.law.mean + spec.shock.mean
    if spec.family == "moving_sum":
        return spec.law.mean * sum(spec.weights)
    raise ValueError("adversarial_sign_flip has alternating step means")


def ref_first_step_mean(spec):
    if spec.family == "adversarial_sign_flip":
        return spec.law.mean
    return ref_step_mean(spec)


def ref_step_second_moment(spec):
    if spec.centered:
        mu = ref_step_mean(_inner(spec))
        return ref_step_second_moment(_inner(spec)) - mu * mu
    if spec.family == "shared_shock":
        return (
            spec.law.second_moment
            + 2.0 * spec.law.mean * spec.shock.mean
            + spec.shock.second_moment
        )
    if spec.family == "moving_sum":
        m2, mu = spec.law.second_moment, spec.law.mean
        var = m2 - mu * mu
        wsum = sum(spec.weights)
        wsq = sum(w * w for w in spec.weights)
        return var * wsq + (mu * wsum) ** 2
    if spec.family == "gaussian_assoc":
        raise ValueError("gaussian_assoc has per-step second moments; use v_n")
    return spec.law.second_moment  # iid, adversarial_sign_flip


def ref_v_n(spec):
    if spec.family == "gaussian_assoc":
        return float(np.trace(spec.covariance)) + spec.offset * spec.offset
    m2 = ref_step_second_moment(spec)
    first = m2 + 2.0 * spec.offset * ref_first_step_mean(spec) + spec.offset * spec.offset
    return first + (spec.horizon - 1) * m2


def ref_sigma_n_exact(spec):
    """A moving sum's draw Y_s (s = -q, ..., n - 1) adds Y_s times the sum of
    its weights that reach a step to S_n; the sign flip's one draw adds Y at
    odd n and nothing at even n."""
    n = spec.horizon
    if spec.family == "adversarial_sign_flip":
        odd = float(n % 2)
        mean_sn = spec.offset + spec.law.mean * odd
        var = (spec.law.second_moment - spec.law.mean**2) * (odd * odd)
        return math.sqrt(mean_sn * mean_sn + var)
    if spec.family == "iid":
        var = n * (spec.law.second_moment - spec.law.mean**2)
    elif spec.family == "shared_shock":
        var_b = spec.law.second_moment - spec.law.mean**2
        var_w = spec.shock.second_moment - spec.shock.mean**2
        var = n * var_b + n * n * var_w
    elif spec.family == "gaussian_assoc":
        var = float(spec.covariance.sum())
    else:
        w = spec.weights
        cover = [sum(w[max(0, -s) : n - s]) for s in range(1 - len(w), n)]
        var = (spec.law.second_moment - spec.law.mean**2) * sum(c * c for c in cover)
    mean_sn = spec.offset + spec.horizon * ref_step_mean(spec)
    return math.sqrt(mean_sn * mean_sn + var)


def ref_mean_s1(spec):
    return spec.offset + ref_first_step_mean(spec)


def ref_step_log_mgf(spec, theta):
    if spec.centered:
        inner = _inner(spec)
        return -theta * ref_step_mean(inner) + ref_step_log_mgf(inner, theta)
    if spec.family == "iid":
        return spec.law.log_mgf(theta)
    if spec.family == "shared_shock":
        return spec.law.log_mgf(theta) + spec.shock.log_mgf(theta)
    if spec.family == "moving_sum":
        return sum(spec.law.log_mgf(theta * w) for w in spec.weights)
    raise ValueError(f"no closed-form log-MGF for family {spec.family!r}")


def ref_increment_bound(spec):
    if spec.centered:
        inner = ref_increment_bound(_inner(spec))
        return None if inner is None else inner + abs(ref_step_mean(_inner(spec)))
    if spec.family == "shared_shock":
        return spec.law.abs_bound + spec.shock.abs_bound
    if spec.family == "moving_sum":
        return spec.law.abs_bound * sum(spec.weights)
    if spec.family == "gaussian_assoc":
        return None
    return spec.law.abs_bound  # iid, adversarial_sign_flip


def ref_first_step_bound(spec):
    c = ref_increment_bound(spec)
    return None if c is None else c + abs(spec.offset)


def ref_step_min(spec):
    if spec.centered:
        lo = ref_step_min(_inner(spec))
        return None if lo is None else lo - ref_step_mean(_inner(spec))
    if spec.family == "iid":
        return spec.law.min_value
    if spec.family == "shared_shock":
        return spec.law.min_value + spec.shock.min_value
    if spec.family == "moving_sum":
        return sum(w * spec.law.min_value for w in spec.weights)
    if spec.family == "adversarial_sign_flip":
        return -spec.law.abs_bound
    return None


def ref_path_min_bound(spec):
    lo = ref_step_min(spec)
    if lo is None:
        return None
    return spec.offset + (spec.horizon * lo if lo < 0 else lo)


def ref_classify(spec):
    """A centered Gaussian reads its own diagonal: centering a mean-zero
    step changes nothing."""
    if spec.family == "adversarial_sign_flip":
        mean_zero = spec.law.mean == 0.0 and spec.offset == 0.0
        return gen.StructuralClass(False, False, False, mean_zero, False)
    mu = ref_step_mean(spec)
    if spec.family == "gaussian_assoc":
        diag = np.diag(spec.covariance)
        ident = bool(np.all(diag == diag[0])) and spec.offset == 0.0
    else:
        ident = spec.offset == 0.0
    return gen.StructuralClass(True, mu == 0.0, mu >= 0.0, mu == 0.0 and spec.offset == 0.0, ident)


def ref_to_chain(spec):
    if spec.centered:
        inner = ref_to_chain(_inner(spec))
        drift = inner.drift + ref_step_mean(_inner(spec))
        return dataclasses.replace(inner, drift=drift, offset=spec.offset)
    if spec.family == "gaussian_assoc":
        raise ValueError(f"not enumerable: family {spec.family!r}")
    if spec.family == "moving_sum":
        row, steps = spec.weights, range(1 - len(spec.weights), spec.horizon)
    elif spec.family == "adversarial_sign_flip":
        row, steps = [(-1.0) ** i for i in range(spec.horizon)], [0]
    else:
        row, steps = [1.0], range(spec.horizon)
    atoms = tuple((tuple([v * w for w in row]), p) for v, p in spec.law.support())
    shared = tuple(spec.shock.support()) if spec.family == "shared_shock" else None
    return gen.DiscreteChainSpec(atoms, tuple(steps), spec.horizon, shared, offset=spec.offset)


REFERENCE = {
    "step_mean": ref_step_mean,
    "step_second_moment": ref_step_second_moment,
    "v_n": ref_v_n,
    "sigma_n_exact": ref_sigma_n_exact,
    "mean_s1": ref_mean_s1,
    "increment_bound": ref_increment_bound,
    "first_step_bound": ref_first_step_bound,
    "step_min": ref_step_min,
    "path_min_bound": ref_path_min_bound,
    "classify": ref_classify,
    "to_chain": ref_to_chain,
    **{
        f"step_log_mgf({theta!r})": (lambda spec, theta=theta: ref_step_log_mgf(spec, theta))
        for theta in THETAS
    },
}

_unit = st.floats(0.0, 1.0)
_laws = st.one_of(
    st.just(gen.rademacher()),
    st.builds(gen.bernoulli, st.one_of(_unit, st.sampled_from([0.0, -0.0, 1.0]))),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    .filter(lambda ab: ab[0] < ab[1])
    .map(lambda ab: gen.uniform(*ab)),
)
_weights = st.lists(
    st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 1.0])), min_size=1, max_size=4
)


@st.composite
def _random_specs(draw):
    n = draw(st.integers(1, 4))
    law = draw(_laws)
    family = draw(st.sampled_from(gen.FAMILIES))
    if family == "iid":
        spec = gen.iid_spec(law, n)
    elif family == "shared_shock":
        spec = gen.shared_shock_spec(law, draw(_laws), n)
    elif family == "moving_sum":
        spec = gen.GeneratorSpec("moving_sum", n, law=law, weights=tuple(draw(_weights)))
    elif family == "gaussian_assoc":
        diag = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n))
        spec = gen.gaussian_assoc_spec(np.diag(diag) + 0.25, n)
    else:
        spec = gen.adversarial_spec(n, law)
    offset = draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
    if family != "adversarial_sign_flip" and draw(st.booleans()):
        return gen.centered(spec, offset)
    return dataclasses.replace(spec, offset=offset)


@given(_random_specs())
@settings(max_examples=400, deadline=None)
def test_every_fact_equals_the_per_family_closed_form(spec):
    """Each fact of a random spec, read from its list of parts, equals the
    per-family closed form bit for bit (``repr`` tells -0.0 from 0.0), and
    a refusal is the same refusal."""
    for name, fn in FACTS.items():
        assert _fact(fn, spec) == _fact(REFERENCE[name], spec), (name, spec.generator_id)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_generator_facts.py --write")
    DATA.write_text(json.dumps(table(), indent=1) + "\n")
    print(f"wrote {len(SPECS)} specs x {len(FACTS)} facts to {DATA}")
