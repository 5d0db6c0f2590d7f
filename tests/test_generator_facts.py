"""The closed-form facts of every generator family, pinned exactly.

For each spec in ``SPECS`` (every family x law x offset, and every inner
family under centering) ``tests/data/generator_facts.json`` holds, per fact,
the ``repr`` of the value or ``"!<ExceptionType>: <message>"`` for a refusal.
Draws are pinned elsewhere (``engine_pins.json`` and the raw-word tests), so
only the moments, bounds, log-MGF, structural class and exact chain are here.
Regenerate the file only for a change that is meant to move these facts:

    PYTHONPATH=src python tests/test_generator_facts.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np

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
    assert {spec.inner.family for spec in SPECS if spec.inner is not None} == {
        "iid", "shared_shock", "moving_sum", "gaussian_assoc"
    }


def test_family_facts_match_the_recorded_table():
    recorded = json.loads(DATA.read_text())
    got = table()
    assert list(got) == list(recorded)
    for spec_id, facts in recorded.items():
        assert got[spec_id] == facts, spec_id


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_generator_facts.py --write")
    DATA.write_text(json.dumps(table(), indent=1) + "\n")
    print(f"wrote {len(SPECS)} specs x {len(FACTS)} facts to {DATA}")
