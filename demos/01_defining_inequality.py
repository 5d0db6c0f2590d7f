"""Dependence structures and the defining projection inequality.

A partial-sum process S_n passes the check when E[(S_{j+1} - S_j) f(S_1..S_j)]
is nonnegative for every componentwise nondecreasing f and every j.  We probe
that with a seeded battery of 32 monotone test functions, exactly (full
enumeration of the outcome space) for four increment structures:

  * independent symmetric steps        -> passes with every f
  * centered coin flips                -> passes with every f
  * shared additive shock (dependent)  -> passes; association carries it
  * alternating sign flips             -> fails, by construction

Run: python demos/01_defining_inequality.py
"""

from demimart import (
    adversarial_spec,
    bernoulli,
    centered,
    check_definition,
    fold_expectations,
    iid_spec,
    rademacher,
    shared_shock_spec,
    to_chain,
)
from demimart.monotone import MonotoneTestFunction, evaluate_batch

SEED = 7


def projection(spec, j, f):
    """Exact E[(S_{j+1} - S_j) f(S_1..S_j)], folded over every outcome."""
    (value,) = fold_expectations(
        to_chain(spec), lambda p: ((p[:, j] - p[:, j - 1]) * evaluate_batch(f, p[:, :j]))[None]
    )
    return value


families = {
    "iid rademacher (n=8)": iid_spec(rademacher(), 8),
    "centered bernoulli(0.5) (n=8)": centered(iid_spec(bernoulli(0.5), 8)),
    "shared shock (n=6)": shared_shock_spec(rademacher(), rademacher(), 6),
    "adversarial sign flip (n=4)": adversarial_spec(4),
}

print("exact battery check of the defining inequality (32 functions, all j)\n")
for name, spec in families.items():
    report = check_definition(spec, "demimartingale", seed=SEED)
    print(f"  {name:<34} {report.verdict:<4}  worst E[(dS) f] = {report.lhs.mean:+.6g}")

print("\nthe sign-flip control in detail: j = 1, f = last coordinate")
last = MonotoneTestFunction("last_coordinate")
value = projection(adversarial_spec(2), 1, last)
print(f"  E[(S_2 - S_1) S_1] = E[-X_1^2] = {value:+.1f}   (the harness must catch this)")

print("\nwhy the shared shock still passes: its projection is the shock variance")
value = projection(shared_shock_spec(rademacher(), rademacher(), 2), 1, last)
print(f"  E[X_2 S_1] = E[(B_2 + W)(B_1 + W)] = E[W^2] = {value:+.1f}  >= 0")
