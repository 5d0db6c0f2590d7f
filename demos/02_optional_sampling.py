"""Stopped processes and optional-sampling inequalities.

First-passage rules have indicators that are monotone in the path by
construction: raising any coordinate can only make an up-crossing happen
sooner (nondecreasing) and a down-crossing later (nonincreasing).  That
monotonicity direction decides which side of E S_1 the stopped mean lands on:

  nondecreasing indicator + mean-zero steps  ->  E S_tau <= E S_1
  nonincreasing indicator + upward drift     ->  E S_tau >= E S_1

Both directions are checked against the exact enumeration oracle and by
Monte Carlo on the same statistic, so agreement between the two modes is
itself a regression check.

Run: python demos/02_optional_sampling.py
"""

import numpy as np

from demimart import (
    bernoulli,
    capped,
    first_passage_down,
    first_passage_up,
    iid_spec,
    rademacher,
    verify,
)

SEED = 11

print("one stopped path, step by step")
path = np.array([-1.0, 0.0, 1.0, 2.0, 1.0])
tau = first_passage_up(1.0).tau(path)
frozen = path.copy()
frozen[tau:] = path[tau - 1]  # S_(tau ^ k): held at S_tau from step tau on
print(f"  path (-1, 0, 1, 2, 1), stop at first S_k >= 1: tau = {tau}, "
      f"frozen sequence = {frozen.tolist()}\n")

cases = [
    ("T3.1", "symmetric walk, capped up-crossing: E S_tau <= E S_1",
     iid_spec(rademacher(), 6), capped(first_passage_up(1.0), 6), {}),
    ("T3.3", "drifting coin flips, capped down-crossing: E S_tau >= E S_1",
     iid_spec(bernoulli(0.5), 6), capped(first_passage_down(0.0), 6), {}),
    ("T1.4", "ordering E S_(tau^m) <= E S_(tau^n) <= E S_1 along the horizon",
     iid_spec(rademacher(), 8), first_passage_up(1.0), {"n": 4, "m": 8}),
    ("C2.2", "stopped mean never beats the running mean: E S_(tau^j) <= E S_j",
     iid_spec(rademacher(), 8), capped(first_passage_up(2.0), 8), {}),
    ("L5.1", "stopped-moment chain E|S_(tau^n)| <= M E(tau^n) <= M E tau",
     iid_spec(rademacher(), 8), capped(first_passage_up(2.0), 8), {}),
]

for tid, story, spec, rule, params in cases:
    exact = verify(tid, spec, rule=rule, params=params, mode="exact", seed=SEED)
    mc = verify(tid, spec, rule=rule, params=params, mode="monte_carlo",
                paths=200_000, seed=SEED)
    print(f"{tid}: {story}")
    print(f"  exact: {exact.verdict}  binding statistic {exact.lhs.mean:+.6g} "
          f"({exact.direction} {exact.rhs:g})")
    print(f"  monte carlo (2e5 paths): {mc.verdict}  {mc.lhs.mean:+.6g} "
          f"+- {mc.lhs.stderr:.2g}\n")
