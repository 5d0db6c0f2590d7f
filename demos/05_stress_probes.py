"""Stress probes: instances where the checked statements break.

A verification harness is only trustworthy if it can fail, and two of these
failures are informative beyond being controls:

1. The shared-shock family satisfies every hypothesis of the associated-sum
   concentration bound (mean-zero, positively associated, |X_i| <= 2), yet
   at n = 10, t = 6 the EXACT tail exceeds the bound:

       P(S_10 >= 6) = (1/2) P(Bin(10, 1/2) >= 3) = 968/2048 = 0.47265625
       bound        = exp(-36 / (2 (20 + 4)))    = exp(-3/4) ~ 0.47236655

   The dependence concentrates mass exactly where the exponential-
   transform argument needs slack, so the bound's extension beyond
   independent-increment processes fails on this instance.  Scanning every
   integer t shows how far: the worst tail/bound ratio is about 2.5 at
   n = 10 (t = 12) and about 24 at n = 20 (t = 26), because Var S_n = n + n^2
   grows quadratically while the bound only sees V_n = 2n.

2. The upper branch of the exponential stopped inequality with H = 0
   demands E exp(theta S_tau) <= 1 for up-crossing rules; Jensen forces
   E exp(theta S_tau) >= 1 on any stopped mean-zero walk, with equality
   only in degenerate cases, so the branch fails whenever S_tau is
   nondegenerate.  The engine's independent battery precheck on the
   transformed process still passes, isolating the gap to the stopped
   comparison rather than the transform.

3. The alternating sign-flip family is the designed negative control.

Run: python demos/05_stress_probes.py
"""

from demimart import (
    adversarial_spec,
    capped,
    check_definition,
    first_passage_up,
    iid_spec,
    rademacher,
    shared_shock_spec,
    verify_detailed,
)


def t56_exact(n: int, t: float):
    """Exact T5.6 report and its one-sided check P(S_n >= t) vs the bound."""
    spec = shared_shock_spec(rademacher(), rademacher(), n)
    report, results, _ = verify_detailed(
        "T5.6", spec, params={"t": t}, mode="exact", seed=1
    )
    return report, results[0]


print("probe 1: associated-sum concentration bound on the shared-shock family")
for t in (4.0, 5.0, 6.0):
    report, one_sided = t56_exact(10, t)
    tail, bound = one_sided.stats.mean, one_sided.rhs
    status = "ok " if tail <= bound else "VIOLATED"
    print(f"  t = {t}: exact tail {tail:.8f} vs bound {bound:.8f}  {status}")
print(f"  registry verdict at t = 6: {report.verdict}")
for n in (10, 20):
    # S_n reaches 2n at most, so integer t beyond it have a zero tail
    ratios = {}
    for t in range(1, 2 * n + 1):
        _, one_sided = t56_exact(n, float(t))
        ratios[t] = one_sided.stats.mean / one_sided.rhs
    worst = max(ratios, key=ratios.get)
    print(f"  n = {n}: worst tail/bound over integer t is {ratios[worst]:.4g} at t = {worst}")
print()

print("probe 2: exponential stopped inequality, upper branch (H = 0)")
walk = iid_spec(rademacher(), 6)
report, _, extras = verify_detailed(
    "C4.10", walk, rule=capped(first_passage_up(1.0), 6),
    params={"theta": 0.3}, mode="exact", seed=1,
)
print(f"  E exp(0.3 S_tau) = {report.lhs.mean:.6f} compared {report.direction} 1")
print(f"  verdict: {report.verdict}; transformed-process battery precheck: "
      f"{extras['demisub_precheck'].verdict}\n")

print("probe 3: the designed negative control")
report = check_definition(adversarial_spec(4), "demimartingale", seed=1)
print(f"  sign-flip family defining inequality: {report.verdict} "
      f"(worst projection {report.lhs.mean:+.1f})")
