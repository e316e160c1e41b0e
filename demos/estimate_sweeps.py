"""
Reading the verification sweeps
===============================

Runs the smaller certification pieces directly and prints their report
tables: the three sharp inequality constants, the odd/even kernel domination
bands, one weighted time-norm ratio instance, and a weight-class window.
"""

from trigjacobi import JacobiParams
from trigjacobi.measure import (PowerWeight, ap_membership, bp_membership,
                                unweighted_bp_window)
from trigjacobi.verify import (LEMMA_INSTANCES, SweepSpec, check_domination,
                               check_lemma_instances, check_sharp_constants,
                               lemma_claim_id)

params = JacobiParams(1.5, -0.7)
spec = SweepSpec(n_theta=6, levels=5)

# --- sharp constants --------------------------------------------------------
print("sharp constants (grid supremum over certified constant, and the")
print("relative error of the approach sequence at the attaining corner):")
for rep in check_sharp_constants(ngrid=512):
    extra = ""
    if "approach_rel_error" in rep.details:
        extra = f"  approach {rep.details['approach_rel_error']:.1e}"
    print(f"  {rep.claim:35s} ratio {rep.constant:.12f}{extra}")

# --- domination bands -------------------------------------------------------
print("\nodd/even kernel ratio by distance band (max over dyadic times):")
reports = check_domination(params, spec)
for level in reports[0].levels:
    print(f"  d = {level['distance']:.4f}  pairs {level['pairs']:3d}  "
          f"max ratio {level['max_ratio']:.6f}")
print(f"  overall {reports[0].constant:.6f}  "
      f"drift {reports[0].drift:.4f}  "
      f"within unit constant: {reports[0].details['within_unit_constant']}")

# --- one lemma instance ------------------------------------------------------
inst = LEMMA_INSTANCES[0]
print(f"\nlemma instance {lemma_claim_id(inst)}:")
# the quick profile runs the first instance of each group, this one among them
rep = next(r for r in check_lemma_instances(params, spec, "quick")
           if r.claim == lemma_claim_id(inst))
print(f"  constant {rep.constant:.6e}, drift {rep.drift:.4f}, "
      f"passed {rep.passed}")

# --- weight windows ----------------------------------------------------------
print("\npower weight membership at p = 2:")
for r, s in ((0.0, 0.0), (3.0, 0.0), (6.0, 0.0), (-6.0, 0.0)):
    w = PowerWeight(r, s)
    print(f"  r={r:+.0f}, s={s:+.0f}: "
          f"Ap {str(ap_membership(params, w, 2.0)):5s} "
          f"Bp {str(bp_membership(params, w, 2.0)):5s}")

lo, hi = unweighted_bp_window(params)
closure = "closed" if min(params.alpha, params.beta) >= -0.5 else "open"
print(f"\nunweighted admissibility window in 1/p: "
      f"({lo:.2f}, {hi:.2f}), right end {closure}")
