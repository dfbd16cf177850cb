"""Desk-scale BLER sweep: grant-free detection versus the registration
baseline that knows the active set, with the DE prediction alongside.

Takes a few minutes; lower `trials` for a quicker look.
"""
from gfrma import de, harness

cfg = harness.DESK_CONFIG
gains = harness.expected_active_gains(cfg)
grid = (-7.5, -7.0, -6.5, -6.0, -5.5, -5.0)
trials = 50

th = de.threshold_search(cfg, gains, tol_db=0.05)
print("DE threshold: %.2f dB" % th)

results = {}
for mode in ("grant-free", "registration"):
    spec = harness.ExperimentSpec(cfg, grid, trials=trials, mode=mode,
                                  master_seed=1)
    results[mode] = harness.monte_carlo(spec)
    out = f"sweep_{mode}.csv"
    harness.snr_sweep_report(results[mode], out)
    print("wrote", out)

print("\nsnr_db   grant-free   registration")
for gf, reg in zip(results["grant-free"].points,
                   results["registration"].points):
    print("%6.1f   %7.3f      %7.3f" % (gf.snr_db, gf.bler, reg.bler))
print("\n(the grant-free curve should sit within ~1 dB of the baseline)")
