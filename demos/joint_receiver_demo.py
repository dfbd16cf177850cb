"""One grant-free trial under the microscope.

Builds a desk-scale block, runs the joint receiver, and prints how the
activity posteriors and channel estimates evolve iteration by iteration.
The decoder is deterministic, so the beliefs after iteration n are those of
the same decode capped at n iterations; the table replays those decodes.
"""
import dataclasses

import numpy as np

from gfrma import ldpc, pattern, phy, receiver
from gfrma.config import db_to_linear, noise_variance_for_snr
from gfrma.harness import DESK_CONFIG, expected_active_gains

cfg = DESK_CONFIG
xi_w = noise_variance_for_snr(cfg, db_to_linear(-5.0),
                              expected_active_gains(cfg))
cfg = cfg.with_noise_variance(xi_w)

pc = ldpc.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                 cfg.system_seed)
graph = pattern.build_access_graph(cfg)
truth = phy.make_ground_truth(cfg, pc, trial_index=0)
y = phy.superpose(cfg, truth, graph)
active = np.flatnonzero(truth.active)
print("active users:", active.tolist(), " SNR -5.0 dB  (xi_w = %.4f)" % xi_w)

outcome = receiver.joint_decode(cfg, y, graph, pc)

shown = list(range(1, min(outcome.iterations, 10) + 1))
if outcome.iterations > 10:
    shown.append(outcome.iterations)
print("\niter   q (active users)          mu_h (active)        max q inactive")
for n in shown:
    capped = receiver.joint_decode(
        dataclasses.replace(cfg, max_iterations=n), y, graph, pc)
    qa = " ".join("%.3f" % capped.q[k] for k in active)
    mh = " ".join("%.3f" % capped.mu_h[k] for k in active)
    qi = capped.q[~truth.active].max()
    print("%4d   %-24s  %-20s  %.4f" % (n, qa, mh, qi))

print("\nterminated after", outcome.iterations, "iterations:",
      outcome.converged)
for k in active:
    bits_ok = np.array_equal(outcome.decoded_bits[k], truth.info_bits[k])
    print("user %2d: declared %s, syndrome %s, bits %s, gain %.3f vs "
          "estimate %.3f" % (k, outcome.declared[k], outcome.syndrome_pass[k],
                             "ok" if bits_ok else "WRONG",
                             truth.gains[k], outcome.mu_h[k]))
fa = np.flatnonzero(outcome.declared & ~truth.active)
print("false alarms:", fa.tolist() if len(fa) else "none")
