"""One grant-free trial under the microscope.

Builds a desk-scale block, runs the joint receiver, and prints how the
activity posteriors and channel estimates evolve iteration by iteration.
The table reads the views that receiver.iterate yields to the receiver's
stop rule, so the block is decoded once.
"""
import itertools

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

views = []


def kept(stream):
    """stream's views, each also appended to views as it is read."""
    for v in stream:
        views.append(v)
        yield v


# joint_decode's run, spelt out so that the views it reads are kept
outcome = receiver.stop_rule(cfg, pc, kept(itertools.islice(
    receiver.iterate(cfg, y, graph, pc), cfg.max_iterations)))

print("\niter   q (active users)          mu_h (active)        max q inactive")
for v in views[:10] + views[10:][-1:]:      # the first ten and the last
    qa = " ".join("%.3f" % v.q[k] for k in active)
    mh = " ".join("%.3f" % v.mu_h[k] for k in active)
    qi = v.q[~truth.active].max()
    print("%4d   %-24s  %-20s  %.4f" % (v.n, qa, mh, qi))

print("\nterminated after", outcome.iterations, "iterations:",
      outcome.converged)
for k in active:
    bits_ok = np.array_equal(outcome.decoded_bits[k], truth.info_bits[k])
    print("user %2d: declared %s, bits %s, gain %.3f vs estimate %.3f"
          % (k, outcome.declared[k], "ok" if bits_ok else "WRONG",
             truth.gains[k], outcome.mu_h[k]))
fa = np.flatnonzero(outcome.declared & ~truth.active)
print("false alarms:", fa.tolist() if len(fa) else "none")
