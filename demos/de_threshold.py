"""Density-evolution view of the system: J-function, MI trajectory, and
the threshold SNR below which the joint iteration cannot converge.
"""
import numpy as np

from gfrma import de
from gfrma.config import db_to_linear, noise_variance_for_snr
from gfrma.harness import DESK_CONFIG, expected_active_gains

cfg = DESK_CONFIG
gains = expected_active_gains(cfg)

print("J-function samples:",
      " ".join("J(%g)=%.4f" % (x, de.j_function(x)) for x in (0.5, 1, 2, 4)))

th = de.threshold_search(cfg, gains, tol_db=0.05)
print("threshold SNR for %d active users: %.2f dB" % (len(gains), th))

for delta in (-1.0, 0.5, 2.0):
    gamma_db = th + delta
    xi_w = noise_variance_for_snr(cfg, db_to_linear(gamma_db), gains)
    trace = list(de.states(cfg.with_noise_variance(xi_w), gains))
    mi = [float(np.min(st.mi)) for st in trace]
    tail = " -> ".join("%.3f" % v for v in mi[:6])
    print("%+.1f dB from threshold: %3d iterations, MI %s ... %.4f"
          % (delta, len(trace) - 1, tail, mi[-1]))
