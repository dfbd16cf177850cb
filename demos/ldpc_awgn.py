"""BER of the standalone rate-0.6 LDPC component over a BPSK AWGN channel.

This is the inner code every user runs; the joint receiver wraps one
sum-product iteration of it into each outer iteration.
"""
import numpy as np

from gfrma import ldpc

pc = ldpc.construct_parity_check(m=240, code_rate=0.6, d_v=3, seed=7)
print("code: n =", pc.n, " checks =", pc.n_checks,
      " check degrees:", [d for d, _, _ in pc.layout.classes])

rng = np.random.default_rng(0)
blocks = 80

for ebn0_db in (2.0, 3.0, 4.0, 5.0, 6.0):
    sigma2 = 1.0 / (2 * 0.6 * 10 ** (ebn0_db / 10))
    errors = 0
    fails = 0
    for _ in range(blocks):
        info = rng.integers(0, 2, pc.m).astype(np.uint8)
        cw = ldpc.encode(info, pc)
        y = ldpc.bits_to_symbols(cw) + rng.normal(0, np.sqrt(sigma2), pc.n)
        hard, ok, _ = ldpc.bp_decode(pc, 2 * y / sigma2, max_iter=50)
        errors += int(np.sum(hard[:pc.m] != info))
        fails += int(not ok)
    print("Eb/N0 %.1f dB:  BER %.2e   decode failures %d/%d"
          % (ebn0_db, errors / (blocks * pc.m), fails, blocks))
