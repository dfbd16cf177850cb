"""The numerics fingerprint: which way this numpy's transcendental kernels
round.

numpy picks its exp, log, arctanh, tanh, log1p and expm1 kernels by the
CPU's SIMD level at import, and the levels round differently, so the golden
digests hold the bits of one (numpy version, fingerprint) pair. Run as a
script, it prints the fingerprint, the numpy version and the SIMD level:

    python tests/numerics.py
"""
import hashlib

import numpy as np

# a fixed probe vector inside (-1, 1), so that every function below is
# finite on it; the scaled copies reach each kernel's range-reduction paths
_PROBE = np.linspace(-0.999, 0.999, 4001)


def fingerprint():
    """First 16 hex digits of the sha256 of exp, log, arctanh, tanh, log1p
    and expm1 on the probe vector."""
    wide = 40.0 * _PROBE
    h = hashlib.sha256()
    for out in (np.exp(wide), np.log(40.0 * (_PROBE + 1.0)),
                np.arctanh(_PROBE), np.tanh(wide), np.log1p(_PROBE),
                np.expm1(wide)):
        h.update(out.tobytes())
    return h.hexdigest()[:16]


def simd_found():
    """The SIMD dispatch targets numpy found on this CPU, as
    numpy.show_runtime lists them under "found"."""
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def describe():
    """One line naming the fingerprint, the numpy version and the SIMD
    dispatch targets found."""
    return (f"numerics fingerprint {fingerprint()}, numpy {np.__version__}, "
            f"SIMD found {' '.join(simd_found()) or '(none)'}")


if __name__ == "__main__":
    print(describe())
