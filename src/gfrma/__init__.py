"""Grant-free rateless multiple access: simulator and DE analyzer."""

from .config import (SystemConfig, noise_variance_for_snr, racf_mean_degree,
                     throughput, validate_config)
from .pattern import AccessGraph, build_access_graph, derive_draw
from .receiver import TrialOutcome, joint_decode

__all__ = [
    "SystemConfig", "noise_variance_for_snr", "racf_mean_degree",
    "throughput", "validate_config", "AccessGraph", "build_access_graph",
    "derive_draw", "TrialOutcome", "joint_decode",
]
