"""Capacity bounds for quantum repeater networks.

End-to-end secret-key and entanglement-distribution capacities of repeater
networks, bracketed between an achievable rate and a converse bound on every
edge, with single-path (widest path) and multi-path (max-flow) routing,
noisy-device node splitting, weakly-regular lattice threshold theorems, and
CV-QKD receiver-noise models.

The package exports the Python API shown in the README; every other name is
importable from its module (``qnetcap.channels``, ``qnetcap.bounds``, ...).
"""

from .network import annotate_uniform, apply_split
from .routing import capacity_report, max_flow
from .wrn import WrnSpec, generate, min_nodal_density, threshold_report

__version__ = "0.1.0"

__all__ = [
    "WrnSpec",
    "annotate_uniform",
    "apply_split",
    "capacity_report",
    "generate",
    "max_flow",
    "min_nodal_density",
    "threshold_report",
]
