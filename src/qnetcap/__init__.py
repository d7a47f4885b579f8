"""Capacity bounds for quantum repeater networks.

End-to-end secret-key and entanglement-distribution capacities of repeater
networks, bracketed between an achievable rate and a converse bound on every
edge, with single-path (widest path) and multi-path (max-flow) routing,
noisy-device node splitting, weakly-regular lattice threshold theorems, and
CV-QKD receiver-noise models.

The package exports the Python API shown in the README; every other name is
importable from its module (``qnetcap.channels``, ``qnetcap.bounds``, ...).
An exported name imports its module on first use, so ``import qnetcap``
alone loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module it lives in.
_HOME = {
    "WrnSpec": "wrn",
    "annotate_uniform": "network",
    "apply_split": "network",
    "capacity_report": "routing",
    "generate": "wrn",
    "max_flow": "routing",
    "min_nodal_density": "wrn",
    "threshold_report": "wrn",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
