"""qdiscrim: discrimination of single-qubit quantum operations.

Exact minimum-error probabilities for distinguishing two channels with
unentangled probes, closed forms for Pauli channels, perfect-
distinguishability deciders, and brute-force oracles that cross-check
every analytic result.
"""

__version__ = "0.1.0"

from .channels import (
    AffineChannel,
    KrausChannel,
    gpc_channel,
    gpc_to_kraus,
    kraus_to_affine,
    named_channel,
    pauli_channel,
    pauli_to_affine,
)
from .discrim import PriorPair, min_error_probability, pauli_closed_form
from .oracle import helstrom_error_at, sampled_min_error, simulate_experiment
from .perfect import (
    cross_operators,
    gpc_perfect_entangled,
    numeric_isotropic_search,
    qubit_product_perfect,
    unitary_perfect,
)
from .sphereopt import grid_oracle, maximize_on_sphere

__all__ = [
    "AffineChannel",
    "KrausChannel",
    "PriorPair",
    "cross_operators",
    "gpc_channel",
    "gpc_perfect_entangled",
    "gpc_to_kraus",
    "grid_oracle",
    "helstrom_error_at",
    "kraus_to_affine",
    "maximize_on_sphere",
    "min_error_probability",
    "named_channel",
    "numeric_isotropic_search",
    "pauli_channel",
    "pauli_closed_form",
    "pauli_to_affine",
    "qubit_product_perfect",
    "sampled_min_error",
    "simulate_experiment",
    "unitary_perfect",
]
