"""Minimum-error discrimination of two single-qubit channels.

The error probability of the best single-shot, unentangled strategy is
(1 - max{|p1 - p2|, max_{||r||=1} ||M r + c||}) / 2 with
M = p1 M1 - p2 M2 and c = p1 c1 - p2 c2.  When the prior bias already
dominates, guessing the likelier channel is optimal and no input state
or measurement is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import AffineChannel
from .linalg import require_distribution
from .sphereopt import maximize_on_sphere

REGIME_GUESS_PRIOR = "guess_prior"
REGIME_MEASURE = "measure"

_AXIS_VECTORS = (np.array([1.0, 0.0, 0.0]),
                 np.array([0.0, 1.0, 0.0]),
                 np.array([0.0, 0.0, 1.0]))


@dataclass(frozen=True)
class PriorPair:
    """A priori probabilities (p1, p2) of the two channels."""

    p1: float
    p2: float

    def __post_init__(self):
        require_distribution([self.p1, self.p2], 2, "priors (p1, p2)")

    @classmethod
    def from_p1(cls, p1: float) -> "PriorPair":
        return cls(float(p1), 1.0 - float(p1))

    @property
    def bias(self) -> float:
        return abs(self.p1 - self.p2)


@dataclass(eq=False)
class DiscriminationResult:
    """Outcome of a minimum-error discrimination problem."""

    p_error: float
    regime: str
    optimal_bloch: np.ndarray | None
    trace_norm_at_opt: float


def _verdict(bias: float, reach: float, priors: PriorPair,
             optimal: np.ndarray | None) -> DiscriminationResult:
    # Exact ties go to the guess-the-prior regime: no measurement needed.
    if bias >= reach:
        return DiscriminationResult(
            p_error=min(priors.p1, priors.p2),
            regime=REGIME_GUESS_PRIOR,
            optimal_bloch=None,
            trace_norm_at_opt=bias,
        )
    return DiscriminationResult(
        p_error=(1.0 - reach) / 2.0,
        regime=REGIME_MEASURE,
        optimal_bloch=optimal,
        trace_norm_at_opt=reach,
    )


def min_error_probability(e1: AffineChannel, e2: AffineChannel,
                          priors: PriorPair) -> DiscriminationResult:
    """Minimum single-shot error probability for two qubit channels."""
    m = priors.p1 * e1.m - priors.p2 * e2.m
    c = priors.p1 * e1.c - priors.p2 * e2.c
    best = maximize_on_sphere(m, c)
    return _verdict(priors.bias, best.value, priors, best.argmax)


def pauli_closed_form(q1, q2, priors: PriorPair) -> DiscriminationResult:
    """Closed form for two Pauli channels.

    With r_i = p1 q1_i - p2 q2_i the Bloch difference matrix is diagonal
    with entries (r0+r1-r2-r3, r0+r2-r1-r3, r0+r3-r1-r2), so its spectral
    norm is the largest |entry| and the optimal probe is the matching
    coordinate axis (first of x, y, z on ties).
    """
    q1 = require_distribution(q1, 4, "probabilities q1")
    q2 = require_distribution(q2, 4, "probabilities q2")
    r = priors.p1 * q1 - priors.p2 * q2
    entries = np.array([
        r[0] + r[1] - r[2] - r[3],
        r[0] + r[2] - r[1] - r[3],
        r[0] + r[3] - r[1] - r[2],
    ])
    axis = int(np.argmax(np.abs(entries)))
    reach = float(np.abs(entries)[axis])
    return _verdict(priors.bias, reach, priors, _AXIS_VECTORS[axis].copy())


def pauli_sacchi_form(q1, q2, priors: PriorPair) -> float:
    """Pairwise-sum form of the Pauli channel error probability.

    Computes (1 - M) / 2 with
    M = max{|r0+r3|+|r1+r2|, |r0+r1|+|r2+r3|, |r0+r2|+|r1+r3|}.  Because
    (|a+b|+|a-b|)/2 = max{|a|,|b|} and p1 - p2 = r0+r1+r2+r3, this is
    identical to the closed form above; the tests check the agreement.
    """
    q1 = require_distribution(q1, 4, "probabilities q1")
    q2 = require_distribution(q2, 4, "probabilities q2")
    r = priors.p1 * q1 - priors.p2 * q2
    m_value = max(
        abs(r[0] + r[3]) + abs(r[1] + r[2]),
        abs(r[0] + r[1]) + abs(r[2] + r[3]),
        abs(r[0] + r[2]) + abs(r[1] + r[3]),
    )
    return (1.0 - m_value) / 2.0
