"""Brute-force verification of discrimination results.

Everything here is deliberately independent of the analytic machinery:
Helstrom error probabilities are evaluated directly from channel
outputs, optimal inputs are approached by seeded Haar sampling, and
measurement statistics are reproduced by Monte Carlo simulation with a
counter-based generator.  One pipeline serves every probe: a stack of
pure inputs goes through both channels at once, and a single probe is
a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, maximally_entangled
from .discrim import PriorPair
from .errors import DimensionMismatch, NotNormalized
from .linalg import require_finite

_NORM_TOL = 1e-9


@dataclass(eq=False)
class OracleEstimate:
    """Sampled upper bound on the minimum error probability."""

    p_error_estimate: float
    best_input: np.ndarray
    samples: int
    entangled: bool


def _check_psi(e1: KrausChannel, e2: KrausChannel, psi) -> np.ndarray:
    if e1.dim != e2.dim:
        raise DimensionMismatch(f"channel dimensions differ: {e1.dim} vs {e2.dim}")
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size not in (e1.dim, e1.dim ** 2):
        raise DimensionMismatch(
            f"state dimension {psi.size} matches neither {e1.dim} nor {e1.dim ** 2}")
    require_finite(psi, "input state psi")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > _NORM_TOL:
        raise NotNormalized(f"state norm is {norm}, expected 1")
    return psi


def _outputs(channel: KrausChannel, states: np.ndarray) -> np.ndarray:
    """Output states sum_k E_k |psi_n><psi_n| E_k^dag for a stack of pure inputs psi_n.

    Bipartite inputs (dimension d^2) go through channel x identity: as a
    d x d matrix Psi, the input maps to E_k Psi, so no E_k x I is built.
    The Kraus sum is B B^dag with the branches E_k psi_n as the columns of B.
    """
    n, size = states.shape
    branches = channel.ops[None] @ states.reshape(n, 1, channel.dim, -1)
    cols = branches.reshape(n, -1, size).swapaxes(1, 2)
    return cols @ cols.conj().swapaxes(1, 2)


def _batched_errors(e1: KrausChannel, e2: KrausChannel, priors: PriorPair,
                    states: np.ndarray) -> np.ndarray:
    """Helstrom errors (1 - ||p1 rho1 - p2 rho2||_1) / 2 for a stack of pure inputs.

    A 2x2 difference [[a, c], [c*, b]] has trace norm |l1| + |l2|, the larger
    of |a + b| and the eigenvalue gap hypot(a - b, 2|c|); larger ones go
    through eigvalsh.
    """
    diff = priors.p1 * _outputs(e1, states) - priors.p2 * _outputs(e2, states)
    if diff.shape[1] == 2:
        a, b = diff[:, 0, 0].real, diff[:, 1, 1].real
        norms = np.maximum(np.abs(a + b), np.hypot(a - b, 2.0 * np.abs(diff[:, 0, 1])))
    else:
        norms = np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=1)
    return (1.0 - norms) / 2.0


def helstrom_error_at(e1: KrausChannel, e2: KrausChannel, priors: PriorPair, psi) -> float:
    """Helstrom error (1 - ||p1 rho1 - p2 rho2||_1) / 2 at a fixed pure input.

    A bipartite psi (dimension d^2) is fed through channel x identity.
    """
    psi = _check_psi(e1, e2, psi)
    return float(_batched_errors(e1, e2, priors, psi[None])[0])


def _axis_states() -> np.ndarray:
    s = 1.0 / np.sqrt(2.0)
    return np.array([
        [1.0, 0.0],
        [0.0, 1.0],
        [s, s],
        [s, -s],
        [s, 1j * s],
        [s, -1j * s],
    ], dtype=complex)


def _deterministic_extras(dim: int, entangled: bool) -> np.ndarray:
    if dim == 2:
        single = _axis_states()
    else:
        single = np.eye(dim, dtype=complex)
    if not entangled:
        return single
    ancilla = np.zeros(dim, dtype=complex)
    ancilla[0] = 1.0
    embedded = np.stack([np.kron(psi, ancilla) for psi in single])
    return np.vstack([maximally_entangled(dim)[None, :], embedded])


def _haar_states(n: int, dim: int, seed: int) -> np.ndarray:
    """n Haar-random pure states; row i is a fixed function of (seed, i)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    # Each row's normals alternate real and imaginary parts.
    states = rng.standard_normal((n, 2 * dim)).view(complex)
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    return states


def sampled_min_error(e1: KrausChannel, e2: KrausChannel, priors: PriorPair,
                      n: int, entangled: bool, seed: int) -> OracleEstimate:
    """Minimum Helstrom error over n seeded Haar inputs plus deterministic extras.

    Product mode always includes the six Bloch axis states; entangled
    mode always includes the maximally entangled state and the axis
    states tensored with |0>, so the estimate never misses the
    certificates the analytic modules produce.  The result is an upper
    bound on the true optimum.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if e1.dim != e2.dim:
        raise DimensionMismatch(f"channel dimensions differ: {e1.dim} vs {e2.dim}")
    dim = e1.dim * e1.dim if entangled else e1.dim
    states = np.vstack([_deterministic_extras(e1.dim, entangled), _haar_states(n, dim, seed)])
    errors = _batched_errors(e1, e2, priors, states)
    best = int(np.argmin(errors))
    return OracleEstimate(
        p_error_estimate=float(errors[best]),
        best_input=states[best].copy(),
        samples=int(states.shape[0]),
        entangled=bool(entangled),
    )


def simulate_experiment(e1: KrausChannel, e2: KrausChannel, priors: PriorPair,
                        psi, trials: int, seed: int) -> float:
    """Empirical error frequency of the Helstrom measurement at input psi.

    Each trial draws a channel with its prior, feeds psi through it, and
    measures {P+, 1 - P+} where P+ projects on the nonnegative eigenspace
    of p1 rho1 - p2 rho2 (zero eigenvalues count as positive); outcome P+
    is the guess for channel 1.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    psi = _check_psi(e1, e2, psi)
    rho1, rho2 = _outputs(e1, psi[None])[0], _outputs(e2, psi[None])[0]
    diff = priors.p1 * rho1 - priors.p2 * rho2
    eigvals, eigvecs = np.linalg.eigh(diff)
    positive = eigvecs[:, eigvals >= -1e-12]
    projector = positive @ positive.conj().T
    hit1 = float(np.real(np.trace(projector @ rho1)))
    hit2 = float(np.real(np.trace(projector @ rho2)))

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    picks_first = rng.random(trials) < priors.p1
    outcomes_plus = rng.random(trials) < np.where(picks_first, hit1, hit2)
    errors = np.where(picks_first, ~outcomes_plus, outcomes_plus)
    return float(np.mean(errors))
