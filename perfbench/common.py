"""Input generation, reference physics and child-process timing for the benchmark.

Nothing here calls qdiscrim: the generators and the answer checks must
stay independent of the code path under test.
"""

from __future__ import annotations

import math
import os
import select
import subprocess
from dataclasses import dataclass, field

import numpy as np

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_WORKLOAD_KEYS = {"pe_sweep": 1, "perfect_decide": 2, "oracle_crosscheck": 3, "cli_cold": 4}


@dataclass(eq=False)
class Op:
    """One generated operation: what the program sees, and what the checks know."""

    index: int
    kind: str
    payload: dict
    truth: dict = field(default_factory=dict)
    tags: frozenset = frozenset()


def op_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    """Counter-based stream: op `index` of `workload` depends only on (seed, index)."""
    return np.random.default_rng([seed, _WORKLOAD_KEYS[workload], index])


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_kraus(rng: np.random.Generator, k: int, d: int = 2) -> np.ndarray:
    """k Gaussian operators made trace preserving through S^(-1/2), S = sum E^dag E."""
    raw = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    gram = np.einsum("kij,kil->jl", raw.conj(), raw)
    evals, evecs = np.linalg.eigh(gram)
    return raw @ (evecs @ np.diag(evals ** -0.5) @ evecs.conj().T)


def rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def affine_of_kraus(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bloch action (M, c) of a qubit operator sum, straight from the definition:
    M_kl = Tr(sigma_k E(sigma_l)) / 2 and c_k = Tr(sigma_k E(I)) / 2."""
    sigma = np.stack(SIGMA)
    images = np.einsum("kij,sjl,kml->sim", ops, sigma, ops.conj())
    overlaps = np.einsum("kab,lba->kl", sigma[1:], images).real / 2.0
    return overlaps[:, 1:], overlaps[:, 0]


def pauli_affine(q) -> tuple[np.ndarray, np.ndarray]:
    q = np.asarray(q, dtype=float)
    return np.diag([2.0 * (q[0] + q[i]) - 1.0 for i in (1, 2, 3)]), np.zeros(3)


# Bloch action of the named channels, from their textbook definitions.
NAMED_AFFINE = {
    "bit_flip": lambda p: (np.diag([1.0, 2 * p - 1, 2 * p - 1]), np.zeros(3)),
    "phase_flip": lambda p: (np.diag([2 * p - 1, 2 * p - 1, 1.0]), np.zeros(3)),
    "bit_phase_flip": lambda p: (np.diag([2 * p - 1, 1.0, 2 * p - 1]), np.zeros(3)),
    "depolarizing": lambda p: (np.diag([1 - p, 1 - p, 1 - p]), np.zeros(3)),
    "phase_damping": lambda p: (np.diag([math.sqrt(1 - p), math.sqrt(1 - p), 1.0]), np.zeros(3)),
    "amplitude_damping": lambda p: (np.diag([math.sqrt(1 - p), math.sqrt(1 - p), 1 - p]),
                                    np.array([0.0, 0.0, p])),
}


def fibonacci_grid(n: int) -> np.ndarray:
    """n points spread over the unit sphere (golden-angle spiral)."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    rad = np.sqrt(1.0 - z * z)
    phi = k * math.pi * (1.0 + math.sqrt(5.0))
    return np.column_stack([rad * np.cos(phi), rad * np.sin(phi), z])


def bloch_ket(r) -> np.ndarray:
    theta = math.acos(min(1.0, max(-1.0, float(r[2]))))
    phi = math.atan2(float(r[1]), float(r[0]))
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))])


def cross_ops(ops1, ops2, entangled: bool) -> list[np.ndarray]:
    mats = [a.conj().T @ b for a in ops1 for b in ops2]
    if entangled:
        eye = np.eye(mats[0].shape[0])
        mats = [np.kron(k, eye) for k in mats]
    return mats


def isotropy_residual(psi, ops) -> float:
    """max_K |<psi|K|psi>|: zero exactly when psi certifies perfect discrimination."""
    psi = np.asarray(psi, dtype=complex)
    return float(max(abs(psi.conj() @ k @ psi) for k in ops))


def unitary_with_spectrum(rng: np.random.Generator, u1: np.ndarray, angles) -> np.ndarray:
    """U2 such that U1^dag U2 has eigenvalues exp(i angles) in a Haar-random basis."""
    v = haar_unitary(rng, len(angles))
    return u1 @ (v @ np.diag(np.exp(1j * np.asarray(angles))) @ v.conj().T)


def hull_angles(rng: np.random.Generator, d: int, contains_origin: bool) -> np.ndarray:
    """Eigen-angles whose unit-circle points surround the origin or avoid it, with margin."""
    base = rng.uniform(0.0, 2.0 * math.pi)
    if contains_origin:
        if d == 2:
            return np.array([base, base + math.pi])
        return base + 2.0 * math.pi * np.arange(d) / d + rng.uniform(-0.2, 0.2, d)
    return base + np.sort(rng.uniform(0.0, math.pi - 0.3, d))


def complex_json(mat) -> list:
    """Complex array in the CLI's nested [re, im] form."""
    arr = np.asarray(mat, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def wait_child(child: subprocess.Popen, timeout: float):
    """Wait for a child process and return its exit code and resource usage.

    Blocks on a pidfd instead of polling (Popen.wait with a timeout sleeps
    in steps of up to 50 ms), so the caller's clock sees the exit when it
    happens. The child is killed after `timeout` seconds.
    """
    pidfd = os.pidfd_open(child.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
        if not ready:
            child.kill()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        os.close(pidfd)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage
