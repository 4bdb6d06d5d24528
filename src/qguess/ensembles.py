"""Two ensemble decompositions of one qubit mixture, steered through entanglement.

A bipartite state sqrt(p)|0>|z+> + sqrt(1-p)|1>|z-> leaves the remote qubit in
the mixture p|z+><z+| + (1-p)|z-><z-|. The same mixture also decomposes as an
equal blend of the two tilted pure states t-hat = (0, sin t, cos t) and
t-hat' = (0, -sin t, cos t) with cos t = 2p - 1, and a measurement on the
other side in a suitably rotated basis realizes exactly that second
decomposition. This module builds all three objects and the rotated basis,
which is derived by a linear solve rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .bloch import (
    ALGEBRA_TOL,
    ROUNDTRIP_TOL,
    BlochVector,
    EnsembleDecomposition,
    QubitKet,
    Z_AXIS,
    bloch_from_ket,
    ket_from_bloch,
)
from .errors import (
    DegenerateEntanglementError,
    InvalidProbabilityError,
    InvalidStateError,
)

# weight below which a measurement outcome is dropped from the decomposition
NEGLIGIBLE_WEIGHT = 1e-14


@dataclass(frozen=True)
class BipartiteState:
    """Two-qubit pure state, stored as the 2x2 amplitude matrix M[alice, bob].

    The flat amplitude order is the product basis
    (|0>|z+>, |0>|z->, |1>|z+>, |1>|z->).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidStateError(f"bipartite amplitudes must be 2x2, got shape {m.shape}")
        norm2 = float(np.sum(np.abs(m) ** 2))
        if not abs(norm2 - 1.0) <= ALGEBRA_TOL:
            raise InvalidStateError(f"state must be normalized, got norm^2={norm2!r}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def amplitudes(self) -> np.ndarray:
        """Flat 4-vector over the fixed product basis."""
        return self.matrix.reshape(-1)


@dataclass(frozen=True)
class AliceBasis:
    """Orthonormal measurement basis on the steering side."""

    ket0: QubitKet
    ket1: QubitKet

    def __post_init__(self):
        if abs(self.ket0.inner(self.ket1)) > ALGEBRA_TOL:
            raise InvalidStateError("basis kets must be orthogonal")


def _check_probability(p: float) -> float:
    streams.require_real("probability", p)
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise InvalidProbabilityError(f"probability must lie in [0, 1], got {p}")
    return p


def build_psi(p: float) -> BipartiteState:
    """The shared state with amplitudes (sqrt(p), 0, 0, sqrt(1-p))."""
    p = _check_probability(p)
    return BipartiteState(np.array([[math.sqrt(p), 0.0], [0.0, math.sqrt(1.0 - p)]]))


def standard_decomposition(p: float) -> EnsembleDecomposition:
    """Mixture of the poles: {(p, z+), (1-p, z-)}; zero-weight members kept."""
    p = _check_probability(p)
    return EnsembleDecomposition(((p, Z_AXIS), (1.0 - p, Z_AXIS.antipode())))


def tilt_angle(p: float) -> float:
    """Polar angle t of the symmetric decomposition: cos t = 2p - 1."""
    return math.acos(min(1.0, max(-1.0, 2.0 * _check_probability(p) - 1.0)))


def symmetric_decomposition(p: float) -> EnsembleDecomposition:
    """Equal mixture of the tilted pair in the y-z plane.

    t-hat = (0, sin t, cos t) and t-hat' = (0, -sin t, cos t) with
    cos t = 2p - 1; sin t is computed as 2 sqrt(p(1-p)) which is exact at the
    endpoints.
    """
    p = _check_probability(p)
    cos_t = 2.0 * p - 1.0
    sin_t = 2.0 * math.sqrt(p * (1.0 - p))
    up = BlochVector.normalized(0.0, sin_t, cos_t)
    down = BlochVector.normalized(0.0, -sin_t, cos_t)
    return EnsembleDecomposition(((0.5, up), (0.5, down)))


def assemble_bipartite(
    alice_kets: tuple[QubitKet, QubitKet],
    bob_kets: tuple[QubitKet, QubitKet],
    weights: tuple[float, float],
) -> BipartiteState:
    """Sum_i sqrt(w_i) |a_i>|b_i> as a BipartiteState."""
    m = np.zeros((2, 2), dtype=complex)
    for w, a, b in zip(weights, alice_kets, bob_kets):
        m += math.sqrt(w) * np.outer(a.as_array(), b.as_array())
    return BipartiteState(m)


def phase_aligned(vec: np.ndarray) -> np.ndarray:
    """Remove the global phase: rotate so the largest-magnitude entry is real positive."""
    vec = np.asarray(vec, dtype=complex)
    idx = int(np.argmax(np.abs(vec)))
    anchor = vec[idx]
    if anchor == 0:
        return vec.copy()
    return vec * (anchor.conjugate() / abs(anchor))


def aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two amplitude vectors after phase alignment."""
    return float(np.linalg.norm(phase_aligned(a) - phase_aligned(b)))


def rotated_alice_basis(p: float) -> AliceBasis:
    """Basis {|0'>, |1'>} steering the symmetric decomposition.

    Solves V = sqrt(2) M (U^T)^{-1} where M holds the shared-state amplitudes
    and U's columns are the tilted Bob kets; the columns of V are the basis.
    A single global phase canonicalizes |0'> (per-ket rephasing would break
    the reconstruction identity). For every p the solution comes out as
    {(|0> - i|1>)/sqrt2, (|0> + i|1>)/sqrt2}.
    """
    p = _check_probability(p)
    if p in (0.0, 1.0):
        raise DegenerateEntanglementError(
            "p in {0, 1} gives a product state; no second decomposition basis exists"
        )
    psi = build_psi(p)
    sym = symmetric_decomposition(p)
    bob_kets = [ket_from_bloch(d) for _, d in sym.members]
    u = np.stack([k.as_array() for k in bob_kets], axis=1)
    v = math.sqrt(2.0) * psi.matrix @ np.linalg.inv(u.T)

    anchor = v[0, 0]
    if abs(anchor) < 1e-6:  # ket convention falls back to amp1 when amp0 vanishes
        anchor = v[1, 0]
    v = v * (anchor.conjugate() / abs(anchor))

    gram = v.conj().T @ v
    if not np.allclose(gram, np.eye(2), rtol=0.0, atol=1e-10):
        raise InvalidStateError(f"solved basis is not orthonormal: gram={gram}")
    basis = AliceBasis(QubitKet(*v[:, 0]), QubitKet(*v[:, 1]))

    rebuilt = assemble_bipartite((basis.ket0, basis.ket1), tuple(bob_kets), (0.5, 0.5))
    err = aligned_distance(rebuilt.amplitudes, psi.amplitudes)
    if err > ROUNDTRIP_TOL:
        raise InvalidStateError(f"basis does not reconstruct the shared state, error {err}")
    return basis


def decomposition_from_alice_measurement(
    psi: BipartiteState, basis: AliceBasis
) -> EnsembleDecomposition:
    """Ensemble steered onto Bob by measuring Alice's qubit in `basis`.

    Each outcome contributes (outcome probability, Bloch vector of Bob's
    conditional pure state); outcomes with probability below 1e-14 are
    omitted.
    """
    members = []
    for ket in (basis.ket0, basis.ket1):
        bob = ket.as_array().conj() @ psi.matrix
        prob = float(np.sum(np.abs(bob) ** 2))
        if prob < NEGLIGIBLE_WEIGHT:
            continue
        direction = bloch_from_ket(QubitKet.from_amplitudes(*bob))
        members.append((prob, direction))
    return EnsembleDecomposition(tuple(members))
