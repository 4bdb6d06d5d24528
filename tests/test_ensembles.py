"""Two decompositions of one mixture and the basis that steers between them."""

import math

import numpy as np
import pytest

from qguess.bloch import ROUNDTRIP_TOL, QubitKet, density_from_mixture
from qguess.ensembles import (
    AliceBasis,
    aligned_distance,
    assemble_bipartite,
    build_psi,
    decomposition_from_alice_measurement,
    phase_aligned,
    rotated_alice_basis,
    standard_decomposition,
    symmetric_decomposition,
    tilt_angle,
)
from qguess.errors import (
    DegenerateEntanglementError,
    InvalidProbabilityError,
    InvalidStateError,
)

P_GRID = np.linspace(0.0, 1.0, 21)
# Alice's computational basis {|0>, |1>}
Z_BASIS = AliceBasis(QubitKet(1.0, 0.0), QubitKet(0.0, 1.0))


def test_build_psi_amplitudes():
    psi = build_psi(0.36)
    assert np.allclose(psi.amplitudes, [0.6, 0.0, 0.0, 0.8], atol=1e-12)
    with pytest.raises(InvalidProbabilityError):
        build_psi(1.2)
    with pytest.raises(InvalidProbabilityError):
        build_psi(-0.1)


def test_tilt_angle_endpoints():
    assert tilt_angle(1.0) == pytest.approx(0.0, abs=1e-12)
    assert tilt_angle(0.5) == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert tilt_angle(0.0) == pytest.approx(math.pi, abs=1e-12)


def test_decompositions_share_density_operator():
    for p in P_GRID:
        rho_std = density_from_mixture(standard_decomposition(p)).matrix
        rho_sym = density_from_mixture(symmetric_decomposition(p)).matrix
        assert np.max(np.abs(rho_std - rho_sym)) <= 1e-12


def test_symmetric_members_are_mirrored_in_y():
    sym = symmetric_decomposition(0.7)
    up, down = sym.directions
    assert up[0] == 0.0 and down[0] == 0.0
    assert up[1] == pytest.approx(-down[1], abs=1e-15)
    assert up[2] == pytest.approx(down[2], abs=1e-15)
    assert up[2] == pytest.approx(2.0 * 0.7 - 1.0, abs=1e-12)


def test_phase_alignment_distance():
    v = np.array([0.6, 0.8j])
    assert aligned_distance(v, v * np.exp(0.77j)) <= 1e-12
    assert np.allclose(phase_aligned(v * 1j), phase_aligned(v), atol=1e-12)


def test_rotated_basis_is_p_independent_and_closed_form():
    inv = 1.0 / math.sqrt(2.0)
    for p in (0.1, 0.5, 0.86):
        basis = rotated_alice_basis(p)
        assert np.allclose(basis.ket0.as_array(), [inv, -1j * inv], atol=1e-12)
        assert np.allclose(basis.ket1.as_array(), [inv, 1j * inv], atol=1e-12)


def test_rotated_basis_rejects_product_states():
    with pytest.raises(DegenerateEntanglementError):
        rotated_alice_basis(0.0)
    with pytest.raises(DegenerateEntanglementError):
        rotated_alice_basis(1.0)


def test_rotated_basis_reconstructs_shared_state():
    from qguess.bloch import ket_from_bloch

    for p in (0.2, 0.5, 0.9):
        psi = build_psi(p)
        basis = rotated_alice_basis(p)
        bob = tuple(
            ket_from_bloch(d) for d in
            (symmetric_decomposition(p).members[0][1], symmetric_decomposition(p).members[1][1])
        )
        rebuilt = assemble_bipartite((basis.ket0, basis.ket1), bob, (0.5, 0.5))
        assert aligned_distance(rebuilt.amplitudes, psi.amplitudes) <= ROUNDTRIP_TOL


def test_measurement_in_computational_basis_steers_standard_decomposition():
    for p in (0.3, 0.75):
        dec = decomposition_from_alice_measurement(build_psi(p), Z_BASIS)
        std = standard_decomposition(p)
        assert np.allclose(dec.weights, std.weights, atol=1e-12)
        assert np.allclose(dec.directions, std.directions, atol=1e-12)


def test_measurement_in_rotated_basis_steers_symmetric_decomposition():
    for p in (0.3, 0.5, 0.86):
        dec = decomposition_from_alice_measurement(build_psi(p), rotated_alice_basis(p))
        sym = symmetric_decomposition(p)
        assert np.allclose(dec.weights, sym.weights, atol=ROUNDTRIP_TOL)
        assert np.allclose(dec.directions, sym.directions, atol=ROUNDTRIP_TOL)


def test_product_state_measurement_drops_empty_outcome():
    dec = decomposition_from_alice_measurement(build_psi(1.0), Z_BASIS)
    assert len(dec.members) == 1
    assert dec.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_bipartite_state_requires_normalization():
    with pytest.raises(InvalidStateError):
        assemble_bipartite(
            (Z_BASIS.ket0, Z_BASIS.ket1),
            (Z_BASIS.ket0, Z_BASIS.ket1),
            (0.5, 0.4),
        )
