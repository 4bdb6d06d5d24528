"""Geometry and state-algebra invariants."""

import math

import numpy as np
import pytest

from qguess.bloch import (
    ALGEBRA_TOL,
    ROUNDTRIP_TOL,
    BlochVector,
    DensityOperator,
    EnsembleDecomposition,
    QubitKet,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    angle_between,
    angles_between,
    bloch_from_ket,
    density_from_mixture,
    directions_at_angle,
    dots,
    ket_from_bloch,
    orthonormal_frames,
    overlap2,
    random_directions,
)
from qguess.errors import (
    InvalidDirectionError,
    InvalidEnsembleError,
    InvalidStateError,
)
from qguess.streams import substream


def test_bloch_vector_requires_unit_length():
    with pytest.raises(InvalidDirectionError):
        BlochVector(0.5, 0.5, 0.5)
    with pytest.raises(InvalidDirectionError):
        BlochVector.normalized(0.0, 0.0, 0.0)
    v = BlochVector.normalized(3.0, 4.0, 12.0)
    assert abs(v.dot(v) - 1.0) <= ALGEBRA_TOL


def test_antipode_and_dot():
    v = BlochVector.normalized(1.0, -2.0, 0.5)
    assert v.antipode().dot(v) == pytest.approx(-1.0, abs=ALGEBRA_TOL)
    assert overlap2(v, v.antipode()) == pytest.approx(0.0, abs=ALGEBRA_TOL)
    assert overlap2(v, v) == pytest.approx(1.0, abs=ALGEBRA_TOL)


def test_ket_phase_convention_enforced():
    with pytest.raises(InvalidStateError):
        QubitKet(1j, 0.0)  # amp0 must be real
    with pytest.raises(InvalidStateError):
        QubitKet(-1.0, 0.0)  # amp0 must be >= 0
    with pytest.raises(InvalidStateError):
        QubitKet(0.0, -1.0)  # amp1 must be real positive at the pole
    with pytest.raises(InvalidStateError):
        QubitKet(1.0, 1.0)  # not normalized


def test_from_amplitudes_canonicalizes_global_phase():
    raw0, raw1 = 0.6 * np.exp(1.3j), 0.8 * np.exp(1.3j) * np.exp(0.4j)
    k = QubitKet.from_amplitudes(raw0, raw1)
    assert k.amp0 == pytest.approx(0.6, abs=ALGEBRA_TOL)
    assert k.amp1 == pytest.approx(0.8 * np.exp(0.4j), abs=1e-12)
    # pole state: phase moves to amp1
    k2 = QubitKet.from_amplitudes(0.0, -1j)
    assert k2.amp0 == 0.0
    assert k2.amp1 == pytest.approx(1.0, abs=ALGEBRA_TOL)


def test_ket_bloch_round_trip():
    for row in random_directions(substream(1), 200):
        v = BlochVector.from_array(row)
        back = bloch_from_ket(ket_from_bloch(v))
        assert abs(back.x - v.x) <= ROUNDTRIP_TOL
        assert abs(back.y - v.y) <= ROUNDTRIP_TOL
        assert abs(back.z - v.z) <= ROUNDTRIP_TOL


def test_poles_are_exact():
    up = ket_from_bloch(Z_AXIS)
    down = ket_from_bloch(Z_AXIS.antipode())
    assert (up.amp0, up.amp1) == (1.0, 0.0)
    assert (down.amp0, down.amp1) == (0.0, 1.0)


def test_overlap2_matches_inner_product():
    rng = substream(2)
    for ra, rb in zip(random_directions(rng, 100), random_directions(rng, 100)):
        a, b = BlochVector.from_array(ra), BlochVector.from_array(rb)
        inner = ket_from_bloch(a).inner(ket_from_bloch(b))
        assert overlap2(a, b) == pytest.approx(abs(inner) ** 2, abs=ROUNDTRIP_TOL)


def test_overlap2_is_half_angle_cosine():
    rng = substream(3)
    for ra, rb in zip(random_directions(rng, 100), random_directions(rng, 100)):
        a, b = BlochVector.from_array(ra), BlochVector.from_array(rb)
        t = angle_between(a, b)
        assert overlap2(a, b) == pytest.approx(math.cos(t / 2.0) ** 2, abs=ROUNDTRIP_TOL)


def test_density_operator_validation():
    with pytest.raises(InvalidStateError):
        DensityOperator(np.array([[1.0, 0.5j], [0.5j, 0.0]]))  # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(InvalidStateError):
        DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue


def test_pure_state_density_recovers_direction():
    for row in random_directions(substream(4), 50):
        v = BlochVector.from_array(row)
        ens = EnsembleDecomposition(((1.0, v),))
        r = density_from_mixture(ens).bloch_vector()
        assert np.allclose(r, v.as_array(), atol=ROUNDTRIP_TOL)


def test_ensemble_validation():
    with pytest.raises(InvalidEnsembleError):
        EnsembleDecomposition(())
    with pytest.raises(InvalidEnsembleError):
        EnsembleDecomposition(((0.5, Z_AXIS), (0.4, X_AXIS)))  # sums to 0.9
    with pytest.raises(InvalidEnsembleError):
        EnsembleDecomposition(((1.5, Z_AXIS), (-0.5, X_AXIS)))


def test_random_directions_uniform_moments():
    v = random_directions(substream(10), 200_000)
    assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) <= 1e-12
    # first moments vanish, z^2 averages 1/3 for the uniform measure
    assert np.max(np.abs(v.mean(axis=0))) < 0.01
    assert abs((v[:, 2] ** 2).mean() - 1.0 / 3.0) < 0.005


def test_batch_kernels_match_scalars():
    rng = substream(5)
    a = random_directions(rng, 64)
    b = random_directions(rng, 64)
    sa = [BlochVector.from_array(r) for r in a]
    sb = [BlochVector.from_array(r) for r in b]
    assert np.allclose(dots(a, b), [u.dot(v) for u, v in zip(sa, sb)], atol=1e-12)
    assert np.allclose(
        angles_between(a, b), [angle_between(u, v) for u, v in zip(sa, sb)], atol=1e-12
    )


def test_orthonormal_frames_cover_awkward_axes():
    axes = np.array(
        [
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
            [1.0, 0.0, 0.0],  # x-dominant row switches helper to y-hat
            [0.96, 0.28, 0.0],
            [0.0, 1.0, 0.0],
        ]
    )
    e1, e2 = orthonormal_frames(axes)
    for i in range(len(axes)):
        for u, v in ((e1[i], e2[i]), (e1[i], axes[i]), (e2[i], axes[i])):
            assert abs(float(u @ v)) <= 1e-12
        assert np.linalg.norm(e1[i]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(e2[i]) == pytest.approx(1.0, abs=1e-12)


def test_directions_at_angle_hits_requested_angle():
    rng = substream(6)
    axes = random_directions(rng, 500)
    cos_t = rng.uniform(-1.0, 1.0, size=500)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=500)
    out = directions_at_angle(axes, cos_t, phi)
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-12
    assert np.allclose(dots(out, axes), cos_t, atol=1e-12)


def test_axes_constants():
    assert Z_AXIS.dot(X_AXIS) == 0.0
    assert Z_AXIS.dot(Y_AXIS) == 0.0
    assert X_AXIS.dot(Y_AXIS) == 0.0
