"""Geometry and state-algebra invariants."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qguess
from qguess.bloch import (
    ALGEBRA_TOL,
    ROUNDTRIP_TOL,
    BlochVector,
    DensityOperator,
    EnsembleDecomposition,
    QubitKet,
    Z_AXIS,
    _cos_sin,
    angles_between,
    bloch_from_ket,
    density_from_mixture,
    directions_at_angle,
    dots,
    ket_from_bloch,
    orthonormal_frames,
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
    assert abs(math.fsum((v.x * v.x, v.y * v.y, v.z * v.z)) - 1.0) <= ALGEBRA_TOL


def test_antipode_and_dot():
    v = BlochVector.normalized(1.0, -2.0, 0.5)
    w = v.antipode()
    assert (w.x, w.y, w.z) == (-v.x, -v.y, -v.z)
    assert dots(np.array([[v.x, v.y, v.z]]), np.array([[w.x, w.y, w.z]]))[0] == pytest.approx(
        -1.0, abs=ALGEBRA_TOL
    )
    # antipodal Bloch vectors are orthogonal kets; a ket overlaps itself fully
    k = ket_from_bloch(v)
    assert abs(k.inner(ket_from_bloch(w))) ** 2 == pytest.approx(0.0, abs=ALGEBRA_TOL)
    assert abs(k.inner(k)) ** 2 == pytest.approx(1.0, abs=ALGEBRA_TOL)


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
        v = BlochVector(*row.tolist())
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
    # |<a|b>|^2 = (1 + a.b)/2, row by row
    rng = substream(2)
    a, b = random_directions(rng, 100), random_directions(rng, 100)
    expected = (1.0 + dots(a, b)) / 2.0
    for ra, rb, e in zip(a.tolist(), b.tolist(), expected):
        inner = ket_from_bloch(BlochVector(*ra)).inner(ket_from_bloch(BlochVector(*rb)))
        assert abs(inner) ** 2 == pytest.approx(e, abs=ROUNDTRIP_TOL)


def test_density_operator_validation():
    with pytest.raises(InvalidStateError):
        DensityOperator(np.array([[1.0, 0.5j], [0.5j, 0.0]]))  # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(InvalidStateError):
        DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue


def test_pure_state_density_recovers_direction():
    # rho = (I + r.sigma)/2 = [[1 + z, x - iy], [x + iy, 1 - z]] / 2
    for x, y, z in random_directions(substream(4), 50).tolist():
        ens = EnsembleDecomposition(((1.0, BlochVector(x, y, z)),))
        expected = np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]]) / 2.0
        assert np.allclose(density_from_mixture(ens).matrix, expected, rtol=0.0, atol=ROUNDTRIP_TOL)


def test_ensemble_validation():
    with pytest.raises(InvalidEnsembleError):
        EnsembleDecomposition(())
    with pytest.raises(InvalidEnsembleError):
        EnsembleDecomposition(((0.5, Z_AXIS), (0.4, BlochVector(1.0, 0.0, 0.0))))  # sums to 0.9
    with pytest.raises(InvalidEnsembleError):
        EnsembleDecomposition(((1.5, Z_AXIS), (-0.5, BlochVector(1.0, 0.0, 0.0))))


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
    d = [
        min(1.0, max(-1.0, math.fsum(p * q for p, q in zip(u, v))))
        for u, v in zip(a.tolist(), b.tolist())
    ]
    assert np.allclose(dots(a, b), d, atol=1e-12)
    assert np.allclose(angles_between(a, b), [math.acos(c) for c in d], atol=1e-12)


def test_orthonormal_frames_cover_awkward_axes():
    axes = np.array(
        [
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
            [1.0, 0.0, 0.0],
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
    h = rng.uniform(-1.0, 1.0, size=500)
    out = directions_at_angle(axes, cos_t, h)
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-12
    assert np.allclose(dots(out, axes), cos_t, atol=1e-12)


# ---------------------------------------------------------------------------
# the azimuth pair of stream contract 5: half-turns h, phi = pi*h, with
# cos(phi) = sin(pi*(1/2 - |h|)) and sin(phi) from cos(phi)

def test_cos_sin_of_half_turns_against_a_long_double_reference():
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("long double is no wider than double here")
    h = substream(30).uniform(-1.0, 1.0, size=1 << 22)
    c, s = _cos_sin(h)
    hl = h.astype(np.longdouble)
    pi = np.arccos(np.longdouble(-1.0))
    # cos(pi*h) through the exact identity cos(pi*h) = sin(pi*(1/2 - |h|)),
    # which keeps the reference's relative precision near the zeros of cos;
    # np.cos of pi*h in long double checks the identity itself
    cos_ref = np.sin(pi * (0.5 - np.abs(hl)))
    sin_ref = np.sin(pi * hl)
    assert np.max(np.abs(cos_ref - np.cos(pi * hl))) <= 1e-18
    # c within 2 ulp (1.8 seen): the argument's one rounding, 2^-53 relative
    # plus 3.9e-17 from the double pi, adds to that of np.sin
    ulp = np.spacing(np.abs(cos_ref.astype(float)))
    assert np.max(np.abs(c - cos_ref) / ulp) <= 2.0
    assert np.max(np.abs(c * c + s * s - 1.0)) <= 2.0**-52
    decided = np.abs(sin_ref) >= 1e-15
    assert np.array_equal(np.signbit(s[decided]), np.signbit(sin_ref[decided]))
    # the rounding of c is what 1 - c loses where |sin(phi)| is small
    sin_ref = sin_ref.astype(float)
    with np.errstate(divide="ignore"):
        assert np.all(np.abs(s - sin_ref) <= 2.0**-53 / np.abs(sin_ref) + 2.0**-51)


def test_cos_sin_is_exact_on_the_axes():
    c, s = _cos_sin(np.array([-1.0, -0.5, 0.0, 0.5]))
    # signs of zeros included: cos(-pi) = -1 with sin -0, and cos(+-pi/2) = +0
    assert c.tobytes() == np.array([-1.0, 0.0, 1.0, 0.0]).tobytes()
    assert s.tobytes() == np.array([-0.0, -1.0, 0.0, 1.0]).tobytes()


# numpy reads NPY_DISABLE_CPU_FEATURES once, at import, so the other SIMD
# level runs in a child process
AZIMUTH_DIGESTS = """
import hashlib
from qguess import bloch, streams
h = streams.substream(31).uniform(-1.0, 1.0, size=1 << 16)
for a in (*bloch._cos_sin(h), bloch.random_directions(streams.substream(32), 1 << 16)):
    print(hashlib.sha256(a.tobytes()).hexdigest())
"""


def test_cos_sin_and_random_directions_keep_their_bytes_at_avx2():
    h = substream(31).uniform(-1.0, 1.0, size=1 << 16)
    arrays = (*_cos_sin(h), random_directions(substream(32), 1 << 16))
    here = "".join(hashlib.sha256(a.tobytes()).hexdigest() + "\n" for a in arrays)
    src = str(Path(qguess.__file__).resolve().parent.parent)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", AZIMUTH_DIGESTS], env=env, capture_output=True, text=True, check=True)
    assert child.stdout == here
