"""Bloch-sphere geometry and single-qubit state algebra.

Conventions used throughout the package:

* a pure qubit state is identified by its unit Bloch vector
  r = (sin t cos f, sin t sin f, cos t) with polar angle t and azimuth f;
* the corresponding ket is (cos(t/2), e^{if} sin(t/2)), canonicalized so the
  first amplitude is real and non-negative (and the second real positive when
  the first vanishes), making ket equality testable componentwise;
* a density operator is rho = (I + r.sigma)/2 with |r| <= 1.

The scalar types validate single states and carry the state algebra. All
sampling goes through the batch helpers, which operate on float arrays of
shape (n, 3); a single draw is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDirectionError, InvalidEnsembleError, InvalidStateError

ALGEBRA_TOL = 1e-12  # algebraic identities
ROUNDTRIP_TOL = 1e-10  # identities routed through transcendental functions


@dataclass(frozen=True)
class BlochVector:
    """Unit vector in R^3 identifying a pure qubit state."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not abs(n2 - 1.0) <= ALGEBRA_TOL:
            raise InvalidDirectionError(f"direction must be unit length, got |v|^2={n2!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "BlochVector":
        """Rescale (x, y, z) to unit length."""
        n = math.sqrt(x * x + y * y + z * z)
        if n == 0.0:
            raise InvalidDirectionError("cannot normalize the zero vector")
        return cls(x / n, y / n, z / n)

    def antipode(self) -> "BlochVector":
        """The opposite point on the sphere; exact (componentwise negation)."""
        return BlochVector(-self.x, -self.y, -self.z)


Z_AXIS = BlochVector(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class QubitKet:
    """Normalized complex 2-vector in the fixed phase convention.

    amp0 must be real and >= 0; when amp0 vanishes, amp1 must be real and
    positive. Use from_amplitudes() to canonicalize arbitrary amplitudes.
    """

    amp0: complex
    amp1: complex

    def __post_init__(self):
        n2 = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if not abs(n2 - 1.0) <= ALGEBRA_TOL:
            raise InvalidStateError(f"ket must be normalized, got norm^2={n2!r}")
        if abs(self.amp0.imag) > ALGEBRA_TOL or self.amp0.real < -ALGEBRA_TOL:
            raise InvalidStateError("phase convention: amp0 must be real and >= 0")
        if abs(self.amp0) <= ALGEBRA_TOL and (
            abs(self.amp1.imag) > ALGEBRA_TOL or self.amp1.real <= 0.0
        ):
            raise InvalidStateError("phase convention: amp1 must be real positive when amp0 = 0")

    @classmethod
    def from_amplitudes(cls, amp0: complex, amp1: complex) -> "QubitKet":
        """Normalize and rotate the global phase into the convention."""
        amp0 = complex(amp0)
        amp1 = complex(amp1)
        norm = math.sqrt(abs(amp0) ** 2 + abs(amp1) ** 2)
        if norm == 0.0:
            raise InvalidStateError("cannot normalize the zero vector")
        amp0 /= norm
        amp1 /= norm
        anchor = amp0 if abs(amp0) > ALGEBRA_TOL else amp1
        phase = anchor / abs(anchor)
        return cls(amp0 / phase, amp1 / phase)

    def as_array(self) -> np.ndarray:
        return np.array([self.amp0, self.amp1], dtype=complex)

    def inner(self, other: "QubitKet") -> complex:
        """<self|other>."""
        return self.amp0.conjugate() * other.amp0 + self.amp1.conjugate() * other.amp1

    def projector(self) -> np.ndarray:
        """|k><k| as a 2x2 complex matrix."""
        v = self.as_array()
        return np.outer(v, v.conj())


@dataclass(frozen=True)
class DensityOperator:
    """2x2 density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidStateError(f"density operator must be 2x2, got shape {m.shape}")
        if not np.allclose(m, m.conj().T, rtol=0.0, atol=ALGEBRA_TOL):
            raise InvalidStateError("density operator must be Hermitian")
        if abs(np.trace(m).real - 1.0) > ALGEBRA_TOL or abs(np.trace(m).imag) > ALGEBRA_TOL:
            raise InvalidStateError("density operator must have unit trace")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -ALGEBRA_TOL:
            raise InvalidStateError(f"density operator must be positive, eigenvalues {eigs}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class EnsembleDecomposition:
    """Weighted pure states sharing one density operator."""

    members: tuple[tuple[float, BlochVector], ...]

    def __post_init__(self):
        if len(self.members) == 0:
            raise InvalidEnsembleError("ensemble must have at least one member")
        weights = [w for w, _ in self.members]
        if min(weights) < -ALGEBRA_TOL:
            raise InvalidEnsembleError(f"weights must be non-negative, got {weights}")
        total = math.fsum(weights)
        if not abs(total - 1.0) <= ALGEBRA_TOL:
            raise InvalidEnsembleError(f"weights must sum to 1, got {total!r}")

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.members])

    @property
    def directions(self) -> np.ndarray:
        """Member directions stacked as an (n, 3) array."""
        return np.array([[d.x, d.y, d.z] for _, d in self.members])


def ket_from_bloch(v: BlochVector) -> QubitKet:
    """Ket (cos(t/2), e^{if} sin(t/2)) for the direction v.

    The half-angle amplitudes are computed from z directly, which is exact at
    both poles; the pole azimuth defaults to f = 0.
    """
    c = math.sqrt(max(0.0, (1.0 + v.z) / 2.0))
    s = math.sqrt(max(0.0, (1.0 - v.z) / 2.0))
    xy = math.hypot(v.x, v.y)
    if xy == 0.0:
        phase = 1.0 + 0.0j
    else:
        phase = complex(v.x / xy, v.y / xy)
    return QubitKet.from_amplitudes(c, phase * s)


def bloch_from_ket(k: QubitKet) -> BlochVector:
    """Bloch vector (2 Re a0* a1, 2 Im a0* a1, |a0|^2 - |a1|^2)."""
    cross = k.amp0.conjugate() * k.amp1
    return BlochVector.normalized(
        2.0 * cross.real, 2.0 * cross.imag, abs(k.amp0) ** 2 - abs(k.amp1) ** 2
    )


def density_from_mixture(ens: EnsembleDecomposition) -> DensityOperator:
    """Sum of weighted pure-state projectors.

    The Bloch vector of the result is the weight-averaged sum of the member
    Bloch vectors.
    """
    m = np.zeros((2, 2), dtype=complex)
    for weight, direction in ens.members:
        m += weight * ket_from_bloch(direction).projector()
    return DensityOperator(m)


# ---------------------------------------------------------------------------
# batch kernels (float arrays of shape (n, 3))

def random_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) array of directions uniform on the sphere.

    Draw order is fixed (all z first, then all azimuths), so the output is a
    pure function of the generator state.
    """
    z = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    out = np.empty((n, 3))
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    np.multiply(s, np.cos(phi), out=out[:, 0])
    np.multiply(s, np.sin(phi), out=out[:, 1])
    out[:, 2] = z
    return out


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise dot products of two (n, 3) arrays, clipped to [-1, 1].

    Summed column by column in a fixed order, (a0*b0 + a2*b2) + a1*b1,
    whatever the arrays' memory layout. That is the order in which
    `np.einsum("ij,ij->i")` sums C-ordered rows (numpy 2.4, x86-64), while
    on Fortran-ordered copies of the same rows it gives other bytes.
    """
    d = np.multiply(a[:, 0], b[:, 0])
    tmp = np.multiply(a[:, 2], b[:, 2])
    d += tmp
    np.multiply(a[:, 1], b[:, 1], out=tmp)
    d += tmp
    return np.clip(d, -1.0, 1.0, out=d)


def angles_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise angles in [0, pi] between two (n, 3) arrays."""
    d = dots(a, b)
    return np.arccos(d, out=d)


def orthonormal_frames(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two (n, 3) arrays (e1, e2) completing each row of `axes` to a frame.

    The helper axis h is x-hat except where |x| > 0.9, where y-hat is used;
    the choice is deterministic per row. e1 = a x h / |a x h| and e2 = a x e1
    are written out on 1-D component arrays: with h = (h0, h1, 0) that is
    e1 = (y*0 - z*h1, z*h0 - x*0, x*h1 - y*h0), i.e. (0, z, -y) for x-hat and
    (-z, 0, x) for y-hat. Every product, difference and the norm
    sqrt((e1_0^2 + e1_1^2) + e1_2^2) is the one numpy's cross product and
    vector norm evaluate on (n, 3) rows, in the same order, so the frames
    are byte-identical to theirs, signed zeros included.
    """
    axes = np.asarray(axes, dtype=float)
    x, y, z = axes[:, 0], axes[:, 1], axes[:, 2]
    h1 = (np.abs(x) > 0.9).astype(float)
    h0 = 1.0 - h1
    e1 = np.empty((3, len(axes)))
    u0, u1, u2 = e1
    np.multiply(y, 0.0, out=u0)
    u0 -= z * h1
    np.multiply(z, h0, out=u1)
    u1 -= x * 0.0
    np.multiply(x, h1, out=u2)
    u2 -= y * h0
    e1 /= np.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
    e2 = np.empty_like(e1)
    v0, v1, v2 = e2
    np.multiply(y, u2, out=v0)
    v0 -= z * u1
    np.multiply(z, u0, out=v1)
    v1 -= x * u2
    np.multiply(x, u1, out=v2)
    v2 -= y * u0
    return e1.T, e2.T


def directions_at_angle(axes: np.ndarray, cos_theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Unit vectors at polar angle arccos(cos_theta) and azimuth phi about each axis.

    Row i is t*a + s*(cos(phi)*e1 + sin(phi)*e2) with t = cos_theta[i] and
    s = sqrt(1 - t^2), (e1, e2) the axis's `orthonormal_frames`, evaluated
    one column at a time (`_coordinates_at_angle`) into a C-contiguous (n, 3)
    array. Each column depends only on that column of a, e1 and e2, so
    `z_at_angle` gives column 2 alone, byte for byte when given all three z
    coordinates.
    """
    axes = np.asarray(axes, dtype=float)
    out = np.empty((len(cos_theta), 3))
    e1, e2 = orthonormal_frames(axes)
    _coordinates_at_angle(cos_theta, phi, [(axes[:, k], e1[:, k], e2[:, k]) for k in range(3)], out.T)
    return out


def frame_z(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(a_z, e1_z, e2_z) for `z_at_angle` about the rows of `axes`: the z
    coordinates of the axes and of their `orthonormal_frames`, with None for
    a frame coordinate that is zero (+0 or -0) in every row.

    With the helper axis of `orthonormal_frames`, e1_z is -y/|a x h| (x-hat)
    or x/|a x h| (y-hat), and e2_z is x*z/|a x h| or y*z/|a x h|, each up to
    the sign of a zero. So both vanish at the poles, e2_z for axes in the
    y-z plane, and e1_z for axes with y = 0 and |x| <= 0.9.
    """
    axes = np.asarray(axes, dtype=float)
    e1, e2 = orthonormal_frames(axes)
    e1_z, e2_z = (e[:, 2] if np.any(e[:, 2]) else None for e in (e1, e2))
    return axes[:, 2], e1_z, e2_z


def z_at_angle(a_z: np.ndarray, e1_z: np.ndarray | None, e2_z: np.ndarray | None,
               cos_theta: np.ndarray, phi: np.ndarray | None) -> np.ndarray:
    """Column 2 of `directions_at_angle`, from the z coordinates of the axes
    and of their `orthonormal_frames` (1-d arrays), with the same bytes.

    An e1_z or e2_z of None stands for a column of zeros (`frame_z`): its
    azimuth term, cos(phi)*e1_z or sin(phi)*e2_z, is not evaluated, and with
    both None neither is s, so z = t*a_z and phi may be None. A zero term
    only adds a signed zero, so for finite phi such a z differs from column
    2 at most in the sign of a zero, and compares == to it.
    """
    z = np.empty(len(cos_theta))
    _coordinates_at_angle(cos_theta, phi, [(a_z, e1_z, e2_z)], [z])
    return z


def _coordinates_at_angle(cos_theta, phi, components, out) -> None:
    """For each (a_k, e1_k, e2_k) of `components` and 1-d array of `out`,
    write coordinate k of t*a + s*(cos(phi)*e1 + sin(phi)*e2) to that array:
    (cos_phi*e1_k + sin_phi*e2_k), times s, plus t*a_k, in that order, with
    s = sqrt(1 - t^2) clipped at 0 before the root. A frame coordinate of
    None drops its term; cos(phi), sin(phi) and s are evaluated once, and
    only if some component needs them. The one place this formula is
    evaluated, so every caller gets the same bytes.
    """
    cos_phi = np.cos(phi) if any(e1_k is not None for _, e1_k, _ in components) else None
    sin_phi = np.sin(phi) if any(e2_k is not None for _, _, e2_k in components) else None
    if cos_phi is not None or sin_phi is not None:
        s = np.multiply(cos_theta, cos_theta)
        np.subtract(1.0, s, out=s)
        np.clip(s, 0.0, None, out=s)
        np.sqrt(s, out=s)
    col = np.empty(len(cos_theta))
    tmp = np.empty(len(cos_theta))
    for (a_k, e1_k, e2_k), dest in zip(components, out):
        terms = [(trig, e_k) for trig, e_k in ((cos_phi, e1_k), (sin_phi, e2_k)) if e_k is not None]
        if not terms:
            np.multiply(cos_theta, a_k, out=dest)
            continue
        np.multiply(*terms[0], out=col)
        for trig, e_k in terms[1:]:
            np.multiply(trig, e_k, out=tmp)
            col += tmp
        col *= s
        np.multiply(cos_theta, a_k, out=tmp)
        np.add(tmp, col, out=dest)
