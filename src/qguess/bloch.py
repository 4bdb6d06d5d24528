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

    Draw order is fixed (all z first, then all azimuths, as half-turns h in
    [-1, 1): the azimuth is pi*h), so the output is a pure function of the
    generator state.
    """
    z = rng.uniform(-1.0, 1.0, size=n)
    # the azimuth column is dropped as soon as its (cos, sin) pair is made,
    # and s is built in place, so at most seven arrays of n rows are alive;
    # 1 - z*z needs no clip, as |z| <= 1 keeps it non-negative
    cos_phi, sin_phi = _cos_sin(rng.uniform(-1.0, 1.0, size=n))
    out = np.empty((n, 3))
    s = np.multiply(z, z)
    np.subtract(1.0, s, out=s)
    np.sqrt(s, out=s)
    np.multiply(s, cos_phi, out=out[:, 0])
    np.multiply(s, sin_phi, out=out[:, 1])
    out[:, 2] = z
    return out


def _cos_half_turn(h: np.ndarray) -> np.ndarray:
    """cos(pi*h) for half-turns h in [-1, 1], as sin(pi*(1/2 - |h|)): the
    argument of `np.sin` lies in [-pi/2, pi/2].

    Drawn half-turns are multiples of 2^-52, so 1/2 - |h| is exact and the
    product with pi is the one rounding of the argument. The result is
    within 2 ulp of cos(pi*h): that rounding, 2^-53 relative plus 3.9e-17
    from the double pi, adds to the error of `np.sin` (1.8 ulp at most over
    2^22 draws).
    """
    c = np.abs(h)
    np.subtract(0.5, c, out=c)
    c *= math.pi
    return np.sin(c, out=c)


def _cos_sin(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos(pi*h), sin(pi*h)) for half-turns h in [-1, 1], from one `np.sin`:
    c = `_cos_half_turn(h)` and s = copysign(sqrt((1 - c)(1 + c)), h).

    With numpy 2.4 on x86-64, `np.sin` on [-pi/2, pi/2] takes about 10 ns
    per double, `np.cos` on [0, 2pi) about 15 ns and `np.sqrt` 1.5 ns, and
    every drawn azimuth needs both terms. |c^2 + s^2 - 1| stays within
    2^-52, and |s - sin(pi*h)| <= 2^-53/|sin(pi*h)| + 2^-51: the rounding of
    c is what 1 - c loses where |sin(pi*h)| is small. s takes the sign of h,
    which is that of sin(pi*h) wherever |sin(pi*h)| >= 1e-15. At h = -1,
    -1/2, 0 and 1/2 the pair is exactly (-1, -0), (0, -1), (1, 0) and (0, 1).
    """
    c = _cos_half_turn(h)
    s = np.subtract(1.0, c)
    tmp = np.add(1.0, c)
    s *= tmp
    np.sqrt(s, out=s)
    np.copysign(s, h, out=s)
    return c, s


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
    """Two (n, 3) arrays (e1, e2) completing each row of `axes` to a frame:
    the axis's spherical frame, e1 = (z*cx, z*cy, -rho) and e2 = (-cy, cx, 0)
    with rho = sqrt(x*x + y*y) and (cx, cy) = (x, y)/rho, or (1, 0) where
    rho = 0. For a unit axis at polar angle t and azimuth f these are the
    unit vectors of increasing t and of increasing f, and e1 x e2 = a.

    Every operation is +, -, *, / or sqrt, which IEEE 754 rounds correctly,
    so the bytes do not depend on the SIMD kernels numpy dispatches. Where
    x*x + y*y underflows (|x| and |y| below about 2^-511), rho is
    `np.hypot(x, y)`, which is exact there but costs as much as `np.cos`.
    e2_z is +0 for every axis, and e1_z = -rho is +-0 only on the z axis.
    """
    axes = np.asarray(axes, dtype=float)
    x, y, z = axes[:, 0], axes[:, 1], axes[:, 2]
    e1 = np.empty((3, len(axes)))
    e2 = np.empty_like(e1)
    rho = e1[2]
    np.multiply(x, x, out=rho)
    np.multiply(y, y, out=e2[0])
    rho += e2[0]
    low = np.flatnonzero(rho < np.finfo(float).tiny)
    np.sqrt(rho, out=rho)
    if low.size:
        rho[low] = np.hypot(x[low], y[low])
        pole = low[rho[low] == 0.0]
        rho[pole] = 1.0  # (+-0, +-0) / 1, then (cx, cy) = (1, 0) below
    np.divide(x, rho, out=e2[1])
    np.divide(y, rho, out=e2[0])
    if low.size:
        e2[1, pole], e2[0, pole], rho[pole] = 1.0, 0.0, 0.0
    np.multiply(z, e2[1], out=e1[0])
    np.multiply(z, e2[0], out=e1[1])
    np.negative(rho, out=rho)
    np.negative(e2[0], out=e2[0])
    e2[2] = 0.0
    return e1.T, e2.T


def directions_at_angle(axes: np.ndarray, cos_theta: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Unit vectors at polar angle arccos(cos_theta) and azimuth phi = pi*h,
    h a half-turn in [-1, 1], about each axis.

    Row i is t*a + (s*cos(phi))*e1 + (s*sin(phi))*e2 with t = cos_theta[i]
    and s = sqrt(1 - t^2), (e1, e2) the axis's `orthonormal_frames`,
    evaluated one column at a time (`_coordinates_at_angle`) into a
    C-contiguous (n, 3) array. e2_z is 0, so the z coordinate has no sin(phi)
    term, and `z_at_angle` gives column 2 alone, byte for byte.
    """
    axes = np.asarray(axes, dtype=float)
    out = np.empty((len(cos_theta), 3))
    e1, e2 = orthonormal_frames(axes)
    components = [(axes[:, k], e1[:, k], e2[:, k]) for k in range(2)] + [(axes[:, 2], e1[:, 2], None)]
    _coordinates_at_angle(cos_theta, h, components, out.T)
    return out


def z_at_angle(a_z: np.ndarray, e1_z: np.ndarray, cos_theta: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Column 2 of `directions_at_angle`, (s*cos(phi))*e1_z + t*a_z, from the
    z coordinates of the axes and of their `orthonormal_frames` e1 (1-d
    arrays), with the same bytes."""
    z = np.empty(len(cos_theta))
    _coordinates_at_angle(cos_theta, h, [(a_z, e1_z, None)], [z])
    return z


def _coordinates_at_angle(cos_theta, h, components, out) -> None:
    """For each (a_k, e1_k, e2_k) of `components` and 1-d array of `out`,
    write coordinate k of t*a + (s*cos(phi))*e1 + (s*sin(phi))*e2 to that
    array: (s*cos(phi))*e1_k, plus (s*sin(phi))*e2_k, plus t*a_k, in that
    order, with phi = pi*h and s = sqrt(1 - t^2) clipped at 0 before the
    root. An e2_k of None drops its term, and sin(phi) is evaluated only if
    some component has one. Both come from `_cos_sin`, which takes the
    half-turns h in [-1, 1], as drawn. The azimuth terms are scaled by s in
    place, and s's array then serves as the one scratch array. The one place
    this formula is evaluated, so every caller gets the same bytes.
    """
    if any(e2_k is not None for _, _, e2_k in components):
        cos_phi, sin_phi = _cos_sin(h)
    else:
        cos_phi, sin_phi = _cos_half_turn(h), None
    tmp = np.multiply(cos_theta, cos_theta)
    np.subtract(1.0, tmp, out=tmp)
    np.clip(tmp, 0.0, None, out=tmp)
    np.sqrt(tmp, out=tmp)
    cos_phi *= tmp
    if sin_phi is not None:
        sin_phi *= tmp
    for (a_k, e1_k, e2_k), dest in zip(components, out):
        np.multiply(cos_phi, e1_k, out=dest)
        if e2_k is not None:
            np.multiply(sin_phi, e2_k, out=tmp)
            dest += tmp
        np.multiply(cos_theta, a_k, out=tmp)
        dest += tmp
