"""Exact eigenbasis representation of states in an infinite square well.

States are stored as complex amplitude vectors over the sine eigenmodes of
a hard-wall (Dirichlet) interval.  Index 0 of the amplitude array is the
quantum number n = 1.  Natural units hbar = m = 1 are the default; all the
closed-form overlap integrals below are exact (no quadrature).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "DomainError",
    "GeometryError",
    "PhysicalConstants",
    "WellGeometry",
    "SpectralState",
    "eigenfunction",
    "energies",
    "free_evolve",
    "mirror",
    "mode_overlap_matrix",
    "project",
    "rebase",
    "overlap",
    "evaluate",
    "random_state",
]

class DomainError(ValueError):
    """A coordinate or target interval lies outside the allowed domain."""


class GeometryError(ValueError):
    """Two states live in incompatible well geometries."""


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0 or self.mass <= 0:
            raise ValueError("hbar and mass must be positive")


NATURAL = PhysicalConstants()


@dataclass(frozen=True)
class WellGeometry:
    """Hard-wall interval (origin, origin + width)."""

    width: float
    origin: float = 0.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError(f"well width must be positive, got {self.width}")

    @property
    def end(self) -> float:
        return self.origin + self.width

    def omega0(self, const: PhysicalConstants = NATURAL) -> float:
        """Fundamental angular frequency: E_n = hbar * omega0 * n**2."""
        return const.hbar * np.pi**2 / (2.0 * const.mass * self.width**2)

    def contains(self, other: "WellGeometry") -> bool:
        return (self.origin <= other.origin + 1e-12) and (other.end <= self.end + 1e-12)


def energies(n: np.ndarray | int, g: WellGeometry,
             const: PhysicalConstants = NATURAL) -> np.ndarray | float:
    """Eigenenergies E_n = hbar * omega0 * n**2."""
    n = np.asarray(n)
    return const.hbar * g.omega0(const) * n.astype(float) ** 2


def eigenfunction(n: int, x, g: WellGeometry):
    """n-th normalized sine eigenmode, sqrt(2/W) sin(pi n (x-origin)/W).

    Raises DomainError for x outside the closed well interval; the walls
    themselves evaluate to zero.
    """
    if n < 1:
        raise ValueError(f"quantum number must be >= 1, got {n}")
    x = np.asarray(x, dtype=float)
    if np.any(x < g.origin - 1e-12) or np.any(x > g.end + 1e-12):
        raise DomainError(f"x outside well ({g.origin}, {g.end})")
    return np.sqrt(2.0 / g.width) * np.sin(np.pi * n * (x - g.origin) / g.width)


@dataclass(frozen=True)
class SpectralState:
    """Complex amplitudes over well eigenmodes; amps[i] belongs to n = i+1."""

    geometry: WellGeometry
    amps: np.ndarray
    constants: PhysicalConstants = NATURAL

    def __post_init__(self):
        # a read-only view: the caller's own array stays writable
        a = np.ascontiguousarray(self.amps, dtype=complex).view()
        if a.ndim != 1 or a.size < 1:
            raise ValueError("amps must be a non-empty 1-d complex vector")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def n_modes(self) -> int:
        return self.amps.size

    @property
    def quantum_numbers(self) -> np.ndarray:
        return np.arange(1, self.amps.size + 1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def with_amps(self, amps) -> "SpectralState":
        return replace(self, amps=np.asarray(amps, dtype=complex))

    def to_dict(self) -> dict:
        return {
            "geometry": {"width": self.geometry.width, "origin": self.geometry.origin},
            "amps": [[float(a.real), float(a.imag)] for a in self.amps],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpectralState":
        g = WellGeometry(width=d["geometry"]["width"], origin=d["geometry"].get("origin", 0.0))
        amps = np.array([complex(re, im) for re, im in d["amps"]])
        return cls(geometry=g, amps=amps)


def basis_state(n: int, g: WellGeometry, n_modes: int | None = None) -> SpectralState:
    """Pure eigenstate |n> represented on n_modes levels."""
    size = n_modes if n_modes is not None else n
    if n < 1 or n > size:
        raise ValueError(f"basis index {n} outside 1..{size}")
    amps = np.zeros(size, dtype=complex)
    amps[n - 1] = 1.0
    return SpectralState(geometry=g, amps=amps)


def free_evolve(s: SpectralState, t: float) -> SpectralState:
    """Evolve amplitudes by exp(-i E_n t / hbar).

    The phase is reduced modulo 2*pi before exponentiation so that revival
    times (omega0 * t a rational multiple of 2*pi) stay exact to machine
    precision even for large n.
    """
    n = s.quantum_numbers
    # cycles per mode: omega0 t n^2 / (2 pi)
    f = s.geometry.omega0(s.constants) * t / (2.0 * np.pi)
    frac = np.mod(f * n.astype(float) ** 2, 1.0)
    return s.with_amps(s.amps * np.exp(-2j * np.pi * frac))


def mirror(s: SpectralState) -> SpectralState:
    """Parity about the well centre: amps[n] -> (-1)^(n+1) amps[n]."""
    signs = np.where(s.quantum_numbers % 2 == 1, 1.0, -1.0)
    return s.with_amps(s.amps * signs)


def _cos_integral(c, d, x0: float, x1: float):
    """Exact integral of cos(c x + d) over [x0, x1], stable for any c.

    Uses Delta * sinc(c Delta / 2) * cos(c xm + d) with the unnormalized
    sinc, which has no cancellation as c -> 0.
    """
    dx = x1 - x0
    xm = 0.5 * (x0 + x1)
    z = 0.5 * c * dx
    return dx * np.sinc(z / np.pi) * np.cos(c * xm + d)


@lru_cache(maxsize=64)
def mode_overlap_matrix(source: WellGeometry, n_source: int,
                        target: WellGeometry, n_target: int) -> np.ndarray:
    """Exact overlaps S[m, n] = <target mode m+1 | source mode n+1>.

    Integration runs over the intersection of the two wells (each mode is
    zero outside its own well).  Closed form via the product-to-sum
    identity for sines.  Cached: protocol runs reuse the same geometries.
    """
    x0 = max(source.origin, target.origin)
    x1 = min(source.end, target.end)
    if x1 <= x0:
        z = np.zeros((n_target, n_source))
        z.setflags(write=False)
        return z
    ns = np.arange(1, n_source + 1)
    mt = np.arange(1, n_target + 1)
    ks = np.pi * ns / source.width           # (n,)
    kt = np.pi * mt / target.width           # (m,)
    # sin(ks x + ps) with ps = -ks * origin
    ps = -ks * source.origin
    pt = -kt * target.origin
    Ks = ks[None, :]
    Kt = kt[:, None]
    Ps = ps[None, :]
    Pt = pt[:, None]
    integral = 0.5 * (_cos_integral(Ks - Kt, Ps - Pt, x0, x1)
                      - _cos_integral(Ks + Kt, Ps + Pt, x0, x1))
    out = np.sqrt(4.0 / (source.width * target.width)) * integral
    out.setflags(write=False)
    return out


def project(s: SpectralState, target: WellGeometry, n_modes: int) -> SpectralState:
    """Project the wavefunction of s onto the eigenbasis of target.

    Only the part of the wavefunction inside the target well contributes;
    no containment requirement (rebase adds that check).  The real overlap
    matrix multiplies the real and imaginary parts separately, because
    S @ amps would make a complex copy of S on every call.
    """
    S = mode_overlap_matrix(s.geometry, s.n_modes, target, n_modes)
    a = s.amps
    return SpectralState(geometry=target, amps=S @ a.real + 1j * (S @ a.imag),
                         constants=s.constants)


def rebase(s: SpectralState, target: WellGeometry, n_modes: int) -> SpectralState:
    """Re-express s in the eigenbasis of a containing well.

    The wavefunction is extended by zero onto the larger domain.  The
    returned norm is <= 1; the deficit is the truncation tail of the
    target expansion (decays like 1/n_modes for a generic state with a
    nonzero wall derivative, since coefficients fall off as 1/m^2).
    """
    if not target.contains(s.geometry):
        raise DomainError(
            f"target well ({target.origin}, {target.end}) does not contain "
            f"source well ({s.geometry.origin}, {s.geometry.end})")
    return project(s, target, n_modes)


def overlap(a: SpectralState, b: SpectralState) -> complex:
    """<a|b> in a common eigenbasis; |overlap|^2 is the fidelity."""
    if a.geometry != b.geometry:
        raise GeometryError(f"geometry mismatch: {a.geometry} vs {b.geometry}")
    # trailing amplitudes of the longer vector do not contribute
    n = min(a.n_modes, b.n_modes)
    return complex(np.vdot(a.amps[:n], b.amps[:n]))


def fidelity(a: SpectralState, b: SpectralState) -> float:
    return abs(overlap(a, b)) ** 2


def evaluate(s: SpectralState, x) -> np.ndarray:
    """Wavefunction samples psi(x) = sum_n amps[n] h_n(x)."""
    x = np.asarray(x, dtype=float)
    n = s.quantum_numbers
    g = s.geometry
    modes = np.sin(np.pi * np.outer(n, (x - g.origin)) / g.width)
    return np.sqrt(2.0 / g.width) * (s.amps @ modes)


def random_state(g: WellGeometry, n_modes: int, rng: np.random.Generator,
                 n_support: int | None = None) -> SpectralState:
    """Normalized state with complex-normal amplitudes on n <= n_support."""
    sup = n_support if n_support is not None else n_modes
    if sup > n_modes:
        raise ValueError("support exceeds mode count")
    amps = np.zeros(n_modes, dtype=complex)
    amps[:sup] = rng.standard_normal(sup) + 1j * rng.standard_normal(sup)
    amps /= np.linalg.norm(amps)
    return SpectralState(geometry=g, amps=amps)
