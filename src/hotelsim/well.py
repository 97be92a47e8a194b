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
    "free_evolve",
    "mirror",
    "mode_overlap_matrix",
    "project",
    "rebase",
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
        """Whether other lies inside, up to 1e-12 of the larger width."""
        slack = 1e-12 * max(self.width, other.width)
        return self.origin <= other.origin + slack and other.end <= self.end + slack


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
    precision even for large n.  The phase vector depends only on omega0 t
    and the mode count; it is cached (32 entries, read-only), and
    `cache_info` counts its builds.
    """
    # cycles per mode: omega0 t n^2 / (2 pi)
    f = s.geometry.omega0(s.constants) * t / (2.0 * np.pi)
    return s.with_amps(s.amps * _evolution_phases(f, s.n_modes))


@lru_cache(maxsize=32)
def _evolution_phases(cycles: float, n_modes: int) -> np.ndarray:
    """exp(-2 pi i frac(cycles n^2)) for n = 1..n_modes; read-only."""
    n = np.arange(1, n_modes + 1)
    phases = np.exp(-2j * np.pi * np.mod(cycles * n.astype(float) ** 2, 1.0))
    phases.setflags(write=False)
    return phases


free_evolve.cache_info = _evolution_phases.cache_info


def mirror(s: SpectralState) -> SpectralState:
    """Parity about the well centre: amps[n] -> (-1)^(n+1) amps[n]."""
    signs = np.where(s.quantum_numbers % 2 == 1, 1.0, -1.0)
    return s.with_amps(s.amps * signs)


def _phases(g: WellGeometry, n: int, *xs: float) -> tuple[np.ndarray, np.ndarray]:
    """sin, cos of pi m (x - origin) / width mod 2 pi; a row per x, m = 1..n."""
    t = np.mod(np.outer((np.array(xs) - g.origin) / g.width, np.arange(1, n + 1)), 2.0)
    return np.sin(np.pi * t), np.cos(np.pi * t)


@lru_cache(maxsize=64)
def _overlap_pair(source: WellGeometry, n_source: int,
                  target: WellGeometry, n_target: int) -> np.ndarray:
    x0 = max(source.origin, target.origin)
    x1 = min(source.end, target.end)
    if x1 <= x0:
        z = np.zeros((n_target, n_source))
        z.setflags(write=False)
        return z
    ws, wt = source.width, target.width
    m, n = np.arange(1, n_target + 1), np.arange(1, n_source + 1)
    kt, ks = np.pi * m / wt, np.pi * n / ws
    sa, ca = _phases(target, n_target, x0, x1)
    sb, cb = _phases(source, n_source, x0, x1)
    # With A = kt (x - target.origin) and B = ks (x - source.origin), the
    # integral of sin A sin B is [ks sin A cos B - kt cos A sin B] / den from
    # x0 to x1: one (n_target x 4) @ (4 x n_source) product.  den = kt^2 - ks^2
    # = (pi / (ws wt))^2 ((m ws)^2 - (n wt)^2), exact for integer widths.
    scale = 2.0 / np.sqrt(ws * wt)
    left = np.stack([sa[1], -sa[0], -kt * ca[1], kt * ca[0]], axis=1)
    left *= scale * (ws * wt / np.pi) ** 2
    out = left @ np.stack([ks * cb[1], ks * cb[0], sb[1], sb[0]])
    den = np.subtract.outer((m * ws) ** 2, (n * wt) ** 2)
    # Resonant entries, kt = ks, are m ws = n wt to rounding (den may not be 0
    # there); limit: [(x1 - x0) cos(A - B) - (sin(A + B) from x0 to x1) / (2 kt)] / 2.
    r = m * (ws / wt)
    hit = np.rint(r)
    rows = np.flatnonzero((np.abs(r - hit) <= 1e-13 * r) & (hit <= n_source))
    cols = hit[rows].astype(int) - 1
    den[rows, cols] = 1.0
    out /= den
    sin_sum = sa[:, rows] * cb[:, cols] + ca[:, rows] * sb[:, cols]
    cos_diff = ca[0, rows] * cb[0, cols] + sa[0, rows] * sb[0, cols]
    out[rows, cols] = 0.5 * scale * ((x1 - x0) * cos_diff
                                     - (sin_sum[1] - sin_sum[0]) / (2.0 * kt[rows]))
    out.setflags(write=False)
    return out


def mode_overlap_matrix(source: WellGeometry, n_source: int,
                        target: WellGeometry, n_target: int) -> np.ndarray:
    """Exact overlaps S[m, n] = <target mode m+1 | source mode n+1>.

    Integration runs over the intersection of the two wells (each mode is
    zero outside its own well), in closed form.  Cached, read-only, real;
    `cache_info` counts one entry per unordered pair, built with no more
    rows than columns.  The other direction is its transposed view, as
    fast in a matrix-vector product (the transpose of a tall array is not).
    """
    if (n_source, source.width, source.origin) < (n_target, target.width, target.origin):
        return _overlap_pair(target, n_target, source, n_source).T
    return _overlap_pair(source, n_source, target, n_target)


mode_overlap_matrix.cache_info = _overlap_pair.cache_info


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
