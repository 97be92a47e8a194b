"""Grid-based time-dependent propagation for the non-ideal protocol.

Wavefunctions live on the interior points of a uniform grid with hard-wall
(Dirichlet) boundaries.  The default propagator is Strang splitting with
the kinetic step applied exactly in the sine-transform eigenbasis of the
Dirichlet Laplacian; a Crank-Nicolson scheme is available as a cross-check.
Potential features (uniform offsets, ramped barriers, a moving wall) are
described by a piecewise timeline so a whole protocol run is one object.
A segment whose features all declare a time-independent potential
(`constant`) has it evaluated once, and Crank-Nicolson factors its step
matrix once.  When that potential is also flat, both schemes are diagonal
in the DST-I basis, so the segment is not stepped at all: each observed
state, and the end state, is one transform away from the start (a jump
that keeps each scheme's own dispersion).  Every Crank-Nicolson step is
one zgttrs solve with zgttrf factors.  Under a moving wall alone only the
rows of the wall's edge change between steps, so a step refactors those
and reuses the rest, bit for bit the factors of all rows; other varying
segments refactor all rows.  An observer may be called on every
stride-th step only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .well import PhysicalConstants, NATURAL, SpectralState, WellGeometry
from .protocol import fix_global_phase, oracle_score, require_normalizable

__all__ = [
    "GridState",
    "PropagatorSettings",
    "PotentialTimeline",
    "Segment",
    "FreeFlight",
    "UniformOffset",
    "RampedBarrier",
    "MovingWall",
    "PropagationError",
    "to_grid",
    "to_spectral",
    "propagate",
    "carpet",
    "run_dynamic_protocol",
    "FidelityReport",
    "DynamicKnobs",
    "SCHEMES",
]

SCHEMES = ("strang-split-sine", "crank-nicolson")


class PropagationError(RuntimeError):
    """Numerical instability detected during time stepping."""


def dst(x, **kwargs):
    """scipy.fft.dst, imported at the first transform so that importing
    this module (and the ideal tier it imports) loads no SciPy."""
    from scipy.fft import dst as scipy_dst
    return scipy_dst(x, **kwargs)


@dataclass(frozen=True)
class GridState:
    """Complex samples on the M interior points of (origin, origin+width)."""

    samples: np.ndarray
    width: float
    origin: float = 0.0
    constants: PhysicalConstants = NATURAL

    def __post_init__(self):
        # a read-only view: the caller's own array stays writable
        a = np.ascontiguousarray(self.samples, dtype=complex).view()
        if a.ndim != 1 or a.size < 2:
            raise ValueError("samples must be a 1-d vector of at least 2 points")
        a.setflags(write=False)
        object.__setattr__(self, "samples", a)

    @property
    def m(self) -> int:
        return self.samples.size

    @property
    def dx(self) -> float:
        return self.width / (self.m + 1)

    @property
    def x(self) -> np.ndarray:
        return self.origin + self.dx * np.arange(1, self.m + 1)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.dx)

    def with_samples(self, samples) -> "GridState":
        return replace(self, samples=np.asarray(samples, dtype=complex))


def to_grid(s: SpectralState, m: int) -> GridState:
    """Sample the spectral state on an m-point interior grid.

    Inverse of to_spectral when the state is band-limited (N <= m).
    """
    if s.n_modes > m:
        raise ValueError(f"aliasing: {s.n_modes} modes on {m} grid points")
    coeffs = np.zeros(m, dtype=complex)
    coeffs[:s.n_modes] = s.amps
    g = s.geometry
    dx = g.width / (m + 1)
    # orthonormal DST-I is its own inverse; scale bridges sum <-> integral
    samples = dst(coeffs, type=1, norm="ortho") / np.sqrt(dx)
    return GridState(samples=samples, width=g.width, origin=g.origin,
                     constants=s.constants)


def to_spectral(g: GridState, n: int) -> SpectralState:
    """Project grid samples onto the first n well eigenmodes."""
    if n > g.m:
        raise ValueError(f"aliasing: requesting {n} modes from {g.m} points")
    coeffs = dst(g.samples, type=1, norm="ortho") * np.sqrt(g.dx)
    return SpectralState(geometry=WellGeometry(width=g.width, origin=g.origin),
                         amps=coeffs[:n], constants=g.constants)


# --- potential features ----------------------------------------------------

def _raised_cosine(u: float) -> float:
    """Smooth 0 -> 1 schedule on [0, 1]."""
    # math, not numpy: it is called once per time step on a scalar
    return 0.5 * (1.0 - math.cos(math.pi * min(max(u, 0.0), 1.0)))


# np.tanh is exactly +-1 beyond |z| = 18.9904 (a correctly rounded tanh
# beyond 27.5 ln 2 = 19.06, where 1 - |tanh| falls under half an ulp of 1),
# so a MovingWall's potential is exactly 0 (or exactly its height) farther
# than this many edge widths behind (or ahead of) its position
_EDGE_WIDTHS = 20.0


# Each feature says whether its potential is the same at every u
# (`constant`); a feature that does not say is taken to vary.  A feature
# may also offer `on_grid(x)`, the potential on a fixed grid as a function
# of u, to do its u-independent work once per segment.

@dataclass(frozen=True)
class FreeFlight:
    """No potential."""

    constant = True

    def potential(self, x: np.ndarray, u: float) -> np.ndarray:
        return np.zeros_like(x)


@dataclass(frozen=True)
class UniformOffset:
    """Constant energy offset on [start, stop]."""

    height: float
    start: float
    stop: float
    constant = True

    def potential(self, x: np.ndarray, u: float) -> np.ndarray:
        return np.where((x >= self.start) & (x < self.stop), self.height, 0.0)


@dataclass(frozen=True)
class RampedBarrier:
    """Super-Gaussian barrier whose height follows a raised-cosine ramp.

    mode: "up" ramps 0 -> height over the segment, "down" the reverse,
    "hold" keeps it constant.
    """

    center: float
    half_width: float
    height: float
    mode: str = "hold"

    @property
    def constant(self) -> bool:
        return self.mode == "hold"

    def _height(self, u: float) -> float:
        if self.mode == "up":
            return self.height * _raised_cosine(u)
        if self.mode == "down":
            return self.height * (1.0 - _raised_cosine(u))
        if self.mode == "hold":
            return self.height
        raise ValueError(f"unknown barrier mode {self.mode!r}")

    def on_grid(self, x: np.ndarray):
        # the profile is the costly part and does not depend on u
        profile = np.exp(-((x - self.center) / self.half_width) ** 8)
        return lambda u: self._height(u) * profile

    def potential(self, x: np.ndarray, u: float) -> np.ndarray:
        return self.on_grid(x)(u)


@dataclass(frozen=True)
class MovingWall:
    """Steep smooth step sweeping from start_position to stop_position.

    The region beyond the wall position is raised to `height`; the edge is
    a tanh profile of scale edge_width.  The position follows a
    raised-cosine schedule over the segment.
    """

    start_position: float
    stop_position: float
    height: float
    edge_width: float
    constant = False

    def __post_init__(self):
        if not self.edge_width > 0:
            raise ValueError(
                f"wall edge_width must be positive, got {self.edge_width!r}")

    def position(self, u: float) -> float:
        return self.start_position + (self.stop_position - self.start_position) \
            * _raised_cosine(u)

    def _profile(self, x, xw):
        return self.height * 0.5 * (1.0 + np.tanh((x - xw) / self.edge_width))

    def potential(self, x: np.ndarray, u: float) -> np.ndarray:
        return self._profile(x, self.position(u))

    def _edges(self, x: np.ndarray, us):
        """The edge rows of the wall at each u of us, on the increasing grid x.

        Returns (first, v): first[k] is the first row within _EDGE_WIDTHS
        edge widths of the wall at us[k], and v[k] the potential on the
        v.shape[1] rows from there (as many as the widest edge holds, at
        least one; rows past the grid repeat its last point).  Each value
        has the bits of `potential`; every row before first[k] holds
        exactly 0 and every row past the edge exactly `height`.
        """
        xw = np.array([self.position(u) for u in us])
        reach = _EDGE_WIDTHS * self.edge_width
        first = np.searchsorted(x, xw - reach, side="right")
        rows = max(int(np.max(np.searchsorted(x, xw + reach) - first)), 1)
        at = np.minimum(first[:, None] + np.arange(rows), x.size - 1)
        return first, self._profile(x[at], xw[:, None])


@dataclass(frozen=True)
class Segment:
    duration: float
    feature: object = field(default_factory=FreeFlight)
    extra_features: tuple = ()

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("segment duration must be positive")

    @property
    def constant(self) -> bool:
        return all(getattr(f, "constant", False)
                   for f in (self.feature, *self.extra_features))

    def on_grid(self, x: np.ndarray):
        """V(x, u) on the grid x as a function of u."""
        first, *rest = [f.on_grid(x) if hasattr(f, "on_grid")
                        else partial(f.potential, x)
                        for f in (self.feature, *self.extra_features)]

        def potential(u: float) -> np.ndarray:
            v = np.asarray(first(u), dtype=float)
            for part in rest:
                v = v + part(u)
            return v
        return potential

    def potential(self, x: np.ndarray, u: float) -> np.ndarray:
        return self.on_grid(x)(u)


@dataclass(frozen=True)
class PotentialTimeline:
    segments: tuple

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def duration(self) -> float:
        return sum(s.duration for s in self.segments)


@dataclass(frozen=True)
class PropagatorSettings:
    """dt is an upper bound; each segment uses an integer step count.

    Strang splitting with an exact sine-basis kinetic step is second order
    in dt for smooth time-dependent potentials and exactly norm-conserving.
    Crank-Nicolson is second order in both dt and dx.
    """

    dt: float
    scheme: str = "strang-split-sine"
    norm_drift_tol: float = 1e-9

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")


def _mode_energies(g: GridState, scheme: str) -> np.ndarray:
    """Energy of each DST-I mode of the grid under each scheme's kinetic
    operator: the continuum energies for the split step, the eigenvalues
    of the tridiagonal Laplacian for Crank-Nicolson."""
    const = g.constants
    n = np.arange(1, g.m + 1, dtype=float)
    if scheme == "strang-split-sine":
        return (const.hbar * np.pi * n / g.width) ** 2 / (2.0 * const.mass)
    kin = const.hbar ** 2 / (2.0 * const.mass * g.dx ** 2)
    return 2.0 * kin * (1.0 - np.cos(np.pi * n / (g.m + 1)))


def _whole(ratio: float) -> int | None:
    """The positive integer that ratio equals to within rounding, if any."""
    whole = round(ratio)
    if whole >= 1 and abs(ratio - whole) <= 1e-12 * whole:
        return whole
    return None


def _step_count(duration: float, dt: float) -> int:
    """Fewest steps of at most dt (to within rounding) that cover duration."""
    ratio = duration / dt
    return _whole(ratio) or max(1, int(np.ceil(ratio)))


def propagate(g: GridState, timeline: PotentialTimeline,
              settings: PropagatorSettings,
              observer=None, stride: int = 1) -> GridState:
    """Evolve under H(t) = -(hbar^2/2m) d2/dx2 + V(x, t).

    observer, if given, is called as observer(t, GridState) after every
    stride-th step, the steps counted over the whole timeline (used by
    carpet sampling and diagnostics).  The potential of a constant
    segment is evaluated once, at its midpoint.

    When that potential is flat (v0 everywhere), a step of either scheme
    multiplies DST-I mode k by exp(i angle_k), so the segment is a jump:
    the state after j steps is the DST-I of c_k exp(i j angle_k), with c
    the start's coefficients.  The split step has angle_k = -(e_k + v0)
    dt/hbar with the continuum energies e_k; Crank-Nicolson has the
    Cayley factor's angle_k = -2 arctan(dt (lambda_k + v0) / (2 hbar)),
    lambda_k the eigenvalues of its tridiagonal kinetic operator, so a
    jump keeps CN's dispersion and its dependence on dt.
    """
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(
            f"observer stride must be a positive integer, got {stride!r}")
    psi = np.array(g.samples, dtype=complex)
    x = g.x
    hbar = g.constants.hbar
    t0 = 0.0
    done = 0
    for seg in timeline.segments:
        nsteps = _step_count(seg.duration, settings.dt)
        dt = seg.duration / nsteps
        norm0 = np.sum(np.abs(psi) ** 2)
        potential = seg.on_grid(x)
        v = potential(0.5) if seg.constant else None
        # the steps of this segment, counted from its start, to observe
        marks = range(stride - done % stride, nsteps + 1, stride) \
            if observer is not None else range(0)

        def observe(j, state):
            observer(t0 + j * dt, g.with_samples(state))

        if v is not None and np.ptp(v) == 0:
            e = _mode_energies(g, settings.scheme) + v[0]
            if settings.scheme == "strang-split-sine":
                angle = -e * dt / hbar
            else:
                angle = -2.0 * np.arctan(dt * e / (2.0 * hbar))
            c = dst(psi, type=1, norm="ortho")

            def after(j):
                return dst(c * np.exp(1j * j * angle), type=1, norm="ortho")

            for j in marks:
                observe(j, after(j))
            psi = after(nsteps)
        elif settings.scheme == "strang-split-sine":
            kin = np.exp(-1j * _mode_energies(g, settings.scheme) * dt / hbar)

            def half_phase(u):
                return np.exp(-0.5j * dt * potential(u) / hbar)

            fixed = np.exp(-0.5j * dt * v / hbar) if v is not None else None
            for k in range(nsteps):
                half = fixed if fixed is not None else half_phase((k + 0.5) / nsteps)
                # not in place: the observer may hold the previous step's array
                psi = psi * half
                psi = dst(dst(psi, type=1, norm="ortho") * kin, type=1, norm="ortho")
                psi *= half
                if k + 1 in marks:
                    observe(k + 1, psi)
        else:
            psi = _crank_nicolson_segment(psi, g, seg, potential, v, dt,
                                          nsteps, marks, observe)
        t0 += seg.duration
        done += nsteps
        drift = abs(np.sum(np.abs(psi) ** 2) / norm0 - 1.0)
        if drift > settings.norm_drift_tol * max(1.0, seg.duration):
            raise PropagationError(
                f"norm drift {drift:.2e} over segment; reduce dt")
        if not np.all(np.isfinite(psi)):
            raise PropagationError("non-finite amplitudes; reduce dt")
    return g.with_samples(psi)


def _crank_nicolson_segment(psi, g: GridState, seg: Segment, potential, v,
                            dt: float, nsteps: int, marks, observe):
    """(1 + aH) psi_next = (1 - aH) psi with a = i dt / (2 hbar), taken as
    psi_next = 2 (1 + aH)^-1 psi - psi: one zgttrs solve per step with the
    zgttrf factors of 1 + aH.  A constant segment (its potential v given)
    factors once.  A segment whose only feature is a MovingWall refactors
    only the wall's edge rows each step (`_wall_factors`); any other
    segment refactors all rows."""
    from scipy.linalg.lapack import zgttrf, zgttrs
    const = g.constants
    kin = const.hbar ** 2 / (2.0 * const.mass * g.dx ** 2)
    a = 0.5j * dt / const.hbar
    off = np.full(g.m - 1, -a * kin)

    def diag(pot):
        return 1.0 + a * (2.0 * kin + pot)

    def factor(k):
        return zgttrf(off, diag(potential((k + 0.5) / nsteps)), off)[:5]

    if v is not None:
        lu = zgttrf(off, diag(v), off)[:5]
        steps = (lu for _ in range(nsteps))
    elif isinstance(seg.feature, MovingWall) and not seg.extra_features:
        steps = _wall_factors(seg.feature, g.x, diag, off, nsteps, factor)
    else:
        steps = map(factor, range(nsteps))

    for k, lu in enumerate(steps):
        y = zgttrs(*lu, psi)[0]
        y *= 2.0
        y -= psi
        psi = y
        if k + 1 in marks:
            observe(k + 1, psi)
    return psi


_CHUNK = 256   # steps whose edge rows _wall_factors builds in one pass


def _wall_factors(wall: MovingWall, x, diag, off, nsteps: int, factor):
    """The zgttrf factors of each step's 1 + aH under a moving wall alone,
    bit for bit those of a zgttrf over all rows, in arrays that the next
    step overwrites.

    Elimination runs down the rows, each pivot a function of the pivot
    above and of its own row's diagonal.  Rows behind the edge hold V = 0
    exactly, so their factors are those of the free matrix, taken once.
    A step refactors from the free pivot of the row before the edge (or
    of the third row from the end, when the edge is nearer) through the
    edge into a tail as long as the edge, where V = height exactly.  There
    the pivots settle: once the last two are bitwise equal, every later
    row repeats them and is filled in.  A step whose refactored rows
    pivot, or whose tail does not settle, calls `factor(k)` for a
    factorisation of all rows.
    """
    from scipy.linalg.lapack import zgttrf
    m = x.size
    # the free matrix is strictly diagonally dominant (|1 + 2a kin| >
    # 2|a kin| for imaginary a), so its elimination swaps no rows: ipiv
    # stays the identity and du2 zero
    behind = diag(np.zeros(m))
    free = zgttrf(off, behind, off)[:5]
    dl, d, du, du2, ipiv = (f.copy() for f in free)
    ahead = diag(wall._profile(np.array([np.inf]), 0.0))[0]
    clean = m   # rows from here on may hold an earlier step's factors
    # whether the last tail tried settled; the rate at which pivots settle
    # is set by the segment (wall height, dt, dx), so after a tail that did
    # not, steps factor all rows until the edge reaches the grid's end
    settles = True
    for start in range(0, nsteps, _CHUNK):
        ks = range(start, min(start + _CHUNK, nsteps))
        firsts, edges = wall._edges(x, [(k + 0.5) / nsteps for k in ks])
        rows = edges.shape[1]
        # each step's diagonal on the three rows before the edge (scipy's
        # zgttrf takes no fewer than three rows), the edge and the tail
        bands = np.full((len(ks), 3 + 2 * rows), ahead)
        bands[:, :3] = behind[0]
        bands[:, 3:3 + rows] = diag(edges)
        for k, first, band in zip(ks, firsts.tolist(), bands):
            if first >= m:
                yield free
                continue
            end = min(first + 2 * rows, m)
            top = max(min(first - 1, end - 3), 0)
            if end - top < 3 or end < m and not settles:
                yield factor(k)
                continue
            if top < first:   # start from the free pivot of the row before
                band[top - first + 3] = free[1][top]
            sub_off = off[top:end - 1]
            sub_dl, sub_d, _, sub_du2, sub_ipiv, _ = zgttrf(
                sub_off, band[top - first + 3:end - first + 3], sub_off,
                overwrite_d=1)
            pivoted = np.count_nonzero(sub_du2) or sub_ipiv[-2] != end - top - 1
            last_two = sub_d[-2:].tobytes()
            settles = end == m or last_two[:16] == last_two[16:]
            if pivoted or not settles:
                yield factor(k)
                continue
            d[end:] = sub_d[-1]
            dl[end - 1:] = sub_dl[-1]
            if clean < top:
                d[clean:top] = free[1][clean:top]
                dl[clean:top] = free[0][clean:top]
            clean = top
            d[top:end] = sub_d
            dl[top:end - 1] = sub_dl
            yield dl, d, du, du2, ipiv


def carpet(g: GridState, timeline: PotentialTimeline,
           settings: PropagatorSettings,
           time_samples: int, space_samples: int | None = None):
    """|psi(x, t)|^2 on a regular (t, x) raster for visualization export.

    Returns (times, positions, density) with density shaped
    (time_samples, space_samples); the first row is the initial state.
    The run shortens dt to the largest step that divides the sample
    spacing, so each row is the state at its labelled time.  Raises
    ValueError when a segment boundary falls between sample times, for
    fewer than 2 time samples, or for space samples outside 1..m (more
    would repeat grid points).
    """
    if time_samples < 2:
        raise ValueError("need at least 2 time samples")
    if space_samples is not None and not 1 <= space_samples <= g.m:
        raise ValueError(f"need 1..{g.m} space samples on a grid of {g.m} "
                         f"points, got {space_samples}")
    nx = space_samples if space_samples is not None else g.m
    xi = np.linspace(0, g.m - 1, nx).round().astype(int)
    total = timeline.duration
    spacing = total / (time_samples - 1)
    for seg in timeline.segments:
        if _whole(seg.duration / spacing) is None:
            raise ValueError(
                f"segment of duration {seg.duration:g} ends between sample "
                f"times {spacing:g} apart")
    per_row = _step_count(spacing, settings.dt)
    rows = np.zeros((time_samples, nx))
    rows[0] = np.abs(g.samples[xi]) ** 2

    def observer(t, gs):
        rows[round(t / spacing)] = np.abs(gs.samples[xi]) ** 2

    propagate(g, timeline, replace(settings, dt=spacing / per_row),
              observer=observer, stride=per_row)
    return np.linspace(0.0, total, time_samples), g.x[xi], rows


# --- the dynamic protocol --------------------------------------------------

@dataclass(frozen=True)
class DynamicKnobs:
    """Realism knobs for the grid protocol run, times in units of tau."""

    barrier_ramp_time: float = 0.002  # tau units; fast is good: the barrier
    # grows on a node of the target pattern, so the sudden limit is the
    # ideal split and a slow ramp only mistimes it
    barrier_height: float | None = None   # default 1e2 * E_max
    barrier_half_width: float | None = None  # default 4 dx
    compression_time: float = 40.0    # tau units
    wall_height: float | None = None  # default 1e4 * E_max
    wall_edge_width_dx: float = 1.0   # tanh edge scale, in units of dx
    dt: float | None = None           # default tau / 8000
    m: int = 1023                     # interior points on (0, 2L); odd, so x=L is on-grid

    def __post_init__(self):
        for name in ("compression_time", "barrier_ramp_time",
                     "wall_edge_width_dx", "dt", "barrier_height",
                     "barrier_half_width", "wall_height"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass
class FidelityReport:
    fidelity: float
    odd_level_leakage: float
    step_norms: dict
    warnings: list

    def to_dict(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "odd_level_leakage": self.odd_level_leakage,
            "step_norms": {k: float(v) for k, v in self.step_norms.items()},
            "warnings": list(self.warnings),
        }


def run_dynamic_protocol(s: SpectralState, knobs: DynamicKnobs,
                         scheme: str = "crank-nicolson"
                         ) -> tuple[SpectralState, FidelityReport]:
    """Execute the six protocol steps with realistic features on a grid.

    The grid spans (0, 2L) throughout; step vi is a high potential wall
    sweeping from 2L to L.  The result is projected on the width-L
    eigenbasis and compared against the doubling oracle.  Raises
    ValueError for an input with non-finite amplitudes or zero norm.

    Crank-Nicolson is the default here (not the faster split-step) because
    the barrier and wall heights dwarf 1/dt: the splitting's potential
    phase V*dt then wraps past pi and a steep wall turns spuriously
    transparent, while the implicit scheme stays reflective at any height.
    """
    require_normalizable(s)
    if s.geometry.origin != 0.0:
        raise ValueError("dynamic protocol assumes the well starts at x=0")
    L = s.geometry.width
    const = s.constants
    omega0 = s.geometry.omega0(const)
    tau = 2.0 * np.pi / omega0
    m = knobs.m
    if m % 2 == 0:
        raise ValueError(f"grid size m must be odd so that x=L is a grid "
                         f"point, got {m}")
    dx = 2.0 * L / (m + 1)

    n_max = s.n_modes
    e_max = const.hbar * omega0 * n_max ** 2
    barrier_height = knobs.barrier_height if knobs.barrier_height is not None \
        else 1e2 * e_max
    wall_height = knobs.wall_height if knobs.wall_height is not None \
        else 1e4 * e_max
    half_width = knobs.barrier_half_width if knobs.barrier_half_width is not None \
        else 4 * dx
    dt = knobs.dt if knobs.dt is not None else tau / 8000.0

    warnings = []
    if wall_height < 100 * e_max:
        warnings.append(
            f"wall_height {wall_height:.3g} below 100*E_max {100 * e_max:.3g}; "
            "expect tunneling leakage")
    if scheme == "strang-split-sine":
        for name, height in (("wall_height", wall_height),
                             ("barrier_height", barrier_height)):
            wrap = height * dt / const.hbar
            if wrap > np.pi:
                warnings.append(
                    f"{name}*dt/hbar = {wrap:.3g} exceeds pi: the split "
                    "step's potential phase wraps and the feature turns "
                    "partly transparent; use crank-nicolson or a smaller dt")

    # step i: instantaneous expansion is exact zero padding
    grid0 = GridState(samples=np.zeros(m, dtype=complex), width=2.0 * L,
                      constants=const)
    x = grid0.x
    psi0 = np.zeros(m, dtype=complex)
    inside = x < L
    n = s.quantum_numbers
    modes = np.sqrt(2.0 / L) * np.sin(np.pi * np.outer(n, x[inside]) / L)
    psi0[inside] = s.amps @ modes
    grid = grid0.with_samples(psi0)

    settings = PropagatorSettings(dt=dt, scheme=scheme)
    step_norms = {"expand": grid.norm_sq()}

    barrier_up = RampedBarrier(center=L, half_width=half_width,
                               height=barrier_height, mode="up")
    barrier_hold = RampedBarrier(center=L, half_width=half_width,
                                 height=barrier_height, mode="hold")
    barrier_down = RampedBarrier(center=L, half_width=half_width,
                                 height=barrier_height, mode="down")
    offset = UniformOffset(height=const.hbar * omega0 / 4.0, start=L, stop=2.0 * L)
    # the wall starts just outside the domain and stops slightly beyond L so
    # that its exponential tail puts the effective hard wall at L itself
    edge = knobs.wall_edge_width_dx * dx
    stop = L + 0.5 * edge * np.log(wall_height / e_max)
    wall = MovingWall(start_position=2.0 * L + 8 * edge, stop_position=stop,
                      height=wall_height, edge_width=edge)

    stages = [
        ("mirror-evolve", PotentialTimeline([Segment(tau, FreeFlight())])),
        ("split", PotentialTimeline([Segment(knobs.barrier_ramp_time * tau,
                                             barrier_up)])),
        ("phase", PotentialTimeline([Segment(tau, barrier_hold,
                                             extra_features=(offset,))])),
        ("merge", PotentialTimeline([Segment(knobs.barrier_ramp_time * tau,
                                             barrier_down)])),
        ("compress", PotentialTimeline([Segment(knobs.compression_time * tau,
                                                wall)])),
    ]
    for label, tl in stages:
        grid = propagate(grid, tl, settings)
        step_norms[label] = grid.norm_sq()

    # project the compressed state onto the width-L eigenbasis
    keep = x < L
    m_half = int(np.sum(keep))
    half = GridState(samples=grid.samples[:m_half], width=L, constants=const)
    n_out = min(2 * s.n_modes, m_half)
    out = to_spectral(half, n_out)
    step_norms["project"] = float(np.sum(np.abs(out.amps) ** 2))

    fid, leakage = oracle_score(out, s, 2)
    if step_norms["project"] < 0.9:
        warnings.append(
            f"only {step_norms['project']:.3f} of the norm ended up in (0, L); "
            "wall too low or compression too fast")
    report = FidelityReport(fidelity=fid, odd_level_leakage=leakage,
                            step_norms=step_norms, warnings=warnings)
    return fix_global_phase(out), report
