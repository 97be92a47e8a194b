"""Ideal (exact-arithmetic) level-multiplication pipeline in the eigenbasis.

Implements the six-step well protocol: instantaneous expansion, free
evolution to the copy-producing fractional revival, barrier split at the
wavefunction nodes, constant phase offsets, merge, and ideal adiabatic
compression.  The closed-form multiply oracle and its score are provided
for verification.

The p-fold fractional revival occurs at t = p*tau/2 in the width-p*L well
(tau = 2*pi/omega0(L)); at that moment each sub-well carries one copy of
the initial wavefunction with weight 1/sqrt(p), alternately direct and
mirrored.  For odd p the alternation starts with a mirrored copy, so after
merging we additionally evolve for half a revival of the expanded well
(a pure parity operation) to land on the multiplication oracle exactly.
The per-sub-well phase offsets are fitted numerically and checked against
a residual tolerance rather than taken from any closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .well import (
    GeometryError,
    SpectralState,
    WellGeometry,
    free_evolve,
    project,
    rebase,
)

__all__ = [
    "ProtocolConfig",
    "ProtocolReport",
    "NodeConditionError",
    "CopyFitError",
    "hotel_multiply_oracle",
    "oracle_score",
    "split_at_nodes",
    "phase_offset",
    "merge_halves",
    "adiabatic_retag",
    "run_ideal_protocol_p",
]

NODE_TOL = 1e-8           # |psi| at a barrier, relative to its peak
COPY_RESIDUAL_TOL = 1e-8  # per sub-well, before the truncation-tail floor


class NodeConditionError(RuntimeError):
    """The wavefunction is not zero at a required barrier position."""

    def __init__(self, position: float, relative_amplitude: float, tol: float):
        self.position = position
        self.relative_amplitude = relative_amplitude
        super().__init__(
            f"no node at x={position}: |psi| = {relative_amplitude:.3e} of peak "
            f"(tol {tol:.1e}); evolution time is probably mistimed")


class CopyFitError(RuntimeError):
    """A sub-well does not hold a clean copy of the input wavefunction."""


@dataclass(frozen=True)
class ProtocolConfig:
    p: int = 2
    n_modes: int | None = None        # output capacity; default p * N
    working_modes: int | None = None  # internal expanded-basis size; default 4 * p * N

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"multiplier p must be >= 1, got {self.p}")
        for name in ("n_modes", "working_modes"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass
class ProtocolReport:
    """What each stage left: the norm after it, by label in run order.

    The copy fit of the phase stage gives one coefficient and one
    residual per sub-well; a p = 1 run has no stages but compress and
    empty fit arrays.
    """

    step_norms: dict
    copy_coefficients: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=complex))
    copy_residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    warnings: list = field(default_factory=list)


def _norm_sq(*states: SpectralState) -> float:
    return float(sum(np.sum(np.abs(s.amps) ** 2) for s in states))


def require_normalizable(s: SpectralState) -> None:
    """Raise ValueError unless s has finite amplitudes and a non-zero norm."""
    norm = s.norm()
    if not (np.isfinite(norm) and norm > 0):
        raise ValueError(f"input state needs finite amplitudes and a non-zero "
                         f"norm, got norm {norm}")


def hotel_multiply_oracle(s: SpectralState, p: int) -> SpectralState:
    """Isometry moving level n to level p*n, vacating all non-multiples."""
    if p < 1:
        raise ValueError(f"multiplier must be >= 1, got {p}")
    amps = np.zeros(p * s.n_modes, dtype=complex)
    amps[p - 1::p] = s.amps
    return SpectralState(geometry=s.geometry, amps=amps, constants=s.constants)


def oracle_score(out: SpectralState, s: SpectralState, p: int) -> tuple[float, float]:
    """Score a protocol output out for input s against the multiply oracle.

    Returns |<oracle|out>|^2 over the levels both hold, and the power out
    leaves on levels that are not multiples of p.
    """
    oracle = hotel_multiply_oracle(s, p)
    if out.geometry != oracle.geometry:
        raise GeometryError(f"geometry mismatch: {out.geometry} vs {oracle.geometry}")
    k = min(out.n_modes, oracle.n_modes)
    fidelity = float(abs(np.vdot(oracle.amps[:k], out.amps[:k])) ** 2)
    vacated = np.ones(out.n_modes, dtype=bool)
    vacated[p - 1::p] = False
    return fidelity, float(np.sum(np.abs(out.amps[vacated]) ** 2))


@lru_cache(maxsize=32)
def _node_row(g: WellGeometry, n_modes: int, position: float) -> np.ndarray:
    """Every mode of g at position, sqrt(2/W) sin(pi n (x - origin) / W)
    for n = 1..n_modes; read-only."""
    n = np.arange(1, n_modes + 1)
    row = np.sqrt(2.0 / g.width) * np.sin(np.pi * n * (position - g.origin) / g.width)
    row.setflags(write=False)
    return row


def _node_peak(s: SpectralState) -> float:
    """Peak |psi| on the grid linspace(origin, end, 1026)[1:-1].

    Uses the low band (n <= 1024) only; high modes add little amplitude.
    On that grid, x_k = origin + W k / 1025 for k = 1..1024, and the band
    sum is a type-I DST, taken as the FFT of the odd extension
    z = (0, a_1..a_b, 0.., -a_b..-a_1) of length 2050, b = min(N, 1024):
    FFT(z)[k] = -2i sum_n a_n sin(pi n k / 1025), so
    |psi(x_k)| = sqrt(2/W) |FFT(z)[k]| / 2.  Amplitudes above the band
    are dropped; a shorter state is zero-padded.
    """
    band = s.amps[:1024]
    odd = np.zeros(2050, dtype=complex)
    odd[1:band.size + 1] = band
    odd[2050 - band.size:] = -band[::-1]
    peak = np.max(np.abs(np.fft.fft(odd)[1:1025]))
    return float(np.sqrt(2.0 / s.geometry.width) * peak / 2.0)


def _check_node(s: SpectralState, position: float):
    """Require |psi| at position below NODE_TOL of the peak, or below ten
    times the truncation allowance there when that is larger.

    The allowance bounds the node amplitude due to basis truncation alone.
    A band-limited representation of a wavefunction whose derivative is
    discontinuous at the node converges pointwise only like 1/N there; the
    top half of the stored spectrum gives the scale of that remainder.
    States genuinely band-limited below N/2 get an allowance of zero.  The
    node value and the allowance share one cached row of mode values.
    """
    row = _node_row(s.geometry, s.n_modes, position)
    a = s.amps
    peak = _node_peak(s)
    val = abs(complex(a.real @ row, a.imag @ row))
    rel = val / peak if peak > 0 else 0.0
    tol = NODE_TOL
    if peak > 0:
        half = s.n_modes // 2
        allowance = float(np.abs(a[half:]) @ np.abs(row[half:]))
        tol = max(tol, 10.0 * allowance / peak)
    if rel > tol:
        raise NodeConditionError(position, rel, tol)


def split_at_nodes(s: SpectralState, parts: int,
                   n_modes: int | None = None) -> list[SpectralState]:
    """Insert barriers at the parts-1 interior nodes, yielding sub-well states.

    Each returned state is the projection of the wavefunction restricted
    to one sub-well onto that sub-well's own eigenbasis.  Raises
    NodeConditionError when the wavefunction is not zero at a barrier.
    """
    g = s.geometry
    sub_width = g.width / parts
    n_sub = n_modes if n_modes is not None else max(1, s.n_modes // parts)
    for j in range(1, parts):
        _check_node(s, g.origin + j * sub_width)
    out = []
    for j in range(parts):
        sub = WellGeometry(width=sub_width, origin=g.origin + j * sub_width)
        out.append(project(s, sub, n_sub))
    return out


def phase_offset(s: SpectralState, V: float, t: float) -> SpectralState:
    """Evolve under the sub-well Hamiltonian with a uniform potential offset.

    Applies both the offset phase exp(-i V t / hbar) and the free sub-well
    evolution; at t = 2*pi/omega0 the free part is the identity.
    """
    factor = np.exp(-1j * V * t / s.constants.hbar)
    evolved = free_evolve(s, t)
    return evolved.with_amps(evolved.amps * factor)


def merge_halves(*parts: SpectralState, n_modes: int | None = None) -> SpectralState:
    """Remove the barriers between adjacent equal-width sub-wells.

    Re-projects the concatenated wavefunction onto the eigenbasis of the
    combined well.  Sub-wells must be adjacent and of equal width.
    """
    if len(parts) < 2:
        raise ValueError("need at least two sub-wells to merge")
    widths = [p.geometry.width for p in parts]
    if not np.allclose(widths, widths[0], rtol=1e-12, atol=0):
        raise GeometryError(f"sub-well widths differ: {widths}")
    order = sorted(parts, key=lambda p: p.geometry.origin)
    for a, b in zip(order, order[1:]):
        if abs(a.geometry.end - b.geometry.origin) > 1e-12 * widths[0]:
            raise GeometryError("sub-wells are not adjacent")
    big = WellGeometry(width=widths[0] * len(parts), origin=order[0].geometry.origin)
    n_big = n_modes if n_modes is not None else sum(p.n_modes for p in parts)
    amps = np.zeros(n_big, dtype=complex)
    for p in order:
        amps += project(p, big, n_big).amps
    return SpectralState(geometry=big, amps=amps, constants=order[0].constants)


def adiabatic_retag(s: SpectralState, target: WellGeometry) -> SpectralState:
    """Ideal model of adiabatic compression: amplitude on mode n of the wide
    well is carried to mode n of the target well unchanged.

    The dynamical phases are removed exactly and the result is gauge-fixed
    so the lowest occupied level is real and non-negative.
    """
    return fix_global_phase(
        SpectralState(geometry=target, amps=s.amps, constants=s.constants))


def fix_global_phase(s: SpectralState) -> SpectralState:
    """Rotate so the lowest occupied level has non-negative real amplitude."""
    idx = np.flatnonzero(np.abs(s.amps) > 1e-12 * max(1.0, s.norm()))
    if idx.size == 0:
        return s
    phase = s.amps[idx[0]] / abs(s.amps[idx[0]])
    return s.with_amps(s.amps / phase)


def _copy_pattern(p: int) -> list[str]:
    """Copy type per sub-well at the p-fold fractional revival.

    Even p: direct copies on even sub-wells; odd p: mirrored copies there.
    Verified at runtime by the residual check in _fit_copy_phases.
    """
    start_direct = (p % 2 == 0)
    return ["direct" if (j % 2 == 0) == start_direct else "mirrored"
            for j in range(p)]


def _fit_copy_phases(parts: list[SpectralState], reference: np.ndarray,
                     pattern: list[str], tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Fit a complex coefficient per sub-well against the expected copy shape.

    Returns (coefficients, residuals); raises CopyFitError when a sub-well
    is not a clean (direct or mirrored) copy of the reference amplitudes.
    """
    signs = np.where(np.arange(1, reference.size + 1) % 2 == 1, 1.0, -1.0)
    coeffs = np.zeros(len(parts), dtype=complex)
    residuals = np.zeros(len(parts))
    for j, (part, kind) in enumerate(zip(parts, pattern)):
        ref = reference if kind == "direct" else reference * signs
        n = min(part.n_modes, ref.size)
        c = np.vdot(ref[:n], part.amps[:n])
        tail = np.sum(np.abs(part.amps[n:]) ** 2)
        res = np.sqrt(np.sum(np.abs(part.amps[:n] - c * ref[:n]) ** 2) + tail)
        if res > tol:
            raise CopyFitError(
                f"sub-well {j}: residual {res:.3e} against {kind} copy "
                f"(tol {tol:.1e}); wrong revival time or truncation too small")
        coeffs[j] = c
        residuals[j] = res
    return coeffs, residuals


def run_ideal_protocol_p(s: SpectralState, cfg: ProtocolConfig) -> tuple[SpectralState, ProtocolReport]:
    """Full ideal pipeline for multiplication by cfg.p.

    Steps: expand to width p*L; evolve to the p-copy fractional revival at
    t = p*tau/2; split at the p-1 nodes; apply fitted constant phase
    offsets per sub-well; merge; (odd p) half-revival parity fix; ideal
    adiabatic compression back to width L with levels retagged p*n -> p*n.
    Raises ValueError for an input with non-finite amplitudes or zero norm.
    """
    require_normalizable(s)
    p = cfg.p
    if p == 1:
        out = fix_global_phase(s)
        return out, ProtocolReport({"compress": _norm_sq(out)})
    g = s.geometry
    n_out = cfg.n_modes if cfg.n_modes is not None else p * s.n_modes
    n_work = cfg.working_modes if cfg.working_modes is not None else 4 * p * s.n_modes
    n_work = max(n_work, n_out)
    big = WellGeometry(width=p * g.width, origin=g.origin)
    tau = 2.0 * np.pi / g.omega0(s.constants)
    norms = {}

    expanded = rebase(s, big, n_work)
    norms["expand"] = _norm_sq(expanded)
    evolved = free_evolve(expanded, p * tau / 2.0)
    norms["mirror-evolve"] = _norm_sq(evolved)
    parts = split_at_nodes(evolved, p, n_modes=s.n_modes)
    norms["split"] = _norm_sq(*parts)

    # Constant phase per sub-well: rotate copy j onto (-1)^j / sqrt(p).
    # The copy-fit residual cannot beat the norm lost when the expanded
    # basis was truncated, so the guard tolerance is floored at that tail.
    expand_tail = float(np.sqrt(max(
        0.0, np.sum(np.abs(s.amps) ** 2) - np.sum(np.abs(expanded.amps) ** 2))))
    fit_tol = max(COPY_RESIDUAL_TOL, 10.0 * expand_tail)
    coeffs, residuals = _fit_copy_phases(parts, s.amps, _copy_pattern(p), fit_tol)
    phased = [part.with_amps(part.amps * ((-1.0) ** j * np.conj(c) / abs(c)))
              for j, (part, c) in enumerate(zip(parts, coeffs))]
    norms["phase"] = _norm_sq(*phased)

    # The merge lands in the output basis: compression keeps levels 1..n_out
    # only, and the odd-p parity fix is diagonal, so it commutes with that cut.
    merged = merge_halves(*phased, n_modes=n_out)
    if p % 2 == 1:
        # mirrored-first copy pattern: half a revival of the expanded well
        # applies the parity operator and restores the direct ordering
        merged = free_evolve(merged, 0.5 * 2.0 * np.pi / big.omega0(s.constants))
    norms["merge"] = _norm_sq(merged)

    out = adiabatic_retag(merged, g)
    norms["compress"] = _norm_sq(out)
    return out, ProtocolReport(norms, coeffs, residuals)
