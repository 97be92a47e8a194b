"""Azimuthal-charge multiplier bench: unwrap a ring beam to a strip, fan
the strip out into p phase-corrected copies, squeeze them back to one
strip width, and wrap the result up again.

The net effect on a charge-l input is an l -> p*l map: the unwrapped
phase ramp of 2 pi l is tiled p times and compressed, so the wrapped
beam closes on itself with p times the original winding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, fft2, ifft

from .optics import (Field2D, FanoutConfig, GridSpec, RingSpec,
                     SorterConfig, fanout_order_coefficients,
                     fanout_grating_phase, make_oam_mode, oam_spectrum,
                     _log_polar, _phase1, _phasor, _polar_samples,
                     _ring_geometry, _xy, sorter_phase2)

__all__ = [
    "MultiplierPipelineConfig",
    "CrosstalkMatrix",
    "PetalReport",
    "AmbiguousHarmonicError",
    "multiply_oam",
    "crosstalk_matrix",
    "petal_test",
]


class AmbiguousHarmonicError(RuntimeError):
    """Petal counting found no clearly dominant azimuthal harmonic."""


@dataclass(frozen=True)
class MultiplierPipelineConfig:
    """Fully resolved bench geometry.

    Build through `design()`, which snaps the sorter scale `a` so the
    unwrapped strip spans an exact multiple of p pixels along v in the
    transform plane.  That makes the p fan-out copies tile the strip
    edge-to-edge on the raster and turns the cylindrical 1/p
    demagnification into an exact row decimation.
    """

    sorter: SorterConfig
    fanout: FanoutConfig
    grid: GridSpec
    ring: RingSpec
    p: int = 3
    strip_pixels: int = 0       # strip width along v, in transform-plane px

    def __post_init__(self):
        if self.p != self.fanout.copies:
            raise ValueError("p must equal the fan-out copy count")
        if self.strip_pixels % self.p:
            raise ValueError("strip width must be a multiple of p pixels")

    @property
    def uv_pitch(self) -> float:
        s = self.sorter
        return s.wavelength * s.f / (self.grid.n * self.grid.pitch)

    @classmethod
    def design(cls, p: int = 3, grid: GridSpec | None = None,
               ring: RingSpec | None = None,
               a_target: float = 0.8e-3, b: float = 3e-3,
               f: float = 0.25, wavelength: float = 633e-9,
               mu: float = 1.32859) -> "MultiplierPipelineConfig":
        grid = grid if grid is not None else GridSpec(n=2048, pitch=10e-6)
        ring = ring if ring is not None else RingSpec(radius=b, width=b / 7.5)
        uv_pitch = wavelength * f / (grid.n * grid.pitch)
        k = max(p, int(round(2.0 * np.pi * a_target / uv_pitch / p)) * p)
        a = k * uv_pitch / (2.0 * np.pi)
        sorter = SorterConfig(a=a, b=b, f=f, wavelength=wavelength)
        # order spacing of one strip width: lambda f / period = 2 pi a
        period = wavelength * f / (2.0 * np.pi * a)
        fanout = FanoutConfig(mu=mu, copies=p, period=period, cylinder_f=f / p)
        return cls(sorter=sorter, fanout=fanout, grid=grid, ring=ring, p=p,
                   strip_pixels=k)


def _checkerboard(w: np.ndarray) -> np.ndarray:
    """w *= (-1)^(i + j), in place."""
    np.negative(w[::2, 1::2], out=w[::2, 1::2])
    np.negative(w[1::2, ::2], out=w[1::2, ::2])
    return w


def _power(w: np.ndarray, pitch: float) -> float:
    # row sums, then numpy's pairwise sum: as accurate as summing |w|^2,
    # without its two real temporaries; a BLAS vdot accumulates ~1e-13
    # relative error over a 2048^2 raster
    re_im = w.view(float)
    return float(np.sum(np.einsum("ij,ij->i", re_im, re_im)) * pitch ** 2)


def multiply_oam(e: Field2D, cfg: MultiplierPipelineConfig,
                 correct_phases: bool = True,
                 diagnostics: dict | None = None) -> Field2D:
    """Map sum c_l |l> to sum c_l |p l>; linear in the input field.

    Stages: unwrap -> Fourier to the grating plane -> fan-out phase ->
    back to the image plane -> per-copy phase correction -> exact 1/p
    row squeeze -> wrap.  `diagnostics`, if supplied, collects per-stage
    power bookkeeping; set correct_phases=False to study the degraded
    uncorrected bench.  The input raster must have an even size.

    One working raster goes through the whole bench.  Each sorter mask is
    built once, and the wrap multiplies by its conjugate.
    """
    if e.n % 2:
        raise ValueError("the bench needs an even raster size")
    if diagnostics is None:
        diagnostics = {}
    s = cfg.sorter
    n, mid, dx = e.n, e.n // 2, e.pitch
    du = s.wavelength * s.f / (n * dx)      # transform-plane pitch

    x, y = _xy(e)
    logr, theta = _log_polar(x, y, s.b)
    intensity = np.abs(e.samples) ** 2
    total = np.sum(intensity)
    # design annulus: |log(r/b)| <= 0.7
    outside = np.sum(intensity[np.abs(logr) > 0.7]) / total if total else 0.0
    diagnostics["outside_annulus_fraction"] = float(outside)
    if outside > 0.05:
        diagnostics["warning"] = (
            "more than 5% of the input power lies outside the design "
            "annulus; the log-polar map is inaccurate there")
    del intensity

    # A centred lens is fftshift(fft2(ifftshift(w))) = C fft2(C w) for even
    # n, with C = (-1)^(i + j).  Along the chain the C of one lens cancels
    # the next one's; across the squeeze, row mid + p j lands on mid + j
    # and (-1)^((p + 1) j) = 1 for odd p.  The two left over, at the input
    # and at the output, fold into mask1.  The four lens scales multiply
    # to 1, so w is never scaled; the stage powers carry (dx / n)^2.
    mask1 = _checkerboard(_phasor(_phase1(x, y, logr, theta, s)))
    del logr, theta
    w = fft2(e.samples * mask1, overwrite_x=True)
    uv = (np.arange(n) - mid) * du
    mask2 = _phasor(sorter_phase2(uv[None, :], uv[:, None], s))
    w *= mask2
    diagnostics["strip_power"] = _power(w, dx / n)

    # the grating plane has the input pitch, and the grating varies along
    # y only: of the two lenses around it only the y transforms act
    w = fft(w, axis=0, overwrite_x=True)
    w *= np.exp(1j * fanout_grating_phase(y, cfg.fanout))
    w = ifft(w, axis=0, overwrite_x=True)

    # phase-correct the rows the squeeze keeps, then decimate them:
    # cylindrical demagnification v -> v/p as an exact row decimation
    p, k, half = cfg.p, cfg.strip_pixels, cfg.p // 2
    j_out = np.arange(-(mid // p), (n - 1 - mid) // p + 1)
    src = p * j_out
    row_scale = np.full(src.size, np.sqrt(p), dtype=complex)
    if correct_phases:
        _, coeffs = fanout_order_coefficients(cfg.fanout, half)
        for order, c in zip(range(-half, half + 1), coeffs):
            seg = np.abs(src + order * k) <= k // 2
            row_scale[seg] *= np.exp(-1j * np.angle(c))
    kept = slice(mid + j_out[0], mid + j_out[-1] + 1)
    w[kept] = w[mid + src] * row_scale[:, None]
    w[:kept.start] = 0.0
    w[kept.stop:] = 0.0
    diagnostics["copies_power"] = _power(w[mid - k // 2:mid + k // 2 + 1],
                                         dx / n)

    # wrap; only the kept rows are nonzero until the y transform
    w[kept] = ifft(w[kept] * np.conjugate(mask2[kept]), axis=1,
                   overwrite_x=True)
    del mask2
    w = ifft(w, axis=0, overwrite_x=True)
    w *= np.conjugate(mask1, out=mask1)
    del mask1
    diagnostics["output_power"] = _power(w, dx)
    return Field2D(samples=w, pitch=dx, wavelength=e.wavelength,
                   plane="multiplied")


@dataclass(frozen=True)
class CrosstalkMatrix:
    """Power transfer fractions from input charges to output charges."""

    ell_in: np.ndarray
    ell_out: np.ndarray
    entries: np.ndarray     # shape (len(ell_in), len(ell_out))

    def __post_init__(self):
        object.__setattr__(self, "ell_in", np.asarray(self.ell_in, dtype=int))
        object.__setattr__(self, "ell_out", np.asarray(self.ell_out, dtype=int))
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.ell_in.size, self.ell_out.size):
            raise ValueError("entry matrix shape does not match the windows")
        object.__setattr__(self, "entries", e)

    def row(self, ell: int) -> np.ndarray:
        return self.entries[int(np.nonzero(self.ell_in == ell)[0][0])]

    def dominant_outputs(self) -> np.ndarray:
        return self.ell_out[np.argmax(self.entries, axis=1)]

    def to_dict(self) -> dict:
        return {
            "ell_in": [int(v) for v in self.ell_in],
            "ell_out": [int(v) for v in self.ell_out],
            "entries": [[float(x) for x in row] for row in self.entries],
        }


def crosstalk_matrix(cfg: MultiplierPipelineConfig, ell_in_max: int = 3,
                     ell_out_max: int | None = None,
                     method: str = "azimuthal-decomposition") -> CrosstalkMatrix:
    """Run each input eigenmode through the bench and record its output
    spectrum row by row."""
    if ell_out_max is None:
        ell_out_max = cfg.p * ell_in_max + 6
    ells_in = np.arange(-ell_in_max, ell_in_max + 1)
    rows = []
    for ell in ells_in:
        mode = make_oam_mode(int(ell), cfg.ring, cfg.grid,
                             cfg.sorter.wavelength)
        out = multiply_oam(mode, cfg)
        spec = oam_spectrum(out, ell_out_max, method=method, ring=cfg.ring)
        rows.append(spec.fractions)
    return CrosstalkMatrix(ell_in=ells_in,
                           ell_out=np.arange(-ell_out_max, ell_out_max + 1),
                           entries=np.vstack(rows))


@dataclass(frozen=True)
class PetalReport:
    petals_in: int
    petals_out: int
    visibility: float
    ring_profile: np.ndarray   # output intensity along the analysis ring
    ring_radius: float

    def to_dict(self) -> dict:
        return {
            "petals_in": self.petals_in,
            "petals_out": self.petals_out,
            "visibility": float(self.visibility),
            "ring_radius": float(self.ring_radius),
        }


def _count_petals(e: Field2D, harmonic_max: int) -> tuple[int, float, np.ndarray, float]:
    """Dominant azimuthal intensity harmonic at the ring of peak power.

    Returns (petal count, visibility, ring intensity profile, radius).
    Raises AmbiguousHarmonicError if the runner-up harmonic is within 10%
    of the dominant one.
    """
    n_theta = 1 << int(np.ceil(np.log2(max(256, 8 * harmonic_max))))
    radii, theta, vals = _polar_samples(e, n_theta, e.n // 2)
    intensity = np.abs(vals) ** 2
    ridx = int(np.argmax(intensity.sum(axis=1)))
    profile = intensity[ridx]
    spec = np.abs(np.fft.rfft(profile))
    spec[0] = 0.0
    top = min(spec.size - 1, 4 * harmonic_max)
    order = np.argsort(spec[1:top + 1])[::-1] + 1
    if spec[order[1]] > 0.9 * spec[order[0]]:
        raise AmbiguousHarmonicError(
            f"harmonics {order[0]} and {order[1]} within 10% "
            f"({spec[order[1]]:.3g} vs {spec[order[0]]:.3g})")
    petals = int(order[0])
    vis = float((profile.max() - profile.min()) / (profile.max() + profile.min()))
    return petals, vis, profile, float(radii[ridx])


def _petal_input(ell: int, cfg: MultiplierPipelineConfig) -> Field2D:
    """(|l> + |-l>)/sqrt(2) = sqrt(2) amp cos(l theta) / norm, as both ring
    modes share the amplitude and the norm."""
    amp, x, y = _ring_geometry(cfg.ring, cfg.grid, ell)
    norm = np.sqrt(np.sum(amp ** 2) * cfg.grid.pitch ** 2)
    field = amp * np.cos(ell * np.arctan2(y, x))
    field *= np.sqrt(2.0) / norm
    return Field2D(samples=field, pitch=cfg.grid.pitch,
                   wavelength=cfg.sorter.wavelength, plane="input")


def petal_test(ell: int, cfg: MultiplierPipelineConfig) -> PetalReport:
    """Coherence witness: feed (|l> + |-l>)/sqrt(2) through the bench.

    The input shows 2|l| intensity petals; a coherent multiplier yields
    2 p |l| petals with high visibility.
    """
    if ell < 1:
        raise ValueError("petal test needs a positive charge")
    sup = _petal_input(ell, cfg)
    petals_in, _, _, _ = _count_petals(sup, 2 * ell)
    out = multiply_oam(sup, cfg)
    petals_out, vis, profile, radius = _count_petals(out, 2 * cfg.p * ell)
    return PetalReport(petals_in=petals_in, petals_out=petals_out,
                       visibility=vis, ring_profile=profile,
                       ring_radius=radius)
