"""Scalar paraxial field toolbox: OAM ring modes, Fourier lenses, phase
masks for the log-polar mode sorter, and fan-out grating analysis.

Fields are complex samples on a centred square grid (pixel (N/2, N/2) is
the optical axis).  Lenses are ideal 2f relays: a single unitary scaled
Fourier transform connects consecutive planes, so a whole bench is a chain
of pure linear maps on immutable arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.ndimage import map_coordinates

__all__ = [
    "Field2D",
    "SorterConfig",
    "FanoutConfig",
    "OamSpectrum",
    "GridSpec",
    "RingSpec",
    "UndersampledError",
    "make_oam_mode",
    "fourier_lens",
    "inverse_fourier_lens",
    "sorter_phase1",
    "sorter_phase2",
    "apply_sorter_mask1",
    "apply_sorter_mask2",
    "sorter_unwrap",
    "sorter_wrap",
    "fanout_grating_phase",
    "fanout_order_coefficients",
    "fanout_phase_correction",
    "oam_spectrum",
]


class UndersampledError(ValueError):
    """A requested feature oscillates faster than the grid can resolve."""


# projective overlaps skip the pixels where the ring amplitude is below
# this; together they move an overlap of a unit-power field by at most
# _RING_FLOOR * window / norm, about 7e-17 for the default bench
_RING_FLOOR = 1e-17


@dataclass(frozen=True)
class GridSpec:
    """Square sampling raster: n x n pixels of the given pitch."""

    n: int = 1024
    pitch: float = 10e-6

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise ValueError("grid size must be an even integer >= 4")
        if self.pitch <= 0:
            raise ValueError("pixel pitch must be positive")

    @property
    def window(self) -> float:
        return self.n * self.pitch

    def axis(self) -> np.ndarray:
        """Centred pixel coordinates; index n//2 sits on the axis."""
        return (np.arange(self.n) - self.n // 2) * self.pitch


@dataclass(frozen=True)
class RingSpec:
    """Annular amplitude profile: Gaussian shell at `radius` of 1/e half
    thickness `width`."""

    radius: float
    width: float

    def __post_init__(self):
        if self.radius <= 0 or self.width <= 0:
            raise ValueError("ring radius and width must be positive")


@dataclass(frozen=True)
class Field2D:
    """Complex scalar field on a centred square raster."""

    samples: np.ndarray
    pitch: float
    wavelength: float
    plane: str = "input"

    def __post_init__(self):
        # a read-only view: the caller's own array stays writable
        a = np.ascontiguousarray(self.samples, dtype=complex).view()
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("field samples must form a square matrix")
        a.setflags(write=False)
        object.__setattr__(self, "samples", a)
        if self.pitch <= 0 or self.wavelength <= 0:
            raise ValueError("pitch and wavelength must be positive")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def axis(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.pitch

    def power(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.pitch ** 2)

    def with_samples(self, samples, plane: str | None = None) -> "Field2D":
        out = replace(self, samples=np.asarray(samples, dtype=complex))
        if plane is not None:
            out = replace(out, plane=plane)
        return out

    def intensity(self) -> np.ndarray:
        return np.abs(self.samples) ** 2


@dataclass(frozen=True)
class SorterConfig:
    """Log-polar transformer parameters.

    The first mask maps radius and azimuth to cartesian far-field
    coordinates u = -a log(r/b), v = a theta, so a sets the scale of the
    unwrapped strip (full azimuth covers a v-range of 2 pi a) and b the
    radius that lands on u = 0.
    """

    a: float = 0.4e-3
    b: float = 1.2e-3
    f: float = 0.5
    wavelength: float = 633e-9

    def __post_init__(self):
        for name in ("a", "b", "f", "wavelength"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class FanoutConfig:
    """Phase grating splitting a beam into p equal diffraction orders.

    mu is the modulation depth of arctan(2 mu cos(.)); the default value
    balances orders -1, 0, +1.  The period is chosen so that adjacent
    copies land exactly one strip width apart in the image plane.
    """

    mu: float = 1.32859
    copies: int = 3
    period: float = 1.26e-4
    cylinder_f: float = 0.25

    def __post_init__(self):
        if self.mu <= 0 or self.period <= 0 or self.cylinder_f <= 0:
            raise ValueError("mu, period and cylinder_f must be positive")
        if self.copies < 1 or self.copies % 2 == 0:
            raise ValueError("symmetric-order fan-out needs an odd copy count")


@dataclass(frozen=True)
class OamSpectrum:
    """Power fractions and complex overlaps on a symmetric window of
    azimuthal quantum numbers."""

    ells: np.ndarray
    fractions: np.ndarray
    overlaps: np.ndarray
    method: str

    def __post_init__(self):
        object.__setattr__(self, "ells", np.asarray(self.ells, dtype=int))
        object.__setattr__(self, "fractions", np.asarray(self.fractions, dtype=float))
        object.__setattr__(self, "overlaps", np.asarray(self.overlaps, dtype=complex))

    def fraction(self, ell: int) -> float:
        idx = np.nonzero(self.ells == ell)[0]
        if idx.size == 0:
            raise KeyError(f"l={ell} outside analysis window")
        return float(self.fractions[idx[0]])

    def dominant(self) -> int:
        return int(self.ells[int(np.argmax(self.fractions))])

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "ells": [int(v) for v in self.ells],
            "fractions": [float(v) for v in self.fractions],
        }


def _ring_geometry(ring: RingSpec, grid: GridSpec, ell: int):
    """Radial amplitude exp(-((r - R)/w)^2) of every ring mode on the grid,
    with the x and y axes as a broadcastable row and column.

    Raises UndersampledError unless the azimuthal phase of charge ell at
    the ring radius is sampled by at least 8 pixels per cycle, and
    ValueError when the ring does not fit in the grid window.
    """
    if ell != 0:
        per_cycle = 2.0 * np.pi * ring.radius / (abs(ell) * grid.pitch)
        if per_cycle < 8.0:
            raise UndersampledError(
                f"azimuthal phase of l={ell} sampled {per_cycle:.1f}x per "
                "cycle at the ring radius; need >= 8")
    if ring.radius + 3.0 * ring.width > grid.window / 2.0:
        raise ValueError("ring does not fit in the grid window")
    c = grid.axis()
    x, y = c[None, :], c[:, None]
    amp = np.exp(-((np.hypot(x, y) - ring.radius) / ring.width) ** 2)
    return amp, x, y


def make_oam_mode(ell: int, ring: RingSpec, grid: GridSpec,
                  wavelength: float = 633e-9) -> Field2D:
    """Unit-power ring-Gaussian beam carrying azimuthal charge ell.

    Raises UndersampledError unless the azimuthal phase at the ring radius
    is sampled by at least 8 pixels per cycle.
    """
    amp, x, y = _ring_geometry(ring, grid, ell)
    fieldv = amp * np.exp(1j * ell * np.arctan2(y, x))
    fieldv /= np.sqrt(np.sum(np.abs(fieldv) ** 2) * grid.pitch ** 2)
    return Field2D(samples=fieldv, pitch=grid.pitch, wavelength=wavelength,
                   plane="input")


def field_overlap(a: Field2D, b: Field2D) -> complex:
    """<a|b> with the area element; fields must share a raster."""
    if a.n != b.n or not np.isclose(a.pitch, b.pitch):
        raise ValueError("fields live on different rasters")
    return complex(np.vdot(a.samples, b.samples) * a.pitch ** 2)


def _shifted_fft2(e: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(e)))


def _shifted_ifft2(e: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(e)))


def fourier_lens(e: Field2D, f: float) -> Field2D:
    """Ideal 2f relay: unitary scaled Fourier transform.

    The output raster pitch is lambda f / (N * pitch); total power is
    conserved identically (the discrete map is exactly unitary).
    """
    if f <= 0:
        raise ValueError("focal length must be positive")
    out_pitch = e.wavelength * f / (e.n * e.pitch)
    scale = e.pitch ** 2 / (1j * e.wavelength * f)
    return Field2D(samples=scale * _shifted_fft2(e.samples), pitch=out_pitch,
                   wavelength=e.wavelength, plane=e.plane + ">fourier")


def inverse_fourier_lens(e: Field2D, f: float) -> Field2D:
    """Exact inverse of fourier_lens with the same focal length."""
    if f <= 0:
        raise ValueError("focal length must be positive")
    out_pitch = e.wavelength * f / (e.n * e.pitch)
    scale = 1j * e.wavelength * f / out_pitch ** 2
    return Field2D(samples=scale * _shifted_ifft2(e.samples), pitch=out_pitch,
                   wavelength=e.wavelength, plane=e.plane + ">inv-fourier")


def _xy(e: Field2D):
    """The raster's x axis as a row and y axis as a column, for broadcasting."""
    c = e.axis()
    return c[None, :], c[:, None]


def _log_polar(x: np.ndarray, y: np.ndarray, b: float):
    """log(r / b), -inf on the axis, and the full-turn azimuth atan2(y, x)."""
    with np.errstate(divide="ignore"):
        return np.log(np.hypot(x, y) / b), np.arctan2(y, x)


def _phase1(x, y, logr, theta, cfg: SorterConfig) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        term = y * theta - x * logr + x
    term = np.where(logr > -np.inf, term, 0.0)
    return cfg.a * (2.0 * np.pi / (cfg.wavelength * cfg.f)) * term


def _phasor(phase: np.ndarray) -> np.ndarray:
    """exp(i phase), written as cos and sin into one complex array."""
    out = np.empty(np.shape(phase), dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def sorter_phase1(x: np.ndarray, y: np.ndarray, cfg: SorterConfig) -> np.ndarray:
    """Unwrapper phase profile (the highly astigmatic element).

    phi1 = a (2 pi / lambda f) [ y atan2(y, x) - x log(r / b) + x ]; the
    full-turn atan2 branch keeps the whole annulus mapped onto one strip.
    The removable singularity at the axis is set to zero.
    """
    return _phase1(x, y, *_log_polar(x, y, cfg.b), cfg)


def sorter_phase2(u: np.ndarray, v: np.ndarray, cfg: SorterConfig) -> np.ndarray:
    """Phase corrector in the transform plane.

    phi2 = -a b (2 pi / lambda f) exp(-u / a) cos(v / a); it stops the
    unwrapping once the log-polar map is complete.  With u a row and v a
    column, exp(-u / a) and cos(v / a) are vectors and only their product
    is a full raster.
    """
    return (-cfg.a * cfg.b * (2.0 * np.pi / (cfg.wavelength * cfg.f))
            * np.exp(-u / cfg.a) * np.cos(v / cfg.a))


def apply_sorter_mask1(e: Field2D, cfg: SorterConfig) -> Field2D:
    return e.with_samples(e.samples * _phasor(sorter_phase1(*_xy(e), cfg)))


def apply_sorter_mask2(e: Field2D, cfg: SorterConfig) -> Field2D:
    return e.with_samples(e.samples * _phasor(sorter_phase2(*_xy(e), cfg)))


def sorter_unwrap(e: Field2D, cfg: SorterConfig) -> Field2D:
    """Annulus -> strip: mask1, Fourier lens, mask2.

    A charge-l input exp(i l theta) at radius b becomes a horizontal strip
    around u = 0 whose phase ramps by 2 pi l across the v extent 2 pi a.
    """
    out = apply_sorter_mask2(fourier_lens(apply_sorter_mask1(e, cfg), cfg.f), cfg)
    return replace(out, plane="unwrapped")


def sorter_wrap(e: Field2D, cfg: SorterConfig) -> Field2D:
    """Strip -> annulus: the exact operator inverse of sorter_unwrap."""
    undo2 = e.with_samples(
        e.samples * _phasor(sorter_phase2(*_xy(e), cfg)).conj())
    back = inverse_fourier_lens(undo2, cfg.f)
    out = back.with_samples(
        back.samples * _phasor(sorter_phase1(*_xy(back), cfg)).conj())
    return replace(out, plane="wrapped")


def fanout_grating_phase(x: np.ndarray, cfg: FanoutConfig) -> np.ndarray:
    """Phase delay arctan(2 mu cos(2 pi x / period)); y-independent."""
    return np.arctan(2.0 * cfg.mu * np.cos(2.0 * np.pi * np.asarray(x) / cfg.period))


@lru_cache(maxsize=256)
def _order_coefficients(mu: float, n_orders: int) -> np.ndarray:
    # Fourier series of exp(i arctan(2 mu cos(t))): endpoint-aligned
    # samples keep the even symmetry exact so c_{-k} = c_{+k} to roundoff.
    k = 4096
    t = 2.0 * np.pi * np.arange(k) / k
    g = np.exp(1j * np.arctan(2.0 * mu * np.cos(t)))
    spec = np.fft.fft(g) / k
    orders = np.arange(-n_orders, n_orders + 1)
    out = spec[np.mod(orders, k)]
    out.setflags(write=False)
    return out


def fanout_order_coefficients(cfg: FanoutConfig, n_orders: int | None = None
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Complex amplitudes c_k of the grating's diffraction orders.

    Returns (orders, coefficients) for k in [-n_orders, n_orders]; the
    central cfg.copies entries are the used copies.  Sum of all |c_k|^2 is
    1 exactly (phase-only grating); the p-order efficiency is the partial
    sum over the used orders.
    """
    if n_orders is None:
        n_orders = cfg.copies // 2 + 6
    orders = np.arange(-n_orders, n_orders + 1)
    return orders, _order_coefficients(cfg.mu, n_orders)


def fanout_phase_correction(cfg: FanoutConfig) -> np.ndarray:
    """arg(c_k) for each used order, lowest to highest.

    The correction hologram multiplies each copy's image-plane segment by
    exp(-i arg c_k), equalizing the copies' complex amplitudes.
    """
    orders, coeffs = fanout_order_coefficients(cfg, cfg.copies // 2)
    return np.angle(coeffs)


def _polar_samples(e: Field2D, n_theta: int, n_radii: int):
    """Resample onto (radius, azimuth) rings by spline interpolation."""
    half = e.n // 2 - 2
    radii = (np.arange(n_radii) + 0.5) * (half / n_radii) * e.pitch
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rr, tt = np.meshgrid(radii, theta, indexing="ij")
    col = rr * np.cos(tt) / e.pitch + e.n // 2
    row = rr * np.sin(tt) / e.pitch + e.n // 2
    vals_re = map_coordinates(e.samples.real, [row, col], order=3)
    vals_im = map_coordinates(e.samples.imag, [row, col], order=3)
    return radii, theta, vals_re + 1j * vals_im


def oam_spectrum(e: Field2D, ell_max: int, method: str = "azimuthal-decomposition",
                 ring: RingSpec | None = None) -> OamSpectrum:
    """Decompose a field over azimuthal charges l in [-ell_max, ell_max].

    azimuthal-decomposition: radially integrated power of each azimuthal
    Fourier harmonic (basis-profile free).  projective: overlap with
    reference ring modes, which requires the ring spec of the ideal output.
    Fractions are normalized to the total field power.
    """
    if ell_max < 0:
        raise ValueError("ell_max must be >= 0")
    ells = np.arange(-ell_max, ell_max + 1)
    if method == "azimuthal-decomposition":
        # a power of two >= 8 samples per cycle of the highest charge
        n_theta = 1 << int(np.ceil(np.log2(max(64, 8 * ell_max))))
        n_radii = e.n // 2
        radii, theta, vals = _polar_samples(e, n_theta, n_radii)
        # harmonic amplitudes per radius: a_l(r) = (1/2pi) int E e^{-il t} dt
        harm = np.fft.fft(vals, axis=1) / n_theta
        dr = radii[1] - radii[0]
        # power per harmonic: 2 pi int |a_l(r)|^2 r dr
        power_l = 2.0 * np.pi * np.sum(
            np.abs(harm) ** 2 * radii[:, None], axis=0) * dr
        total = e.power()
        fracs = power_l[np.mod(ells, n_theta)] / total
        # complex overlap against the field's own radial profile is not
        # defined basis-free; report the harmonic amplitude at peak radius
        peak = int(np.argmax(np.sum(np.abs(vals) ** 2, axis=1)))
        overlaps = harm[peak, np.mod(ells, n_theta)]
        return OamSpectrum(ells=ells, fractions=fracs, overlaps=overlaps,
                           method=method)
    if method == "projective":
        if ring is None:
            raise ValueError("projective method needs a reference RingSpec")
        # every reference ring shares the amplitude and, as |e^{il t}| = 1,
        # the norm; so <ref_l|E> = (pitch^2 / norm) sum amp E e^{-il t},
        # summed where amp is not negligible, stepping e^{-il t} from l = 0
        amp, x, y = _ring_geometry(ring, GridSpec(n=e.n, pitch=e.pitch),
                                   ell_max)
        norm = np.sqrt(np.sum(amp ** 2) * e.pitch ** 2)
        keep = amp > _RING_FLOOR
        turn = np.exp(1j * np.arctan2(np.broadcast_to(y, amp.shape)[keep],
                                      np.broadcast_to(x, amp.shape)[keep]))
        weighted = amp[keep] * e.samples[keep]
        sums = np.empty(ells.size, dtype=complex)
        sums[ell_max] = weighted.sum()
        back = turn.conj()
        down, up = weighted, weighted
        for ell in range(1, ell_max + 1):
            down = down * back
            up = up * turn
            sums[ell_max + ell] = down.sum()
            sums[ell_max - ell] = up.sum()
        overlaps = sums * (e.pitch ** 2 / norm)
        fracs = np.abs(overlaps) ** 2 / e.power()
        return OamSpectrum(ells=ells, fractions=fracs, overlaps=overlaps,
                           method=method)
    raise ValueError(f"unknown method {method!r}")
