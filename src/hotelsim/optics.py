"""Scalar paraxial field toolbox: OAM ring modes, Fourier lenses, phase
masks for the log-polar mode sorter, and fan-out grating analysis.

Fields are complex samples on a centred square grid (pixel (N/2, N/2) is
the optical axis).  Lenses are ideal 2f relays: a single unitary scaled
Fourier transform connects consecutive planes; the sorter stages fold the
centring of fourier_lens into their first mask and run plain FFTs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter

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
    "sorter_unwrap",
    "sorter_wrap",
    "fanout_grating_phase",
    "fanout_order_coefficients",
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

    def with_samples(self, samples) -> "Field2D":
        return replace(self, samples=samples)

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

    def __post_init__(self):
        if self.mu <= 0 or self.period <= 0:
            raise ValueError("mu and period must be positive")
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
    if ring.radius + 3.0 * ring.width > grid.n * grid.pitch / 2.0:
        raise ValueError("ring does not fit in the grid window")
    c = grid.axis()
    x, y = c[None, :], c[:, None]
    amp = np.empty((grid.n, grid.n))
    np.exp(-((np.hypot(x, _top(y)) - ring.radius) / ring.width) ** 2,
           out=_top(amp))
    return _mirror_rows(amp), x, y


def make_oam_mode(ell: int, ring: RingSpec, grid: GridSpec,
                  wavelength: float = 633e-9) -> Field2D:
    """Unit-power ring-Gaussian beam carrying azimuthal charge ell.

    Raises UndersampledError unless the azimuthal phase at the ring radius
    is sampled by at least 8 pixels per cycle.
    """
    amp, x, y = _ring_geometry(ring, grid, ell)
    fieldv = np.empty(amp.shape, dtype=complex)
    _phasor(ell * np.arctan2(_top(y), x), out=_top(fieldv))
    # the product is taken on the full raster: where amp is subnormal, the
    # signs of the zeros it gives are not mirror-symmetric.  Phasor first,
    # as numpy evaluates amp * phasor when the phasor is a temporary.
    np.multiply(_mirror_rows(fieldv, conjugate=True), amp, out=fieldv)
    fieldv /= np.sqrt(np.sum(np.abs(fieldv) ** 2) * grid.pitch ** 2)
    return Field2D(samples=fieldv, pitch=grid.pitch, wavelength=wavelength)


def field_overlap(a: Field2D, b: Field2D) -> complex:
    """<a|b> with the area element; fields must share a raster."""
    if a.n != b.n or not np.isclose(a.pitch, b.pitch):
        raise ValueError("fields live on different rasters")
    return complex(np.vdot(a.samples, b.samples) * a.pitch ** 2)


def fourier_lens(e: Field2D, f: float) -> Field2D:
    """Ideal 2f relay: unitary scaled Fourier transform.

    The output raster pitch is lambda f / (N * pitch); total power is
    conserved identically (the discrete map is exactly unitary).
    """
    if f <= 0:
        raise ValueError("focal length must be positive")
    out_pitch = e.wavelength * f / (e.n * e.pitch)
    scale = e.pitch ** 2 / (1j * e.wavelength * f)
    samples = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(e.samples)))
    return Field2D(samples=scale * samples, pitch=out_pitch,
                   wavelength=e.wavelength)


def inverse_fourier_lens(e: Field2D, f: float) -> Field2D:
    """Exact inverse of fourier_lens with the same focal length."""
    if f <= 0:
        raise ValueError("focal length must be positive")
    out_pitch = e.wavelength * f / (e.n * e.pitch)
    scale = 1j * e.wavelength * f / out_pitch ** 2
    samples = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(e.samples)))
    return Field2D(samples=scale * samples, pitch=out_pitch,
                   wavelength=e.wavelength)


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


def _side_by_side(first, second) -> None:
    """Call first() on this thread while second() runs on a thread started
    for it; return once both are done, re-raising second's exception here.

    Only for pairs of calls that release the GIL and write disjoint memory,
    so the result is bit for bit that of calling them one after the other.
    The caller allocates every buffer second() writes: arrays allocated on
    the worker come from another glibc malloc arena and raise peak RSS.
    """
    failure = []

    def run():
        try:
            second()
        except BaseException as exc:
            failure.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    try:
        first()
    finally:
        worker.join()
    if failure:
        raise failure[0]


def _top(a: np.ndarray) -> np.ndarray:
    """Rows 0..n//2 of a raster or of a y column: the rows y <= 0 that
    _mirror_rows completes."""
    return a[:a.shape[0] // 2 + 1]


def _mirror_rows(a: np.ndarray, conjugate: bool = False) -> np.ndarray:
    """Complete a raster that is even in y from its rows 0..mid (mid = n//2):
    row mid + j is row mid - j, conjugated if `conjugate`.  Returns a.

    On the centred grid y[mid + j] = -y[mid - j] exactly, and hypot, log,
    cos and y * atan2(y, x) are even in y, and atan2 and sin odd, bit for
    bit; so a raster built from them is mirrored exactly.  The conjugate's
    imaginary part is written as 0.0 - v: a zero comes out +0.0 whatever
    the sign of its source, as sin(0 * theta) is for y > 0.
    """
    mid = a.shape[0] // 2
    if conjugate:
        a.real[mid + 1:] = a.real[mid - 1:0:-1]
        np.subtract(0.0, a.imag[mid - 1:0:-1], out=a.imag[mid + 1:])
    else:
        a[mid + 1:] = a[mid - 1:0:-1]
    return a


def _phasor(phase: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(i phase), written as cos and sin into one complex array (out,
    if given, is allocated by the caller)."""
    if out is None:
        out = np.empty(np.shape(phase), dtype=complex)
    _side_by_side(lambda: np.cos(phase, out=out.real),
                  lambda: np.sin(phase, out=out.imag))
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


def _checkerboard(w: np.ndarray) -> np.ndarray:
    """w *= (-1)^(i + j), in place."""
    np.negative(w[::2, 1::2], out=w[::2, 1::2])
    np.negative(w[1::2, ::2], out=w[1::2, ::2])
    return w


def _sorter_mask1(n: int, pitch: float, cfg: SorterConfig):
    """C exp(i phi1) on the even n x n raster of the given pitch, and the
    pixels off the design annulus, |log(r / b)| > 0.7; both even in y.

    A centred lens is C fft2(C w), with C = (-1)^(i + j).  Along a chain the
    C of one lens cancels the next one's, and across the multiplier's squeeze
    row mid + p j lands on mid + j with (-1)^((p + 1) j) = 1 for odd p.  The
    two left over, at the input and at the output, fold into this mask.
    """
    c = GridSpec(n=n, pitch=pitch).axis()   # raises ValueError for an odd n
    x, y = c[None, :], _top(c[:, None])
    logr, theta = _log_polar(x, y, cfg.b)
    far = np.empty((n, n), dtype=bool)
    np.greater(np.abs(logr), 0.7, out=_top(far))
    mask1 = np.empty((n, n), dtype=complex)
    _phasor(_phase1(x, y, logr, theta, cfg), out=_top(mask1))
    return _checkerboard(_mirror_rows(mask1)), _mirror_rows(far)


def _sorter_mask2(n: int, pitch: float, cfg: SorterConfig) -> np.ndarray:
    """exp(i phi2) on the n x n transform plane of the given pitch."""
    uv = GridSpec(n=n, pitch=pitch).axis()
    mask2 = np.empty((n, n), dtype=complex)
    _phasor(sorter_phase2(uv[None, :], _top(uv[:, None]), cfg), out=_top(mask2))
    return _mirror_rows(mask2)


def sorter_unwrap(e: Field2D, cfg: SorterConfig) -> Field2D:
    """Annulus -> strip on an even raster: mask1, Fourier lens, mask2.

    A charge-l input exp(i l theta) at radius b becomes a horizontal strip
    around u = 0 whose phase ramps by 2 pi l across the v extent 2 pi a.
    """
    du = e.wavelength * cfg.f / (e.n * e.pitch)
    w = np.fft.fft2(e.samples * _sorter_mask1(e.n, e.pitch, cfg)[0])
    w *= _sorter_mask2(e.n, du, cfg)
    w *= e.pitch ** 2 / (1j * e.wavelength * cfg.f)
    return Field2D(samples=_checkerboard(w), pitch=du, wavelength=e.wavelength)


def sorter_wrap(e: Field2D, cfg: SorterConfig) -> Field2D:
    """Strip -> annulus: the exact operator inverse of sorter_unwrap."""
    dx = e.wavelength * cfg.f / (e.n * e.pitch)
    w = e.samples * np.conjugate(_sorter_mask2(e.n, e.pitch, cfg))
    w = np.fft.ifft2(_checkerboard(w))
    w *= np.conjugate(_sorter_mask1(e.n, dx, cfg)[0])
    w *= 1j * e.wavelength * cfg.f / dx ** 2
    return Field2D(samples=w, pitch=dx, wavelength=e.wavelength)


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


def _polar_samples(e: Field2D, n_theta: int, n_radii: int):
    """Resample onto (radius, azimuth) rings by cubic-spline interpolation.

    This is scipy's map_coordinates(e.samples, [row, col], order=3) for a
    complex field, with the real and imaginary parts prefiltered and
    sampled side by side instead of one after the other.
    """
    half = e.n // 2 - 2
    radii = (np.arange(n_radii) + 0.5) * (half / n_radii) * e.pitch
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rr, tt = np.meshgrid(radii, theta, indexing="ij")
    # one (row, col) array: map_coordinates would copy a list, on the worker too
    coords = np.array([rr * np.sin(tt), rr * np.cos(tt)]) / e.pitch + e.n // 2
    vals = np.empty(rr.shape, dtype=complex)
    filtered = np.empty((2,) + e.samples.shape)

    def sample(part, buf, out):
        spline_filter(part, 3, output=buf, mode="constant")
        map_coordinates(buf, coords, output=out, order=3,
                        mode="constant", prefilter=False)

    _side_by_side(lambda: sample(e.samples.real, filtered[0], vals.real),
                  lambda: sample(e.samples.imag, filtered[1], vals.imag))
    return radii, theta, vals


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
        terms = np.empty((2, weighted.size), dtype=complex)

        def chain(step, out, sign):
            term = weighted
            for ell in range(1, ell_max + 1):
                term = np.multiply(term, step, out=out)
                sums[ell_max + sign * ell] = term.sum()

        # the e^{-ilt} and e^{+ilt} chains step side by side
        _side_by_side(lambda: chain(turn.conj(), terms[0], 1),
                      lambda: chain(turn, terms[1], -1))
        overlaps = sums * (e.pitch ** 2 / norm)
        fracs = np.abs(overlaps) ** 2 / e.power()
        return OamSpectrum(ells=ells, fractions=fracs, overlaps=overlaps,
                           method=method)
    raise ValueError(f"unknown method {method!r}")
