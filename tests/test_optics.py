"""Paraxial toolbox: ring modes, unitary lenses, log-polar sorter masks,
fan-out grating analysis, and azimuthal spectra."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

import hotelsim
from hotelsim import optics
from hotelsim.multiplier import (MultiplierPipelineConfig, multiply_oam,
                                 petal_test)
from hotelsim.optics import (Field2D, FanoutConfig, GridSpec, RingSpec,
                             SorterConfig, UndersampledError, _checkerboard,
                             field_overlap, fanout_grating_phase,
                             fanout_order_coefficients, fourier_lens,
                             inverse_fourier_lens, make_oam_mode, oam_spectrum,
                             sorter_phase1, sorter_phase2, sorter_unwrap,
                             sorter_wrap)

GRID = GridSpec(n=1024, pitch=10e-6)
RING = RingSpec(radius=1.2e-3, width=0.2e-3)
SORTER = SorterConfig()  # a=0.4 mm, b=1.2 mm, f=0.5 m, 633 nm
SMALL_BENCH = MultiplierPipelineConfig.design(p=3,
                                              grid=GridSpec(n=512, pitch=40e-6))


def ring_mode(ell, grid=GRID, ring=RING):
    return make_oam_mode(ell, ring, grid)


class TestRingModes:
    def test_zero_charge_is_real_nonnegative(self):
        e = ring_mode(0)
        assert np.max(np.abs(e.samples.imag)) == 0.0
        assert np.min(e.samples.real) >= 0.0

    def test_unit_power(self):
        for ell in (-2, 0, 5):
            assert ring_mode(ell).power() == pytest.approx(1.0, abs=1e-12)

    def test_distinct_charges_are_orthogonal(self):
        pairs = [(0, 1), (1, 2), (-3, 3), (2, 7)]
        for la, lb in pairs:
            ov = field_overlap(ring_mode(la), ring_mode(lb))
            assert abs(ov) < 1e-10

    def test_self_overlap_is_one(self):
        e = ring_mode(4)
        assert field_overlap(e, e).real == pytest.approx(1.0, abs=1e-12)

    def test_undersampled_charge_rejected(self):
        small = GridSpec(n=64, pitch=10e-6)
        tiny = RingSpec(radius=100e-6, width=20e-6)
        with pytest.raises(UndersampledError):
            make_oam_mode(40, tiny, small)

    def test_ring_must_fit_window(self):
        with pytest.raises(ValueError):
            make_oam_mode(0, RingSpec(radius=6e-3, width=1e-3), GRID)

    def test_input_array_is_not_frozen(self):
        a = np.zeros((4, 4), complex)
        f = Field2D(samples=a, pitch=1e-5, wavelength=633e-9)
        assert a.flags.writeable
        assert not f.samples.flags.writeable
        assert np.shares_memory(f.samples, a)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(n=257)
        with pytest.raises(ValueError):
            GridSpec(n=1024, pitch=0.0)


class TestFourierLens:
    def make_random_field(self, n=128):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return Field2D(samples=s, pitch=10e-6, wavelength=633e-9)

    def test_power_is_conserved_exactly(self):
        e = self.make_random_field()
        out = fourier_lens(e, 0.3)
        assert abs(out.power() / e.power() - 1.0) < 1e-12

    def test_inverse_lens_round_trips(self):
        e = self.make_random_field()
        back = inverse_fourier_lens(fourier_lens(e, 0.3), 0.3)
        assert back.pitch == pytest.approx(e.pitch)
        assert np.max(np.abs(back.samples - e.samples)) < 1e-10

    def test_double_lens_is_negated_point_reflection(self):
        e = self.make_random_field(64)
        out = fourier_lens(fourier_lens(e, 0.3), 0.3)
        flip = np.roll(e.samples[::-1, ::-1], 1, axis=(0, 1))
        assert np.max(np.abs(out.samples + flip)) < 1e-12

    def test_output_pitch_scaling(self):
        e = self.make_random_field()
        out = fourier_lens(e, 0.5)
        assert out.pitch == pytest.approx(633e-9 * 0.5 / (e.n * e.pitch))

    def test_gaussian_maps_to_reciprocal_waist(self):
        w = 0.5e-3
        c = GRID.axis()
        X, Y = np.meshgrid(c, c, indexing="xy")
        g = Field2D(samples=np.exp(-(X ** 2 + Y ** 2) / w ** 2),
                    pitch=GRID.pitch, wavelength=633e-9)
        out = fourier_lens(g, 0.5)
        I = out.intensity()
        x = out.axis()
        xx = np.meshgrid(x, x, indexing="xy")[0]
        # <x^2> over the intensity equals w'^2 / 4 for a Gaussian waist w'
        w_out = 2.0 * np.sqrt(np.sum(xx ** 2 * I) / np.sum(I))
        assert w_out == pytest.approx(633e-9 * 0.5 / (np.pi * w), rel=1e-6)


def centred_unwrap(e, cfg):
    """sorter_unwrap built as full-raster masks around the centred lens."""
    x = e.axis()
    lensed = fourier_lens(e.with_samples(
        e.samples * np.exp(1j * sorter_phase1(x[None, :], x[:, None], cfg))),
        cfg.f)
    u = lensed.axis()
    return lensed.with_samples(
        lensed.samples * np.exp(1j * sorter_phase2(u[None, :], u[:, None], cfg)))


def centred_wrap(e, cfg):
    """sorter_wrap built as full-raster masks around the centred lens."""
    u = e.axis()
    back = inverse_fourier_lens(e.with_samples(
        e.samples * np.exp(-1j * sorter_phase2(u[None, :], u[:, None], cfg))),
        cfg.f)
    x = back.axis()
    return back.with_samples(
        back.samples * np.exp(-1j * sorter_phase1(x[None, :], x[:, None], cfg)))


class TestSorter:
    def test_masks_are_phase_only(self):
        x, y = optics._xy(ring_mode(2))
        for phase in (sorter_phase1(x, y, SORTER), sorter_phase2(x, y, SORTER)):
            assert np.allclose(np.abs(optics._phasor(phase)), 1.0)

    def test_unwrapper_phase_at_reference_radius(self):
        # on the positive x axis at r = b the profile reduces to a * k/f * b
        got = sorter_phase1(np.array([SORTER.b]), np.array([0.0]), SORTER)
        want = SORTER.a * (2.0 * np.pi / (SORTER.wavelength * SORTER.f)) * SORTER.b
        assert got[0] == pytest.approx(want, rel=1e-12)

    def unwrap_center_column(self, ell):
        strip = sorter_unwrap(ring_mode(ell), SORTER)
        col = strip.samples[:, strip.n // 2]
        v = strip.axis()
        keep = np.abs(v) < 0.9 * np.pi * SORTER.a
        return v[keep], col[keep]

    def test_strip_phase_ramp_measures_charge(self):
        for ell in (-2, 1, 3):
            v, col = self.unwrap_center_column(ell)
            phase = np.unwrap(np.angle(col))
            slope = np.polyfit(v, phase, 1, w=np.abs(col))[0]
            # the full 2 pi azimuth spans v in (-pi a, pi a), so a charge
            # ell unwraps to a transverse ramp of slope ell / a; diffraction
            # spreads the fixed 2 pi ell total ramp over a slightly wider
            # strip, biasing the interior slope a few percent low
            assert slope * SORTER.a == pytest.approx(ell, rel=0.08)

    def test_zero_charge_strip_is_flat(self):
        v, col = self.unwrap_center_column(0)
        phase = np.unwrap(np.angle(col))
        slope = np.polyfit(v, phase, 1, w=np.abs(col))[0]
        assert abs(slope * SORTER.a) < 0.05

    def test_strip_carries_most_of_the_power(self):
        strip = sorter_unwrap(ring_mode(1), SORTER)
        v = strip.axis()
        band = np.abs(v) < 1.2 * np.pi * SORTER.a
        frac = np.sum(strip.intensity()[band, :]) / np.sum(strip.intensity())
        assert frac > 0.95

    def test_wrap_inverts_unwrap_exactly(self):
        e = ring_mode(2)
        back = sorter_wrap(sorter_unwrap(e, SORTER), SORTER)
        assert np.max(np.abs(back.samples - e.samples)) < 1e-8

    def test_focused_strip_position_is_affine_in_charge(self):
        # after one more lens each charge focuses at a distinct spot whose
        # transverse position steps linearly with ell
        centers = []
        for ell in (-2, -1, 0, 1, 2):
            strip = sorter_unwrap(ring_mode(ell), SORTER)
            spot = fourier_lens(strip, SORTER.f)
            I = spot.intensity()
            y = spot.axis()
            w = np.sum(I, axis=1)
            centers.append(np.sum(y * w) / np.sum(w))
        ells = np.array([-2, -1, 0, 1, 2], dtype=float)
        centers = np.array(centers)
        fit = np.polyfit(ells, centers, 1)
        resid = centers - np.polyval(fit, ells)
        ss = 1.0 - np.sum(resid ** 2) / np.sum((centers - centers.mean()) ** 2)
        assert ss > 0.999
        # spot spacing is lambda f / (2 pi a)
        spacing = SORTER.wavelength * SORTER.f / (2.0 * np.pi * SORTER.a)
        assert fit[0] == pytest.approx(spacing, rel=0.05)

    @pytest.mark.parametrize("stage, reference", [
        (sorter_unwrap, centred_unwrap), (sorter_wrap, centred_wrap)],
        ids=["unwrap", "wrap"])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_stage_matches_centred_construction(self, n, stage, reference):
        e = random_field(n, seed=n)
        got, want = stage(e, SORTER), reference(e, SORTER)
        assert got.pitch == pytest.approx(want.pitch, rel=1e-15)
        scale = np.max(np.abs(want.samples))
        assert np.max(np.abs(got.samples - want.samples)) <= 1e-12 * scale

    @pytest.mark.parametrize("stage, cfg", [
        (sorter_unwrap, SORTER), (sorter_wrap, SORTER),
        (multiply_oam, SMALL_BENCH)], ids=["unwrap", "wrap", "multiply"])
    def test_odd_raster_rejected(self, stage, cfg):
        with pytest.raises(ValueError, match="even"):
            stage(random_field(255, seed=1), cfg)


class TestFanout:
    CFG = FanoutConfig()

    def test_phase_profile_extrema(self):
        # zero where the cosine vanishes, arctan(2 mu) at the crests
        assert fanout_grating_phase(self.CFG.period / 4.0, self.CFG) \
            == pytest.approx(0.0, abs=1e-12)
        peak = fanout_grating_phase(0.0, self.CFG)
        assert peak == pytest.approx(np.arctan(2.0 * self.CFG.mu), abs=1e-12)

    def test_three_orders_are_balanced(self):
        orders, c = fanout_order_coefficients(self.CFG)
        mags = np.abs(c[np.isin(orders, (-1, 0, 1))])
        assert np.max(mags) / np.min(mags) - 1.0 < 1e-3

    def test_total_power_parseval(self):
        orders, c = fanout_order_coefficients(self.CFG, n_orders=2000)
        assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-6)

    def test_balanced_triplet_efficiency_value(self):
        orders, c = fanout_order_coefficients(self.CFG)
        eff = float(np.sum(np.abs(c[np.isin(orders, (-1, 0, 1))]) ** 2))
        assert eff == pytest.approx(0.9255624517389279, abs=1e-9)

    def test_symmetric_orders_share_their_phase(self):
        _, coeffs = fanout_order_coefficients(self.CFG, self.CFG.copies // 2)
        corr = np.angle(coeffs)
        assert corr.shape == (3,)
        assert corr[0] == pytest.approx(corr[2], abs=1e-10)

    def test_optimal_depth_minimizes_imbalance(self):
        from dataclasses import replace

        def imbalance(mu):
            _, c = fanout_order_coefficients(replace(self.CFG, mu=mu))
            m = np.abs(c[[5, 6, 7]])
            return np.max(m) - np.min(m)

        mus = np.linspace(1.2, 1.45, 251)
        best = mus[int(np.argmin([imbalance(m) for m in mus]))]
        assert best == pytest.approx(1.32859, abs=1e-3)

    def test_even_copy_count_rejected(self):
        with pytest.raises(ValueError):
            FanoutConfig(copies=2)

    @pytest.mark.parametrize("field", ["mu", "period"])
    def test_nonpositive_grating_rejected(self, field):
        with pytest.raises(ValueError, match="mu and period must be positive"):
            FanoutConfig(**{field: 0.0})


class TestOamSpectrum:
    def test_eigenmode_azimuthal_purity(self):
        spec = oam_spectrum(ring_mode(3), ell_max=6)
        assert spec.dominant() == 3
        assert spec.fraction(3) > 0.999

    def test_eigenmode_projective_purity(self):
        spec = oam_spectrum(ring_mode(-2), ell_max=4, method="projective",
                            ring=RING)
        assert spec.dominant() == -2
        assert spec.fraction(-2) > 0.999

    def test_balanced_superposition(self):
        e = ring_mode(3)
        s = e.with_samples((e.samples + ring_mode(-3).samples) / np.sqrt(2.0))
        spec = oam_spectrum(s, ell_max=5)
        assert spec.fraction(3) == pytest.approx(0.5, rel=0.01)
        assert spec.fraction(-3) == pytest.approx(0.5, rel=0.01)
        assert spec.fraction(0) < 1e-6

    def test_methods_agree_on_dominant_charge(self):
        e = ring_mode(2)
        az = oam_spectrum(e, ell_max=4)
        pr = oam_spectrum(e, ell_max=4, method="projective", ring=RING)
        assert az.dominant() == pr.dominant() == 2
        assert az.fraction(2) == pytest.approx(pr.fraction(2), abs=0.01)

    def test_window_and_serialization(self):
        spec = oam_spectrum(ring_mode(1), ell_max=2)
        with pytest.raises(KeyError):
            spec.fraction(5)
        d = spec.to_dict()
        assert d["ells"] == [-2, -1, 0, 1, 2]
        assert d["method"] == "azimuthal-decomposition"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            oam_spectrum(ring_mode(1), ell_max=2, method="holographic")


def projective(e, ell_max, ring):
    return oam_spectrum(e, ell_max, method="projective", ring=ring)


def projective_reference(e, ell_max, ring):
    """Projective spectrum with one synthesized reference mode per charge."""
    grid = GridSpec(n=e.n, pitch=e.pitch)
    overlaps = np.array([
        field_overlap(make_oam_mode(ell, ring, grid, e.wavelength), e)
        for ell in range(-ell_max, ell_max + 1)])
    return overlaps, np.abs(overlaps) ** 2 / e.power()


class TestProjectiveSpectrum:
    SMALL = GridSpec(n=128, pitch=10e-6)
    SMALL_RING = RingSpec(radius=0.3e-3, width=0.06e-3)

    def unit_power(self, e):
        return e.with_samples(e.samples / np.sqrt(e.power()))

    def assert_matches_reference(self, e, ell_max, ring):
        spec = projective(e, ell_max, ring)
        overlaps, fractions = projective_reference(e, ell_max, ring)
        assert list(spec.ells) == list(range(-ell_max, ell_max + 1))
        assert np.max(np.abs(spec.overlaps - overlaps)) <= 1e-13
        assert np.max(np.abs(spec.fractions - fractions)) <= 1e-13

    def test_random_field_matches_per_charge_overlaps(self):
        rng = np.random.default_rng(11)
        n = self.SMALL.n
        e = Field2D(samples=rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                    pitch=self.SMALL.pitch, wavelength=633e-9)
        self.assert_matches_reference(self.unit_power(e), 10, self.SMALL_RING)

    def test_multiplier_output_matches_per_charge_overlaps(self):
        cfg = SMALL_BENCH
        out, _ = multiply_oam(make_oam_mode(-2, cfg.ring, cfg.grid,
                                            cfg.sorter.wavelength), cfg)
        self.assert_matches_reference(self.unit_power(out), 9, cfg.ring)

    def test_zero_window(self):
        e = self.unit_power(make_oam_mode(1, self.SMALL_RING, self.SMALL))
        self.assert_matches_reference(e, 0, self.SMALL_RING)

    def test_undersampled_window_rejected_where_reference_is(self):
        # 2 pi R / pitch = 188.5 pixels round the ring: l = 23 has 8.2 per
        # cycle, l = 24 only 7.9
        e = make_oam_mode(0, self.SMALL_RING, self.SMALL)
        self.assert_matches_reference(e, 23, self.SMALL_RING)
        for spectrum in (projective_reference, projective):
            with pytest.raises(UndersampledError):
                spectrum(e, 24, self.SMALL_RING)

    def test_ring_outside_window_rejected(self):
        e = make_oam_mode(0, self.SMALL_RING, self.SMALL)
        wide = RingSpec(radius=0.5e-3, width=0.1e-3)
        for spectrum in (projective_reference, projective):
            with pytest.raises(ValueError, match="does not fit"):
                spectrum(e, 1, wide)


def random_field(n, seed):
    rng = np.random.default_rng(seed)
    return Field2D(samples=rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                   pitch=10e-6, wavelength=633e-9)


def serial_polar_samples(e, n_theta, n_radii):
    """_polar_samples through scipy's complex map_coordinates, which
    prefilters and samples the real part and then the imaginary part."""
    half = e.n // 2 - 2
    radii = (np.arange(n_radii) + 0.5) * (half / n_radii) * e.pitch
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rr, tt = np.meshgrid(radii, theta, indexing="ij")
    col = rr * np.cos(tt) / e.pitch + e.n // 2
    row = rr * np.sin(tt) / e.pitch + e.n // 2
    return radii, theta, map_coordinates(e.samples, [row, col], order=3)


def serial_projective_overlaps(e, ell_max, ring):
    """The projective overlaps with both charge chains stepped in one loop."""
    amp, x, y = optics._ring_geometry(ring, GridSpec(n=e.n, pitch=e.pitch),
                                      ell_max)
    norm = np.sqrt(np.sum(amp ** 2) * e.pitch ** 2)
    keep = amp > optics._RING_FLOOR
    turn = np.exp(1j * np.arctan2(np.broadcast_to(y, amp.shape)[keep],
                                  np.broadcast_to(x, amp.shape)[keep]))
    weighted = amp[keep] * e.samples[keep]
    sums = np.empty(2 * ell_max + 1, dtype=complex)
    sums[ell_max] = weighted.sum()
    back = turn.conj()
    down, up = weighted, weighted
    for ell in range(1, ell_max + 1):
        down = down * back
        up = up * turn
        sums[ell_max + ell] = down.sum()
        sums[ell_max - ell] = up.sum()
    return sums * (e.pitch ** 2 / norm)


class TestSideBySide:
    """The kernels split over two threads give the serial results bit for
    bit."""

    @pytest.mark.parametrize("case", ["random-256", "multiplied-512"])
    def test_polar_samples_match_serial_map_coordinates(self, case):
        if case == "random-256":
            e = random_field(256, seed=5)
        else:
            e, _ = multiply_oam(make_oam_mode(2, SMALL_BENCH.ring,
                                              SMALL_BENCH.grid,
                                              SMALL_BENCH.sorter.wavelength),
                                SMALL_BENCH)
        for n_theta in (64, 256):
            got = optics._polar_samples(e, n_theta, e.n // 2)
            ref = serial_polar_samples(e, n_theta, e.n // 2)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("ell_max", [0, 1, 15])
    def test_projective_spectrum_matches_serial_chain(self, ell_max):
        ring = RingSpec(radius=0.6e-3, width=0.12e-3)
        e = random_field(256, seed=ell_max)
        spec = oam_spectrum(e, ell_max, method="projective", ring=ring)
        overlaps = serial_projective_overlaps(e, ell_max, ring)
        assert np.array_equal(spec.overlaps, overlaps)
        assert np.array_equal(spec.fractions, np.abs(overlaps) ** 2 / e.power())

    @pytest.mark.parametrize("ell", [-3, 0, 2])
    def test_ring_mode_matches_complex_exponential(self, ell):
        grid, ring = GridSpec(n=256, pitch=10e-6), RingSpec(0.6e-3, 0.12e-3)
        amp, x, y = optics._ring_geometry(ring, grid, ell)
        ref = amp * np.exp(1j * ell * np.arctan2(y, x))
        ref /= np.sqrt(np.sum(np.abs(ref) ** 2) * grid.pitch ** 2)
        assert make_oam_mode(ell, ring, grid).samples.tobytes() == ref.tobytes()

    def test_phasor_matches_serial_cos_sin(self):
        phase = np.random.default_rng(2).uniform(-40.0, 40.0, size=(300, 200))
        got = optics._phasor(phase)
        assert np.array_equal(got.real, np.cos(phase))
        assert np.array_equal(got.imag, np.sin(phase))


# (grid, ring) pairs: at 2048 the small ring's amplitude underflows to
# subnormals and zeros over most of the raster
MIRROR_CASES = {
    "256": (GridSpec(n=256, pitch=10e-6), RingSpec(0.6e-3, 0.12e-3)),
    "2048": (GridSpec(n=2048, pitch=10e-6), RingSpec(3e-3, 0.4e-3)),
    "2048-small-ring": (GridSpec(n=2048, pitch=10e-6), RingSpec(0.6e-3, 0.12e-3)),
}


class TestMirroredRows:
    """Rasters even in y are built on rows 0..n/2 and completed by
    _mirror_rows; they equal their direct full-raster builds byte for byte."""

    @pytest.mark.parametrize("case", sorted(MIRROR_CASES))
    def test_ring_geometry_matches_direct_build(self, case):
        grid, ring = MIRROR_CASES[case]
        amp, x, y = optics._ring_geometry(ring, grid, 0)
        ref = np.exp(-((np.hypot(x, y) - ring.radius) / ring.width) ** 2)
        assert amp.tobytes() == ref.tobytes()

    # TestSideBySide compares the ring modes at n = 256
    @pytest.mark.parametrize("ell", [-3, 0, 2])
    @pytest.mark.parametrize("case", ["2048", "2048-small-ring"])
    def test_ring_mode_matches_direct_build(self, case, ell):
        grid, ring = MIRROR_CASES[case]
        amp, x, y = optics._ring_geometry(ring, grid, ell)
        ref = amp * np.exp(1j * ell * np.arctan2(y, x))
        ref /= np.sqrt(np.sum(np.abs(ref) ** 2) * grid.pitch ** 2)
        assert make_oam_mode(ell, ring, grid).samples.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [256, 2048])
    def test_direct_builds_are_mirror_symmetric(self, n):
        # mirroring a direct full build changes no byte of it
        grid = GridSpec(n=n, pitch=10e-6)
        s = SorterConfig(b=0.6e-3)
        c = grid.axis()
        x, y = c[None, :], c[:, None]
        ring = RingSpec(0.6e-3, 0.12e-3)

        def phase1_mask():
            return _checkerboard(optics._phasor(sorter_phase1(x, y, s)))

        def phase2_mask():
            uv = (np.arange(n) - n // 2) * 2e-5
            return optics._phasor(sorter_phase2(uv[None, :], uv[:, None], s))

        even = {
            "ring amplitude": lambda: np.exp(
                -((np.hypot(x, y) - ring.radius) / ring.width) ** 2),
            "off annulus": lambda: np.abs(optics._log_polar(x, y, s.b)[0]) > 0.7,
            "mask1": phase1_mask,
            "mask2": phase2_mask,
            "petals": lambda: np.cos(3 * np.arctan2(y, x)),
        }
        for name, build in even.items():
            a = build()
            assert optics._mirror_rows(a.copy()).tobytes() == a.tobytes(), name
        for ell in (-3, 0, 2):
            a = optics._phasor(ell * np.arctan2(y, x))
            assert (optics._mirror_rows(a.copy(), conjugate=True).tobytes()
                    == a.tobytes()), ell

    def test_mirror_fills_rows_below_from_rows_above(self):
        a = np.arange(6 * 3, dtype=float).reshape(6, 3)
        got = optics._mirror_rows(a.copy())
        assert np.array_equal(got[:4], a[:4])
        assert np.array_equal(got[4:], a[[2, 1]])
        z = a + 1j * a
        z[1, 0] = -0.0j
        z[2, 0] = 0.0j
        got = optics._mirror_rows(z.copy(), conjugate=True)
        assert np.array_equal(got[4:], np.conjugate(z[[2, 1]]))
        # a conjugated zero is +0.0, whatever the sign of the source's zero
        assert not np.signbit(got[4:, 0].imag).any()


class TestThreadLifecycle:
    def test_bench_and_spectra_leave_no_thread(self):
        before = threading.active_count()
        e = make_oam_mode(1, SMALL_BENCH.ring, SMALL_BENCH.grid,
                          SMALL_BENCH.sorter.wavelength)
        out, _ = multiply_oam(e, SMALL_BENCH)
        assert threading.active_count() == before
        oam_spectrum(out, 6)
        assert threading.active_count() == before
        oam_spectrum(out, 6, method="projective", ring=SMALL_BENCH.ring)
        assert threading.active_count() == before
        petal_test(1, SMALL_BENCH)
        assert threading.active_count() == before

    def test_import_starts_no_thread(self):
        # and loads no tier: each is imported as hotelsim.<tier>
        src = Path(hotelsim.__file__).resolve().parents[1]
        code = ("import sys, threading; sys.path.insert(0, sys.argv[1]); "
                "import hotelsim; print(threading.active_count()); "
                "print(sorted(m for m in sys.modules if m.startswith('hotelsim.')))")
        done = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "[]"]

    def test_output_without_sched_getaffinity(self, monkeypatch):
        # platforms without os.sched_getaffinity count CPUs with os.cpu_count
        e = make_oam_mode(1, SMALL_BENCH.ring, SMALL_BENCH.grid,
                          SMALL_BENCH.sorter.wavelength)
        want = multiply_oam(e, SMALL_BENCH)[0].samples.tobytes()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert multiply_oam(e, SMALL_BENCH)[0].samples.tobytes() == want

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_exception_reaches_the_caller(self, monkeypatch, failing):
        real = optics.spline_filter

        def spline_filter(*args, **kwargs):
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker == (failing == "worker"):
                raise FloatingPointError(f"prefilter failed on the {failing}")
            return real(*args, **kwargs)

        monkeypatch.setattr(optics, "spline_filter", spline_filter)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=failing):
            optics._polar_samples(random_field(64, seed=1), 64, 32)
        assert threading.active_count() == before
