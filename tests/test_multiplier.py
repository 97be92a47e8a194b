"""End-to-end azimuthal-charge multiplier bench."""

import numpy as np
import pytest

from hotelsim.multiplier import (AmbiguousHarmonicError, CrosstalkMatrix,
                                 MultiplierPipelineConfig, _count_petals,
                                 _petal_input, crosstalk_matrix, multiply_oam,
                                 petal_test)
from hotelsim.optics import (GridSpec, RingSpec, fanout_grating_phase,
                             fanout_order_coefficients, field_overlap,
                             fourier_lens, inverse_fourier_lens, make_oam_mode,
                             oam_spectrum, sorter_phase2)

CFG = MultiplierPipelineConfig.design(p=3)


def bench_mode(ell, cfg=CFG):
    return make_oam_mode(ell, cfg.ring, cfg.grid, cfg.sorter.wavelength)


def reference_multiply_oam(e, cfg, correct_phases=True, diagnostics=None):
    """The bench stage by stage, as multiply_oam ran before it became one
    pass: full meshgrids, both sorter masks built again for the wrap, a
    fresh raster per stage and shifted FFTs.  The one-pass multiply_oam
    must match it."""
    if diagnostics is None:
        diagnostics = {}
    s = cfg.sorter

    def grid(f):
        c = f.axis()
        return np.meshgrid(c, c, indexing="xy")

    def mask1(f, sign):
        X, Y = grid(f)
        r = np.hypot(X, Y)
        theta = np.arctan2(Y, X)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = Y * theta - X * np.log(r / s.b) + X
        term = np.where(r > 0, term, 0.0)
        return np.exp(sign * 1j * s.a * (2.0 * np.pi / (s.wavelength * s.f))
                      * term)

    def mask2(f, sign):
        return np.exp(sign * 1j * sorter_phase2(*grid(f), s))

    X, Y = grid(e)
    r = np.hypot(X, Y)
    with np.errstate(divide="ignore"):
        logr = np.log(np.where(r > 0, r / s.b, np.inf))
    outside = np.abs(logr) > 0.7
    total = np.sum(np.abs(e.samples) ** 2)
    diagnostics["outside_annulus_fraction"] = (
        0.0 if total == 0 else
        float(np.sum(np.abs(e.samples[outside]) ** 2) / total))
    if diagnostics["outside_annulus_fraction"] > 0.05:
        diagnostics["warning"] = "off the design annulus"

    lensed = fourier_lens(e.with_samples(e.samples * mask1(e, 1)), s.f)
    strip = lensed.with_samples(lensed.samples * mask2(lensed, 1))
    far = fourier_lens(strip, cfg.sorter.f)
    yf = far.axis()[:, None] * np.ones(far.n)
    grating = np.exp(1j * fanout_grating_phase(yf, cfg.fanout))
    image = inverse_fourier_lens(far.with_samples(far.samples * grating),
                                 cfg.sorter.f)
    diagnostics["strip_power"] = strip.power()

    n = image.n
    mid = n // 2
    k = cfg.strip_pixels
    half = cfg.p // 2
    rows = np.arange(n) - mid
    samples = np.array(image.samples)
    if correct_phases:
        _, coeffs = fanout_order_coefficients(cfg.fanout, half)
        for j, order in enumerate(range(-half, half + 1)):
            seg = np.abs(rows + order * k) <= k // 2
            samples[seg, :] *= np.exp(-1j * np.angle(coeffs[j]))

    squeezed = np.zeros_like(samples)
    j_out = np.arange(-(mid // cfg.p), (n - 1 - mid) // cfg.p + 1)
    squeezed[mid + j_out, :] = np.sqrt(cfg.p) * samples[mid + cfg.p * j_out, :]
    diagnostics["copies_power"] = float(
        np.sum(np.abs(squeezed[np.abs(rows) <= k // 2, :]) ** 2)
        * image.pitch ** 2)

    undo2 = image.with_samples(squeezed * mask2(image, -1))
    back = inverse_fourier_lens(undo2, s.f)
    out = back.with_samples(back.samples * mask1(back, -1))
    diagnostics["output_power"] = out.power()
    return out


class TestDesign:
    def test_strip_snaps_to_whole_copy_pixels(self):
        for p in (3, 5):
            cfg = MultiplierPipelineConfig.design(p=p)
            assert cfg.strip_pixels > 0
            assert cfg.strip_pixels % p == 0
            # the snapped scale reproduces the pixel count exactly
            k = 2.0 * np.pi * cfg.sorter.a / cfg.uv_pitch
            assert k == pytest.approx(cfg.strip_pixels, abs=1e-9)

    def test_grating_period_places_copies_one_strip_apart(self):
        s = CFG.sorter
        spacing = s.wavelength * s.f / CFG.fanout.period
        assert spacing == pytest.approx(2.0 * np.pi * s.a, rel=1e-12)

    def test_copy_count_must_match_p(self):
        from dataclasses import replace
        with pytest.raises(ValueError):
            replace(CFG, p=5)

    def test_strip_pixels_must_divide_by_p(self):
        from dataclasses import replace
        with pytest.raises(ValueError):
            replace(CFG, strip_pixels=CFG.strip_pixels + 1)


class TestMultiplication:
    def test_charge_one_triples(self):
        out = multiply_oam(bench_mode(1), CFG)
        spec = oam_spectrum(out, 6, method="projective", ring=CFG.ring)
        assert spec.dominant() == 3
        assert spec.fraction(3) > 0.5

    def test_zero_charge_is_a_fixed_point(self):
        out = multiply_oam(bench_mode(0), CFG)
        spec = oam_spectrum(out, 4, method="projective", ring=CFG.ring)
        assert spec.dominant() == 0

    def test_pipeline_is_linear(self):
        e1, e2 = bench_mode(1), bench_mode(2)
        al, be = 0.6, 0.8j
        mixed = e1.with_samples(al * e1.samples + be * e2.samples)
        out_mix = multiply_oam(mixed, CFG)
        out_sep = al * multiply_oam(e1, CFG).samples \
            + be * multiply_oam(e2, CFG).samples
        scale = np.max(np.abs(out_sep))
        assert np.max(np.abs(out_mix.samples - out_sep)) / scale < 1e-10

    def test_phase_correction_matters(self):
        spec_on = oam_spectrum(multiply_oam(bench_mode(1), CFG), 6,
                               method="projective", ring=CFG.ring)
        spec_off = oam_spectrum(
            multiply_oam(bench_mode(1), CFG, correct_phases=False), 6,
            method="projective", ring=CFG.ring)
        assert spec_on.fraction(3) > spec_off.fraction(3)

    def test_opposite_outputs_stay_orthogonal(self):
        plus = multiply_oam(bench_mode(1), CFG)
        minus = multiply_oam(bench_mode(-1), CFG)
        assert abs(field_overlap(plus, minus)) ** 2 < 1e-2

    def test_diagnostics_bookkeeping(self):
        diag = {}
        multiply_oam(bench_mode(1), CFG, diagnostics=diag)
        for key in ("outside_annulus_fraction", "strip_power", "copies_power",
                    "output_power"):
            assert key in diag
        assert diag["outside_annulus_fraction"] < 0.05
        assert "warning" not in diag
        assert diag["strip_power"] == pytest.approx(1.0, abs=1e-6)

    def test_off_annulus_input_warns(self):
        bad_ring = RingSpec(radius=CFG.sorter.b / 4.0, width=CFG.ring.width)
        e = make_oam_mode(1, bad_ring, CFG.grid, CFG.sorter.wavelength)
        diag = {}
        multiply_oam(e, CFG, diagnostics=diag)
        assert diag["outside_annulus_fraction"] > 0.05
        assert "warning" in diag


class TestOnePassBench:
    """multiply_oam against the stage-by-stage reference_multiply_oam."""

    @pytest.mark.parametrize("correct_phases", [True, False])
    @pytest.mark.parametrize("ell", [1, 0, -3])
    def test_matches_stage_by_stage_reference(self, ell, correct_phases):
        e = bench_mode(ell)
        before = e.samples.copy()
        diag, ref_diag = {}, {}
        out = multiply_oam(e, CFG, correct_phases, diagnostics=diag)
        ref = reference_multiply_oam(e, CFG, correct_phases, ref_diag)
        assert np.array_equal(e.samples, before)
        assert out.pitch == pytest.approx(ref.pitch, rel=1e-15)
        scale = np.max(np.abs(ref.samples))
        assert np.max(np.abs(out.samples - ref.samples)) <= 1e-12 * scale
        assert diag.keys() == ref_diag.keys()
        for key in diag:
            assert abs(diag[key] - ref_diag[key]) <= 1e-12

    def test_off_annulus_input_warns_on_both_paths(self):
        bad_ring = RingSpec(radius=CFG.sorter.b / 4.0, width=CFG.ring.width)
        e = make_oam_mode(1, bad_ring, CFG.grid, CFG.sorter.wavelength)
        diag, ref_diag = {}, {}
        out = multiply_oam(e, CFG, diagnostics=diag)
        ref = reference_multiply_oam(e, CFG, diagnostics=ref_diag)
        assert "warning" in diag and "warning" in ref_diag
        assert abs(diag["outside_annulus_fraction"]
                   - ref_diag["outside_annulus_fraction"]) <= 1e-12
        scale = np.max(np.abs(ref.samples))
        assert np.max(np.abs(out.samples - ref.samples)) <= 1e-12 * scale

    def test_odd_raster_rejected(self):
        e = bench_mode(1)
        odd = e.with_samples(e.samples[:-1, :-1])
        with pytest.raises(ValueError, match="even"):
            multiply_oam(odd, CFG)

    @pytest.mark.parametrize("ell", [1, 3])
    def test_petal_input_is_the_two_mode_sum(self, ell):
        two = (bench_mode(ell).samples + bench_mode(-ell).samples) / np.sqrt(2.0)
        got = _petal_input(ell, CFG)
        assert got.pitch == CFG.grid.pitch
        assert np.max(np.abs(got.samples - two)) <= 1e-14 * np.max(np.abs(two))


class TestCrosstalk:
    def test_rows_map_to_tripled_charges(self):
        m = crosstalk_matrix(CFG, ell_in_max=1)
        assert list(m.dominant_outputs()) == [-3, 0, 3]

    def test_charge_reversal_symmetry(self):
        m = crosstalk_matrix(CFG, ell_in_max=1)
        fwd = m.row(1)
        rev = m.row(-1)[::-1]
        scale = np.max(fwd)
        assert np.max(np.abs(fwd - rev)) / scale < 0.02

    def test_entry_shape_validation(self):
        with pytest.raises(ValueError):
            CrosstalkMatrix(ell_in=[0, 1], ell_out=[0, 1, 2],
                            entries=np.zeros((3, 2)))

    def test_serialization(self):
        m = crosstalk_matrix(CFG, ell_in_max=1, ell_out_max=4)
        d = m.to_dict()
        assert d["ell_in"] == [-1, 0, 1]
        assert len(d["entries"]) == 3
        assert len(d["entries"][0]) == 9


class TestPetals:
    def test_charge_one_petal_multiplication(self):
        rep = petal_test(1, CFG)
        assert rep.petals_in == 2
        assert rep.petals_out == 6
        assert rep.visibility > 0.9

    def test_two_equal_harmonics_are_ambiguous(self):
        e = bench_mode(0)
        c = e.axis()
        X, Y = np.meshgrid(c, c, indexing="xy")
        theta = np.arctan2(Y, X)
        rigged = e.with_samples(
            e.samples * np.sqrt(1.0 + 0.2 * np.cos(2 * theta)
                                + 0.2 * np.cos(3 * theta)))
        with pytest.raises(AmbiguousHarmonicError):
            _count_petals(rigged, 4)

    def test_rejects_nonpositive_charge(self):
        with pytest.raises(ValueError):
            petal_test(0, CFG)

    def test_report_serialization(self):
        rep = petal_test(1, CFG)
        d = rep.to_dict()
        assert d["petals_out"] == 6
        assert 0.0 <= d["visibility"] <= 1.0
