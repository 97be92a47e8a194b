"""Ideal level-multiplication pipeline against the interleaving oracle."""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hotelsim
from hotelsim import protocol, well
from hotelsim.well import (SpectralState, WellGeometry, basis_state, evaluate,
                           free_evolve, mirror, mode_overlap_matrix,
                           random_state, rebase)
from hotelsim.protocol import (CopyFitError, NodeConditionError,
                               ProtocolConfig, adiabatic_retag,
                               fix_global_phase, hotel_multiply_oracle,
                               merge_halves, oracle_score, phase_offset,
                               run_ideal_protocol_p, split_at_nodes,
                               _node_peak)

G = WellGeometry(1.0)
TAU = 2.0 * np.pi / G.omega0()


class TestHotelOperators:
    def test_multiply_oracle_interleaves(self):
        rng = np.random.default_rng(0)
        s = random_state(G, 5, rng)
        out = hotel_multiply_oracle(s, 3)
        assert out.n_modes == 15
        assert np.allclose(out.amps[2::3], s.amps)
        assert np.all(out.amps[0::3] == 0)
        assert np.all(out.amps[1::3] == 0)

    def test_score_of_the_oracle_and_of_a_leak(self):
        s = random_state(G, 5, np.random.default_rng(1))
        out = hotel_multiply_oracle(s, 3)
        assert oracle_score(out, s, 3) == (pytest.approx(1.0), 0.0)
        leaky = out.amps.copy()
        leaky[[0, 4]] = 0.3, 0.4j
        fid, leak = oracle_score(out.with_amps(leaky), s, 3)
        assert fid == pytest.approx(1.0)
        assert leak == pytest.approx(0.25)

    def test_isometry_preserves_norm(self):
        rng = np.random.default_rng(2)
        s = random_state(G, 9, rng)
        assert np.isclose(np.linalg.norm(hotel_multiply_oracle(s, 2).amps), 1.0)


class TestSplitMerge:
    def make_split_ready(self, n_support=6, p=2):
        """Evolve an embedded state to its p-copy configuration."""
        rng = np.random.default_rng(3)
        s = random_state(G, n_support, rng)
        big = WellGeometry(p * 1.0)
        return s, free_evolve(rebase(s, big, 4096 * p), p * TAU / 2.0)

    def test_split_then_merge_round_trips(self):
        _, evolved = self.make_split_ready()
        parts = split_at_nodes(evolved, 2, n_modes=512)
        back = merge_halves(*parts, n_modes=evolved.n_modes)
        # tiny loss from re-expanding the sub-well truncations
        assert abs(np.vdot(back.amps, evolved.amps)) ** 2 > 1.0 - 1e-6

    def test_split_rejects_mistimed_state(self):
        s, evolved = self.make_split_ready()
        bad = free_evolve(evolved, 0.07 * TAU)
        with pytest.raises(NodeConditionError):
            split_at_nodes(bad, 2, n_modes=64)

    @pytest.mark.parametrize("n_modes", [10, 1024, 3000])
    def test_node_peak_matches_dense_scan(self, n_modes):
        # the DST-I peak equals the dense evaluate scan of the low band
        # (n <= 1024) on linspace(origin, end, 1026)[1:-1]
        g = WellGeometry(1.7, origin=-0.3)
        s = random_state(g, n_modes, np.random.default_rng(n_modes))
        xs = np.linspace(g.origin, g.end, 1026)[1:-1]
        low = s.with_amps(s.amps[:1024])
        dense = np.max(np.abs(evaluate(low, xs)))
        assert abs(_node_peak(s) - dense) <= 1e-12 * dense

    @pytest.mark.parametrize("n_modes", [8, 1024, 8192])
    def test_node_peak_matches_scipy_dst(self, n_modes):
        # zero-padded, exact and truncated band against scipy's DST-I
        from scipy.fft import dst
        g = WellGeometry(1.7, origin=-0.3)
        s = random_state(g, n_modes, np.random.default_rng(n_modes + 1))
        band = dst(s.amps, type=1, n=1024)
        want = np.sqrt(2.0 / g.width) * np.max(np.abs(band)) / 2.0
        assert abs(_node_peak(s) - want) <= 1e-13 * want

    def test_node_row_matches_evaluate(self):
        # the node check's cached row gives evaluate's value at the node
        g = WellGeometry(1.7, origin=-0.3)
        s = random_state(g, 300, np.random.default_rng(6))
        row = protocol._node_row(g, 300, 0.4)
        a = s.amps
        want = evaluate(s, np.array([0.4]))[0]
        assert abs((a.real @ row + 1j * (a.imag @ row)) - want) <= 1e-13

    def test_merge_requires_adjacent_equal_wells(self):
        left = basis_state(1, WellGeometry(1.0), 4)
        gap = basis_state(1, WellGeometry(1.0, origin=1.5), 4)
        with pytest.raises(ValueError):
            merge_halves(left, gap)


class TestPhaseOffset:
    def test_quarter_omega_for_one_period_gives_minus_i(self):
        rng = np.random.default_rng(4)
        s = random_state(G, 12, rng)
        out = phase_offset(s, G.omega0() / 4.0, TAU)
        # free evolution over tau is the identity, the offset leaves -i
        assert np.max(np.abs(out.amps + 1j * s.amps)) < 1e-12

    def test_zero_potential_is_free_evolution(self):
        rng = np.random.default_rng(5)
        s = random_state(G, 12, rng)
        assert np.allclose(phase_offset(s, 0.0, 0.3).amps,
                           free_evolve(s, 0.3).amps)


class TestDoublingPipeline:
    def test_matches_oracle_on_random_state(self):
        rng = np.random.default_rng(6)
        s = random_state(G, 16, rng)
        out, _ = run_ideal_protocol_p(s, ProtocolConfig(p=2, working_modes=4096))
        assert oracle_score(out, s, 2)[0] > 1.0 - 1e-8

    def test_trace_has_the_six_steps(self):
        s = basis_state(1, G, 4)
        _, report = run_ideal_protocol_p(s, ProtocolConfig(p=2))
        assert list(report.step_norms) == [
            "expand", "mirror-evolve", "split", "phase", "merge", "compress"]
        assert report.warnings == []

    def test_vacated_levels_are_empty(self):
        rng = np.random.default_rng(7)
        s = random_state(G, 16, rng)
        out, _ = run_ideal_protocol_p(s, ProtocolConfig(p=2, working_modes=4096))
        assert np.sum(np.abs(out.amps[0::2]) ** 2) < 1e-12

    def test_split_record_holds_the_parts_norm(self):
        s = basis_state(1, G, 4)
        _, report = run_ideal_protocol_p(s, ProtocolConfig(p=2, working_modes=2048))
        norms = report.step_norms
        big = WellGeometry(2 * G.width)
        parts = split_at_nodes(free_evolve(rebase(s, big, 2048), TAU), 2,
                               n_modes=s.n_modes)
        part_norms = [np.sum(np.abs(q.amps) ** 2) for q in parts]
        assert abs(norms["split"] - sum(part_norms)) < 1e-15
        # the phase step only rotates each part
        assert abs(norms["phase"] - norms["split"]) < 1e-15

    def test_fitted_offsets_recorded(self):
        s = basis_state(1, G, 4)
        _, report = run_ideal_protocol_p(s, ProtocolConfig(p=2, working_modes=2048))
        # one coefficient per sub-well, each carrying a 1/sqrt(p) copy, to
        # the fit tolerance: floored at ten times the expansion's lost tail
        tail = np.sqrt(max(0.0, 1.0 - report.step_norms["expand"]))
        tol = max(protocol.COPY_RESIDUAL_TOL, 10.0 * tail)
        assert report.copy_coefficients.shape == (2,)
        assert np.all(np.abs(np.abs(report.copy_coefficients) - 1.0 / np.sqrt(2.0))
                      <= tol)
        assert report.copy_residuals.shape == (2,)
        assert max(report.copy_residuals) < 1e-6


class TestGeneralP:
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_small_support_states(self, p):
        rng = np.random.default_rng(100 + p)
        s = random_state(G, 4, rng)
        out, _ = run_ideal_protocol_p(
            s, ProtocolConfig(p=p, working_modes=4096 * p))
        assert oracle_score(out, s, p)[0] > 1.0 - 1e-7

    def test_p1_is_identity(self):
        rng = np.random.default_rng(8)
        s = fix_global_phase(random_state(G, 8, rng))
        out, _ = run_ideal_protocol_p(s, ProtocolConfig(p=1))
        assert np.allclose(out.amps, s.amps)

    def test_p1_records_compress_only(self):
        s = random_state(G, 8, np.random.default_rng(8))
        out, report = run_ideal_protocol_p(s, ProtocolConfig(p=1))
        assert list(report.step_norms) == ["compress"]
        assert report.step_norms["compress"] == pytest.approx(
            np.sum(np.abs(out.amps) ** 2), abs=1e-15)
        assert report.copy_coefficients.size == report.copy_residuals.size == 0

    def test_copy_fit_error_on_unrelated_part(self):
        from hotelsim.protocol import _copy_pattern, _fit_copy_phases
        rng = np.random.default_rng(9)
        ref = random_state(G, 8, rng)
        good = ref.with_amps(ref.amps * np.exp(0.3j) / np.sqrt(2.0))
        bad = random_state(G, 8, rng)
        with pytest.raises(CopyFitError):
            _fit_copy_phases([good, bad], ref.amps, _copy_pattern(2), 1e-8)


class TestOutputBasisMerge:
    @pytest.mark.parametrize("n", [8, 7])
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_matches_the_full_basis_merge(self, p, n):
        # The pipeline merges straight onto the n_out = p n output levels.
        # The reference merges onto all n_work levels, applies the odd-p
        # parity fix there, and truncates after compression.  With numpy's
        # bundled OpenBLAS on x86-64 the two are bit-equal at n = 8; at
        # n = 7 (n_out odd for odd p) the GEMV rounds its last rows
        # differently, by up to 3e-17.  So only the 1e-15 bound is asserted.
        s = random_state(G, n, np.random.default_rng(40 + p))
        n_work = 1024 * p
        out, report = run_ideal_protocol_p(
            s, ProtocolConfig(p=p, working_modes=n_work))
        big = WellGeometry(p * G.width)
        parts = split_at_nodes(free_evolve(rebase(s, big, n_work), p * TAU / 2.0),
                               p, n_modes=s.n_modes)
        coeffs = report.copy_coefficients
        phased = [part.with_amps(part.amps * ((-1.0) ** j * np.conj(c) / abs(c)))
                  for j, (part, c) in enumerate(zip(parts, coeffs))]
        merged = merge_halves(*phased, n_modes=n_work)
        if p % 2 == 1:
            merged = free_evolve(merged, np.pi / big.omega0())
        reference = adiabatic_retag(merged, G).amps[:out.n_modes]
        assert out.n_modes == n * p
        assert np.max(np.abs(out.amps - reference)) <= 1e-15
        # the compress record is the norm the output holds, which the
        # merge's truncation can only lower
        norms = report.step_norms
        assert abs(norms["compress"] - np.sum(np.abs(out.amps) ** 2)) <= 1e-15
        assert norms["compress"] <= norms["phase"] + 1e-15

    def test_second_state_builds_nothing(self):
        # per-geometry work (overlaps, evolution phases, node rows) is done
        # by the first state of a shape; a second state only reads caches
        rng = np.random.default_rng(50)
        caches = (mode_overlap_matrix.cache_info, free_evolve.cache_info,
                  protocol._node_row.cache_info)
        for p, n in ((2, 16), (3, 8)):
            cfg = ProtocolConfig(p=p, working_modes=1024 * p)
            run_ideal_protocol_p(random_state(G, n, rng), cfg)
            misses = [info().misses for info in caches]
            amps = random_state(G, n, rng).amps.copy()
            out, _ = run_ideal_protocol_p(SpectralState(G, amps), cfg)
            assert [info().misses for info in caches] == misses
            assert amps.flags.writeable
            assert oracle_score(out, SpectralState(G, amps), p)[0] > 1.0 - 1e-6
            big = WellGeometry(p * G.width)
            cycles = big.omega0() * (p * TAU / 2.0) / (2.0 * np.pi)
            cached = [mode_overlap_matrix(G, n, big, 1024 * p),
                      well._evolution_phases(cycles, 1024 * p),
                      protocol._node_row(big, 1024 * p, G.width)]
            assert [info().misses for info in caches] == misses
            assert not any(a.flags.writeable for a in cached)


class TestInputGuard:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_unnormalizable_input_rejected(self, p, bad):
        s = basis_state(1, G, 4).with_amps([bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-zero norm"):
            run_ideal_protocol_p(s, ProtocolConfig(p=p, working_modes=512))

    @pytest.mark.parametrize("field", ["n_modes", "working_modes"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_mode_counts_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            ProtocolConfig(p=2, **{field: value})


def test_ideal_tier_loads_no_scipy():
    # the ideal tier runs on numpy alone; the grid tier loads scipy.fft
    # at its first transform
    src = Path(hotelsim.__file__).resolve().parents[1]
    code = textwrap.dedent("""
        import sys, threading
        sys.path.insert(0, sys.argv[1])
        import numpy as np
        from hotelsim import dynamics, protocol, well
        rng = np.random.default_rng(1)
        g = well.WellGeometry(1.0)
        for p, n in ((2, 8), (3, 4)):
            s = well.random_state(g, n, rng)
            cfg = protocol.ProtocolConfig(p=p, working_modes=1024 * p)
            out, _ = protocol.run_ideal_protocol_p(s, cfg)
            assert protocol.oracle_score(out, s, p)[0] > 1.0 - 1e-6
        print(sorted(m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")))
        print(threading.active_count())
        dynamics.to_grid(s, 63)
        print("scipy.fft" in sys.modules)
        """)
    done = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "1", "True"]


class TestGlobalPhase:
    def test_lowest_occupied_level_made_real(self):
        s = basis_state(2, G, 4).with_amps([0, 1j * 0.6, 0, 0.8j])
        out = fix_global_phase(s)
        assert out.amps[1].imag == pytest.approx(0.0, abs=1e-15)
        assert out.amps[1].real > 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 31))
def test_doubling_pipeline_is_oracle_to_1e6_at_modest_basis(seed):
    s = random_state(G, 8, np.random.default_rng(seed))
    out, _ = run_ideal_protocol_p(s, ProtocolConfig(p=2, working_modes=2048))
    assert oracle_score(out, s, 2)[0] > 1.0 - 1e-6
