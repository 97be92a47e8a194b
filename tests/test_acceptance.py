"""Acceptance suite: one test per release criterion.

Each test prints a single [AC#] PASS line (with its measured numbers)
straight to the terminal; a failing criterion fails its test.
"""

import json
import time

import numpy as np
import pytest

from hotelsim.cli import main as cli_main
from hotelsim.dynamics import (DynamicKnobs, FreeFlight, PotentialTimeline,
                               PropagatorSettings, Segment, propagate,
                               run_dynamic_protocol, to_grid, to_spectral)
from hotelsim.multiplier import MultiplierPipelineConfig, crosstalk_matrix, \
    multiply_oam, petal_test
from hotelsim.optics import fanout_order_coefficients, FanoutConfig, \
    make_oam_mode, oam_spectrum
from hotelsim.protocol import (ProtocolConfig, hotel_multiply_oracle,
                               phase_offset, run_ideal_protocol_p)
from hotelsim.well import (WellGeometry, free_evolve, mirror, random_state)

G = WellGeometry(1.0)
TAU = 2.0 * np.pi / G.omega0()
BENCH = MultiplierPipelineConfig.design(p=3)


def report(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def test_ac1_ideal_protocol_oracle_equivalence(capsys):
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst_fid, worst_leak = 1.0, 0.0
    for _ in range(100):
        s = random_state(G, 128, rng, n_support=32)
        out, _ = run_ideal_protocol_p(s, ProtocolConfig(p=2, working_modes=8192))
        oracle = hotel_multiply_oracle(s, 2)
        k = min(out.n_modes, oracle.n_modes)
        fid = abs(np.vdot(oracle.amps[:k], out.amps[:k])) ** 2
        leak = np.sum(np.abs(out.amps[0::2]) ** 2)
        worst_fid = min(worst_fid, fid)
        worst_leak = max(worst_leak, leak)
    elapsed = time.perf_counter() - t0
    assert worst_fid >= 1.0 - 1e-8
    assert worst_leak <= 1e-10
    assert elapsed < 5.0
    report(capsys, f"[AC1] PASS ideal doubling vs oracle: min fidelity "
                   f"1-{1 - worst_fid:.1e}, max odd leak {worst_leak:.1e}, "
                   f"{elapsed:.2f}s for 100 states")


def test_ac2_mirror_revival_identity(capsys):
    big = WellGeometry(2.0)
    rng = np.random.default_rng(2)
    s = random_state(big, 64, rng)
    evolved = free_evolve(s, TAU)
    want = 0.5 * (1.0 - 1j) * s.amps - 0.5 * (1.0 + 1j) * mirror(s).amps
    err = float(np.max(np.abs(evolved.amps - want)))
    assert err <= 1e-12
    report(capsys, f"[AC2] PASS width-2L revival equals (1-i)/2 I - (1+i)/2 R:"
                   f" max componentwise error {err:.1e} at N=64")


def test_ac3_phase_matching_step(capsys):
    rng = np.random.default_rng(3)
    s = random_state(G, 32, rng)
    shifted = phase_offset(s, G.omega0() / 4.0, TAU)
    phase_err = float(np.max(np.abs(shifted.amps - (-1j) * s.amps)))
    assert phase_err == 0.0 or phase_err < 1e-15

    out, _ = run_ideal_protocol_p(s, ProtocolConfig(p=2, working_modes=8192))
    odd_power = float(np.sum(np.abs(out.amps[0::2]) ** 2))
    assert odd_power <= 1e-10
    report(capsys, f"[AC3] PASS offset V=omega0/4 over one period gives -i "
                   f"(err {phase_err:.1e}); post-merge odd-level power "
                   f"{odd_power:.1e}")


def test_ac4_general_p3_pipeline(capsys):
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    worst_fid, worst_res = 1.0, 0.0
    for _ in range(20):
        s = random_state(G, 8, rng)
        out, record = run_ideal_protocol_p(
            s, ProtocolConfig(p=3, working_modes=12288))
        oracle = hotel_multiply_oracle(s, 3)
        k = min(out.n_modes, oracle.n_modes)
        fid = abs(np.vdot(oracle.amps[:k], out.amps[:k])) ** 2
        worst_fid = min(worst_fid, fid)
        worst_res = max(worst_res, max(record.copy_residuals))
    elapsed = time.perf_counter() - t0
    assert worst_fid >= 1.0 - 1e-8
    assert worst_res < 1e-8
    report(capsys, f"[AC4] PASS p=3 pipeline with fitted sub-well phases: "
                   f"min fidelity 1-{1 - worst_fid:.1e}, max copy residual "
                   f"{worst_res:.1e}, {elapsed:.2f}s for 20 states")


def test_ac5_dynamic_propagator_quality(capsys):
    rng = np.random.default_rng(5)
    s = random_state(G, 24, rng)
    grid = to_grid(s, 1024)
    tl = PotentialTimeline([Segment(TAU / 2.0, FreeFlight())])
    out = propagate(grid, tl, PropagatorSettings(dt=TAU / 4000.0))
    drift = abs(out.norm_sq() - 1.0)
    exact = to_grid(free_evolve(s, TAU / 2.0), 1024)
    l2 = float(np.sqrt(np.sum(np.abs(out.samples - exact.samples) ** 2)
                       * grid.dx))
    assert drift <= 1e-9
    assert l2 <= 1e-6

    base = to_grid(random_state(G, 6, np.random.default_rng(55)), 255)

    class Bump:
        def potential(self, x, u):
            return 10.0 * np.sin(np.pi * x) * (1.0 + 0.5 * np.sin(np.pi * u))

    tlb = PotentialTimeline([Segment(0.2 * TAU, Bump())])

    def low_band(steps):
        st = PropagatorSettings(dt=0.2 * TAU / steps)
        return to_spectral(propagate(base, tlb, st), 32).amps

    ref = low_band(12800)
    e1 = np.linalg.norm(low_band(400) - ref)
    e2 = np.linalg.norm(low_band(800) - ref)
    order = float(np.log2(e1 / e2))
    assert abs(order - 2.0) <= 0.1
    report(capsys, f"[AC5] PASS grid propagator: norm drift {drift:.1e}, "
                   f"half-period L2 error {l2:.1e} at M=1024, "
                   f"self-convergence order {order:.3f}")


def test_ac6_adiabaticity_trend(capsys):
    from hotelsim.well import basis_state
    t0 = time.perf_counter()
    fids = []
    for T in (10.0, 40.0, 160.0):
        _, rep = run_dynamic_protocol(
            basis_state(1, G, 8), DynamicKnobs(compression_time=T))
        fids.append(rep.fidelity)
    elapsed = time.perf_counter() - t0
    assert fids[0] < fids[1] < fids[2]
    assert fids[2] > 0.99
    assert elapsed < 600.0
    report(capsys, f"[AC6] PASS compression-time sweep 10/40/160 tau: "
                   f"fidelities {fids[0]:.7f} < {fids[1]:.7f} < {fids[2]:.7f},"
                   f" {elapsed:.0f}s")


def test_ac7_fanout_balance_point(capsys):
    orders, c = fanout_order_coefficients(FanoutConfig(mu=1.32859))
    mags = np.abs(c[np.isin(orders, (-1, 0, 1))])
    imbalance = float(np.max(mags) / np.min(mags) - 1.0)
    assert imbalance < 1e-3

    mus = np.arange(1.2, 1.45, 1e-4)

    def spread(mu):
        _, cc = fanout_order_coefficients(FanoutConfig(mu=float(mu)))
        m = np.abs(cc[np.isin(orders, (-1, 0, 1))])
        return np.max(m) - np.min(m)

    best = float(mus[int(np.argmin([spread(m) for m in mus]))])
    assert abs(best - 1.32859) <= 1e-3
    report(capsys, f"[AC7] PASS three-order fan-out: imbalance {imbalance:.1e}"
                   f" at mu=1.32859; scan minimum at mu={best:.5f}")


def test_ac8_eigenmode_multiplication_crosstalk(capsys):
    m = crosstalk_matrix(BENCH, ell_in_max=3, method="projective")
    doms = m.dominant_outputs()
    assert list(doms) == [3 * l for l in m.ell_in]
    worst_ratio = 0.0
    for ell in m.ell_in:
        row = m.row(int(ell))
        target = 3 * int(ell)
        dom = row[int(np.nonzero(m.ell_out == target)[0][0])]
        far = sum(f for lo, f in zip(m.ell_out, row)
                  if abs(int(lo) - target) >= 3)
        worst_ratio = max(worst_ratio, far / dom)
    assert worst_ratio <= 0.10
    report(capsys, f"[AC8] PASS charge tripling for l in -3..3: output argmax "
                   f"at 3l, worst far-leak/dominant ratio {worst_ratio:.3f}")


def test_ac9_coherence_petals(capsys):
    counts = []
    for ell in (1, 2, 3):
        rep = petal_test(ell, BENCH)
        assert rep.petals_out == 6 * ell
        assert rep.visibility >= 0.9
        counts.append((rep.petals_out, round(rep.visibility, 3)))

    plus = make_oam_mode(3, BENCH.ring, BENCH.grid, BENCH.sorter.wavelength)
    minus = make_oam_mode(-3, BENCH.ring, BENCH.grid, BENCH.sorter.wavelength)
    sup = plus.with_samples((plus.samples + minus.samples) / np.sqrt(2.0))
    spec = oam_spectrum(multiply_oam(sup, BENCH)[0], 12, method="projective",
                        ring=BENCH.ring)
    top2 = set(int(l) for l in
               spec.ells[np.argsort(spec.fractions)[::-1][:2]])
    assert top2 == {9, -9}
    report(capsys, f"[AC9] PASS petal counts/visibilities {counts}; "
                   f"(|3>+|-3>) output peaks at l=+-9 "
                   f"({spec.fraction(9):.3f}/{spec.fraction(-9):.3f})")


def test_ac10_manifest_determinism(capsys, tmp_path):
    cases = [
        ("well-ideal", ["--seed", "11", "--set", "input=random",
                        "--set", "working_modes=1024", "--set", "n_support=6"]),
        ("carpet", ["--set", "m=127", "--set", "time_samples=16",
                    "--set", "space_samples=32",
                    "--set", "dt_steps_per_tau=256"]),
    ]
    for name, args in cases:
        first = tmp_path / name / "first"
        rerun = tmp_path / name / "rerun"
        replay = tmp_path / name / "replay"
        assert cli_main(["run", name, "--out", str(first)] + args) == 0
        assert cli_main(["run", name, "--out", str(rerun)] + args) == 0
        assert cli_main(["run", "--config", str(first / "manifest.json"),
                         "--out", str(replay)]) == 0
        base = (first / "metrics.json").read_bytes()
        assert (rerun / "metrics.json").read_bytes() == base
        assert (replay / "metrics.json").read_bytes() == base
        m = json.loads(base)
        assert m  # non-trivial payload
    report(capsys, "[AC10] PASS rerun and manifest replay reproduce "
                   "metrics byte-identically (well-ideal, carpet)")
