"""The three benchmark workloads.

Each workload makes its inputs from the seed, warms up in setup(), and
then runs whole rounds of the same operations.  round() returns the
operation count and the failed count; a program output that fails a check
is recorded in `errors`.  Every workload has two kinds of operation, a and
b, and metrics() gives the median wall time of each as `op_a_s` and
`op_b_s`.  LAYERS names the traced functions that make up each of the
workload's six layers, in the order of the `layer<k>_s` metrics.
Program functions are called through their modules (`protocol.`,
`dynamics.`, `cli.`) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from hotelsim import dynamics, protocol
from hotelsim.dynamics import (DynamicKnobs, FreeFlight, GridState,
                               PotentialTimeline, PropagatorSettings, Segment)
from hotelsim.protocol import ProtocolConfig
from hotelsim.well import SpectralState, WellGeometry

import checks


class Workload:
    def __init__(self, seed: int, root: Path):
        self.rng = np.random.default_rng(seed)
        self.root = root
        self.errors = []

    def check(self, fn, *args):
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            self.errors.append(str(exc))
            return None

    @staticmethod
    def attempt(fn, *args):
        """Run one operation; an exception from the program fails it."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None

    def close(self):
        pass


class IdealSweep(Workload):
    """Seeded random states through run_ideal_protocol_p, two shapes.

    p2: N=128 levels, support 32, 8192 working modes (the AC1 shape).
    p3: N=8 levels, full support, 12288 working modes (the AC4 shape).
    A round is one state of each shape; op a is a p2 state, op b a p3 state.
    """

    SHAPES = (("p2", 2, 128, 32, 8192), ("p3", 3, 8, 8, 12288))
    LAYERS = (("run_ideal_protocol_p",),
              ("split_at_nodes", "merge_halves"),
              ("adiabatic_retag",),
              ("project",),
              ("rebase", "free_evolve"),
              ("mode_overlap_matrix",))

    def setup(self):
        self.geometry = WellGeometry(1.0)
        self.configs = {name: ProtocolConfig(p=p, working_modes=w)
                        for name, p, _, _, w in self.SHAPES}
        self.times = {name: [] for name, *_ in self.SHAPES}
        for shape in self.SHAPES:   # cold overlap builds land in set-up
            self._state(shape)

    def _state(self, shape):
        name, p, n, support, _ = shape
        amps = np.zeros(n, dtype=complex)
        amps[:support] = (self.rng.standard_normal(support)
                          + 1j * self.rng.standard_normal(support))
        amps /= np.linalg.norm(amps)
        state = SpectralState(geometry=self.geometry, amps=amps)
        t0 = time.perf_counter()
        out, _ = protocol.run_ideal_protocol_p(state, self.configs[name])
        elapsed = time.perf_counter() - t0
        self.check(checks.check_ideal, amps, out.amps, p)
        return name, elapsed

    def round(self):
        failed = 0
        for shape in self.SHAPES:
            done = self.attempt(self._state, shape)
            if done is None:
                failed += 1
            else:
                self.times[done[0]].append(done[1])
        return len(self.SHAPES), failed

    def metrics(self):
        return {"op_a_s": (statistics.median(self.times["p2"]), "s"),
                "op_b_s": (statistics.median(self.times["p3"]), "s")}


class GridDynamics(Workload):
    """One Crank-Nicolson protocol run and one Strang split-step carpet.

    Protocol: level 1 with a seeded global phase (n_modes=2), compression
    over 2 tau, DynamicKnobs defaults otherwise (m=1023, dt=tau/8000).
    Carpet: (h1+h2+h3)/sqrt(3), independent of the seed, m=1023 grid,
    dt=tau/8000, two revival periods sampled at 257 times.  The spacing is
    62.5 steps, so every other row is labelled half a step early.
    A round is the protocol run plus every carpet row; op a is the
    protocol run, op b the whole carpet.
    """

    LAYERS = (("run_dynamic_protocol",),
              ("carpet",),
              ("propagate:crank-nicolson:FreeFlight",),
              ("propagate:crank-nicolson:RampedBarrier-",),
              ("propagate:crank-nicolson:MovingWall",),
              ("propagate:strang-split-sine:",))

    COMPRESSION_TAU = 2.0
    FIDELITY_FLOOR = 0.98
    LEAK_CEILING = 0.02
    CARPET_LEVELS = 3
    CARPET_M = 1023
    CARPET_STEPS_PER_TAU = 8000
    CARPET_TAUS = 2.0
    CARPET_SAMPLES = 257

    def setup(self):
        self.geometry = WellGeometry(1.0)
        width = self.geometry.width
        self.tau = 4.0 * width ** 2 / np.pi
        self.knobs = DynamicKnobs(compression_time=self.COMPRESSION_TAU)
        total = (2.0 + 2 * self.knobs.barrier_ramp_time + self.COMPRESSION_TAU)
        self.drift_tol = (PropagatorSettings(dt=1.0).norm_drift_tol
                          * max(1.0, total * self.tau))
        self.carpet_amps = np.ones(self.CARPET_LEVELS, dtype=complex)
        self.carpet_amps /= np.linalg.norm(self.carpet_amps)
        m = self.CARPET_M
        x = width * np.arange(1, m + 1) / (m + 1)
        samples = self.carpet_amps @ (
            np.sqrt(2.0 / width)
            * np.sin(np.pi * np.outer(np.arange(1, self.CARPET_LEVELS + 1), x)
                     / width))
        self.carpet_grid = GridState(samples=samples, width=width)
        self.carpet_duration = self.CARPET_TAUS * self.tau
        self.carpet_timeline = PotentialTimeline(
            [Segment(self.carpet_duration, FreeFlight())])
        self.carpet_settings = PropagatorSettings(
            dt=self.tau / self.CARPET_STEPS_PER_TAU, scheme="strang-split-sine")
        self.protocol_times = []
        self.carpet_times = []

    def _protocol(self):
        amps = np.zeros(2, dtype=complex)
        amps[0] = np.exp(2j * np.pi * self.rng.random())
        state = SpectralState(geometry=self.geometry, amps=amps)
        t0 = time.perf_counter()
        out, report = dynamics.run_dynamic_protocol(state, self.knobs)
        self.protocol_times.append(time.perf_counter() - t0)
        self.check(checks.check_dynamic, amps, out.amps, report.step_norms,
                   self.drift_tol, self.FIDELITY_FLOOR, self.LEAK_CEILING)
        return 0

    def _carpet(self):
        t0 = time.perf_counter()
        times, x, rows = dynamics.carpet(self.carpet_grid, self.carpet_timeline,
                                         self.carpet_settings,
                                         self.CARPET_SAMPLES)
        self.carpet_times.append(time.perf_counter() - t0)
        ok = self.check(checks.check_carpet, self.carpet_amps,
                        self.geometry.width, self.carpet_duration, times, x,
                        rows, self.carpet_grid.dx)
        if ok is None:
            return self.CARPET_SAMPLES
        return int(np.sum(~ok))

    def round(self):
        failed = self.attempt(self._protocol)
        late = self.attempt(self._carpet)
        return (1 + self.CARPET_SAMPLES,
                (1 if failed is None else 0)
                + (self.CARPET_SAMPLES if late is None else late))

    def metrics(self):
        return {"op_a_s": (statistics.median(self.protocol_times), "s"),
                "op_b_s": (statistics.median(self.carpet_times), "s")}


class OamBench(Workload):
    """hotel-sim run oam-multiply and oam-petals at their default configs,
    in-process through hotelsim.cli.main, into a scratch directory in the
    checkout.  The seed draws the input charge of each experiment.
    A round is one run of each; op a is oam-multiply, op b oam-petals.
    """

    LAYERS = (("run_experiment",),
              ("multiply_oam", "petal_test"),
              ("make_oam_mode",),
              ("fourier_lens", "inverse_fourier_lens", "sorter_unwrap",
               "sorter_wrap"),
              ("oam_spectrum",),
              ("write_raster", "write_csv", "write_json"))

    MULTIPLY_ELLS = (-3, -2, -1, 1, 2, 3)
    PETAL_ELLS = (1, 2, 3)

    def setup(self):
        from hotelsim import cli   # here, so only this workload pays for its imports
        self.cli = cli
        self.work = self.root / ".perfbench_runs" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.multiply_times = []
        self.petal_times = []

    def _run(self, experiment, ell, out):
        argv = ["run", experiment, "--out", str(out), "--set", f"ell={ell}"]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.attempt(self.cli.main, argv)
        return code, time.perf_counter() - t0

    def round(self):
        failed = 0
        ell = int(self.rng.choice(self.MULTIPLY_ELLS))
        out = self.work / "multiply"
        code, elapsed = self._run("oam-multiply", ell, out)
        if code == 0:
            self.multiply_times.append(elapsed)
            cfg = json.loads((out / "manifest.json").read_text())["config"]
            charge = cfg["p"] * ell
            self.check(checks.check_oam_raster, out / "rasters" / "output_field.bin",
                       charge, cfg["pitch"], cfg["b"])
            self.check(checks.check_spectrum, out / "series" / "spectrum.csv",
                       charge)
        else:
            failed += 1
        shutil.rmtree(out, ignore_errors=True)

        ell = int(self.rng.choice(self.PETAL_ELLS))
        out = self.work / "petals"
        code, elapsed = self._run("oam-petals", ell, out)
        if code == 0:
            self.petal_times.append(elapsed)
            p = json.loads((out / "manifest.json").read_text())["config"]["p"]
            self.check(checks.check_petals, out / "series" / "ring_profile.csv",
                       2 * p * ell)
        else:
            failed += 1
        shutil.rmtree(out, ignore_errors=True)
        return 2, failed

    def metrics(self):
        return {"op_a_s": (statistics.median(self.multiply_times), "s"),
                "op_b_s": (statistics.median(self.petal_times), "s")}

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


WORKLOADS = {
    "ideal-sweep": IdealSweep,
    "grid-dynamics": GridDynamics,
    "oam-bench": OamBench,
}
