"""Grid propagation: transform bridge, both schemes, potential features,
and the realistic protocol run."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.fft import dst
from scipy.linalg import solve_banded

from hotelsim.well import WellGeometry, basis_state, free_evolve, random_state
from hotelsim import dynamics
from hotelsim.dynamics import (SCHEMES, DynamicKnobs, FreeFlight, GridState,
                               MovingWall, PotentialTimeline,
                               PropagationError, PropagatorSettings,
                               RampedBarrier, Segment, UniformOffset, carpet,
                               propagate, run_dynamic_protocol, to_grid,
                               to_spectral)

G = WellGeometry(1.0)
TAU = 2.0 * np.pi / G.omega0()


def reference_crank_nicolson(g, seg, nsteps, observer=None):
    """Crank-Nicolson as it was first written: every step re-evaluates the
    potential, builds the (1 - aH) psi right-hand side and a (3, m) band
    matrix, and calls solve_banded."""
    const = g.constants
    x, m = g.x, g.m
    dt = seg.duration / nsteps
    kin = const.hbar ** 2 / (2.0 * const.mass * g.dx ** 2)
    off = np.full(m - 1, -kin)
    psi = np.array(g.samples)
    for k in range(nsteps):
        diag = 2.0 * kin + seg.potential(x, (k + 0.5) / nsteps)
        a = 0.5j * dt / const.hbar
        rhs = (1.0 - a * diag) * psi
        rhs[:-1] -= a * off * psi[1:]
        rhs[1:] -= a * off * psi[:-1]
        ab = np.zeros((3, m), dtype=complex)
        ab[0, 1:] = a * off
        ab[1, :] = 1.0 + a * diag
        ab[2, :-1] = a * off
        psi = solve_banded((1, 1), ab, rhs)
        if observer is not None:
            observer((k + 1) * dt, g.with_samples(psi))
    return psi


def zgtsv_crank_nicolson(g, seg, nsteps, observer=None):
    """Crank-Nicolson as the step loop of a varying segment was before it
    reused factors: every step evaluates the potential and calls zgtsv on
    all rows, psi_next = 2 (1 + aH)^-1 psi - psi."""
    from scipy.linalg.lapack import zgtsv
    const = g.constants
    kin = const.hbar ** 2 / (2.0 * const.mass * g.dx ** 2)
    dt = seg.duration / nsteps
    a = 0.5j * dt / const.hbar
    off = np.full(g.m - 1, -a * kin)
    potential = seg.on_grid(g.x)
    psi = np.array(g.samples)
    for k in range(nsteps):
        d = 1.0 + a * (2.0 * kin + potential((k + 0.5) / nsteps))
        y = zgtsv(off, d, off, psi, overwrite_d=1)[3]
        y *= 2.0
        y -= psi
        psi = y
        if observer is not None:
            observer((k + 1) * dt, g.with_samples(psi))
    return psi


def reference_strang(g, seg, nsteps, observer=None):
    """The split step taken step by step, flat segments included: every
    step applies half the potential phase, the kinetic phase in the
    DST-I basis, and the other half; a constant segment's potential is
    evaluated at its midpoint."""
    const = g.constants
    x = g.x
    dt = seg.duration / nsteps
    n = np.arange(1, g.m + 1, dtype=float)
    e = (const.hbar * np.pi * n / g.width) ** 2 / (2.0 * const.mass)
    kin = np.exp(-1j * e * dt / const.hbar)
    psi = np.array(g.samples)
    for k in range(nsteps):
        u = 0.5 if seg.constant else (k + 0.5) / nsteps
        half = np.exp(-0.5j * dt * seg.potential(x, u) / const.hbar)
        psi = psi * half
        psi = dst(dst(psi, type=1, norm="ortho") * kin, type=1, norm="ortho")
        psi *= half
        if observer is not None:
            observer((k + 1) * dt, g.with_samples(psi))
    return psi


REFERENCES = {"strang-split-sine": reference_strang,
              "crank-nicolson": reference_crank_nicolson}


def reference_run(grid, segments, nsteps, scheme):
    """Every step's (t, samples) and the end state of the per-step
    reference of `scheme`, segment after segment."""
    seen = []
    t0 = 0.0
    for seg, n in zip(segments, nsteps):
        psi = REFERENCES[scheme](
            grid, seg, n,
            observer=lambda t, gs: seen.append((t0 + t, gs.samples)))
        grid = grid.with_samples(psi)
        t0 += seg.duration
    return seen, grid.samples


class Bump:
    """A smooth time-dependent potential that declares no `constant`."""

    def potential(self, x, u):
        return 10.0 * np.sin(np.pi * x) * (1.0 + 0.5 * np.sin(np.pi * u))


def barrier_formula(bar, x, u):
    """A ramping barrier's potential with its profile evaluated on every
    call."""
    r = 0.5 * (1.0 - math.cos(math.pi * min(max(u, 0.0), 1.0)))
    h = {"up": bar.height * r, "down": bar.height * (1.0 - r)}[bar.mode]
    return h * np.exp(-((x - bar.center) / bar.half_width) ** 8)


class BarrierFormula:
    """A ramped barrier through barrier_formula, with no `constant`."""

    def __init__(self, bar):
        self.bar = bar

    def potential(self, x, u):
        return barrier_formula(self.bar, x, u)


class PerStep:
    """Wraps a feature without passing on its `constant`, so a segment
    made of these evaluates its potential on every step."""

    def __init__(self, feature):
        self.feature = feature

    def potential(self, x, u):
        return self.feature.potential(x, u)


class TestGridBridge:
    def test_input_array_is_not_frozen(self):
        a = np.zeros(4, complex)
        g = GridState(samples=a, width=1.0)
        assert a.flags.writeable
        assert not g.samples.flags.writeable
        assert np.shares_memory(g.samples, a)

    def test_round_trip_band_limited(self):
        rng = np.random.default_rng(0)
        s = random_state(G, 32, rng)
        back = to_spectral(to_grid(s, 255), 32)
        assert np.max(np.abs(back.amps - s.amps)) < 1e-12

    def test_norm_matches_integral(self):
        rng = np.random.default_rng(1)
        s = random_state(G, 16, rng)
        assert to_grid(s, 511).norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_aliasing_guards(self):
        s = random_state(G, 64, np.random.default_rng(2))
        with pytest.raises(ValueError):
            to_grid(s, 32)
        g = to_grid(s, 255)
        with pytest.raises(ValueError):
            to_spectral(g, 512)


class TestFreePropagation:
    @pytest.mark.parametrize("scheme", ["strang-split-sine", "crank-nicolson"])
    def test_half_period_matches_exact_spectral(self, scheme):
        rng = np.random.default_rng(3)
        # CN carries O(dx^2, dt^2) dispersion that grows as n^4, so its
        # comparison uses a low-lying state; the sine-basis kinetic step
        # is exact in free flight at any occupation
        n_modes = 24 if scheme == "strang-split-sine" else 4
        s = random_state(G, n_modes, rng)
        m = 1024 if scheme == "strang-split-sine" else 1023
        grid = to_grid(s, m)
        tl = PotentialTimeline([Segment(TAU / 2.0, FreeFlight())])
        out = propagate(grid, tl, PropagatorSettings(dt=TAU / 4000.0,
                                                     scheme=scheme))
        exact = to_grid(free_evolve(s, TAU / 2.0), m)
        l2 = np.sqrt(np.sum(np.abs(out.samples - exact.samples) ** 2)
                     * grid.dx)
        assert l2 < (1e-10 if scheme == "strang-split-sine" else 2e-2)

    def test_norm_is_conserved(self):
        s = random_state(G, 16, np.random.default_rng(4))
        grid = to_grid(s, 511)
        tl = PotentialTimeline([Segment(0.7 * TAU, FreeFlight())])
        out = propagate(grid, tl, PropagatorSettings(dt=TAU / 1000.0))
        assert abs(out.norm_sq() - 1.0) < 1e-10


class TestSelfConvergence:
    def test_strang_is_second_order_for_smooth_potential(self):
        s = random_state(G, 6, np.random.default_rng(5))
        grid = to_grid(s, 255)

        class Bump:
            def potential(self, x, u):
                # smooth, time-dependent, no stiff features
                return 10.0 * np.sin(np.pi * x) * (1.0 + 0.5 * np.sin(np.pi * u))

        tl = PotentialTimeline([Segment(0.2 * TAU, Bump())])

        def low_band(steps):
            # error is measured on the occupied band: the splitting can
            # resonantly excite a single empty high grid mode at special
            # step counts, which would contaminate the order fit
            st = PropagatorSettings(dt=0.2 * TAU / steps)
            return to_spectral(propagate(grid, tl, st), 32).amps

        ref = low_band(12800)
        e1 = np.linalg.norm(low_band(400) - ref)
        e2 = np.linalg.norm(low_band(800) - ref)
        order = np.log2(e1 / e2)
        assert abs(order - 2.0) < 0.1


class TestPotentialFeatures:
    def test_uniform_offset_is_a_pure_phase(self):
        s = random_state(G, 8, np.random.default_rng(6))
        grid = to_grid(s, 255)
        v0 = 3.0
        tl = PotentialTimeline([Segment(0.31 * TAU,
                                        UniformOffset(v0, -1.0, 2.0))])
        out = propagate(grid, tl, PropagatorSettings(dt=TAU / 2000.0))
        expect = to_grid(free_evolve(s, 0.31 * TAU), 255).samples \
            * np.exp(-1j * v0 * 0.31 * TAU)
        assert np.max(np.abs(out.samples - expect)) < 1e-8

    def test_high_barrier_blocks_transport(self):
        # ground state in the left half must stay there while a high
        # barrier stands in the middle
        big = WellGeometry(2.0)
        m = 1023
        grid0 = GridState(samples=np.zeros(m, complex), width=2.0)
        x = grid0.x
        psi = np.where(x < 1.0, np.sqrt(2.0) * np.sin(np.pi * x), 0.0)
        grid = grid0.with_samples(psi)
        bar = RampedBarrier(center=1.0, half_width=8 * grid.dx,
                            height=1e4, mode="hold")
        tl = PotentialTimeline([Segment(2.0 * TAU, bar)])
        out = propagate(grid, tl, PropagatorSettings(dt=TAU / 4000.0,
                                                     scheme="crank-nicolson"))
        right = float(np.sum(np.abs(out.samples[x > 1.05]) ** 2) * grid.dx)
        assert right < 1e-3

    def test_moving_wall_schedule_endpoints(self):
        w = MovingWall(start_position=2.0, stop_position=1.0, height=1e4,
                       edge_width=0.01)
        assert w.position(0.0) == pytest.approx(2.0)
        assert w.position(1.0) == pytest.approx(1.0)

    def test_barrier_ramp_modes(self):
        bar_up = RampedBarrier(1.0, 0.05, 7.0, "up")
        assert bar_up.potential(np.array([1.0]), 0.0)[0] == pytest.approx(0.0)
        assert bar_up.potential(np.array([1.0]), 1.0)[0] == pytest.approx(7.0)
        with pytest.raises(ValueError):
            RampedBarrier(1.0, 0.05, 7.0, "sideways").potential(np.array([1.0]), 0.5)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("mode", ["up", "down"])
    def test_ramp_potential_is_bitwise_the_per_step_formula(self, mode, scheme):
        # the profile is evaluated once per segment; every step's potential
        # must still be, bit for bit, the height times the profile
        grid = to_grid(random_state(G, 8, np.random.default_rng(8)), 255)
        bar = RampedBarrier(center=0.5, half_width=0.03, height=1e3, mode=mode)
        steps = 40
        seg = Segment(0.05 * TAU, bar)
        on_grid = seg.on_grid(grid.x)
        for k in range(steps):
            u = (k + 0.5) / steps
            assert np.array_equal(on_grid(u), barrier_formula(bar, grid.x, u))
        runs = []
        for feature in (bar, BarrierFormula(bar)):
            seen = []
            out = propagate(grid, PotentialTimeline([Segment(0.05 * TAU, feature)]),
                            PropagatorSettings(dt=0.05 * TAU / steps,
                                               scheme=scheme),
                            observer=lambda t, gs: seen.append(gs.samples))
            runs.append(np.array([*seen, out.samples]))
        assert np.array_equal(runs[0], runs[1])

    def test_norm_drift_guard_raises(self):
        s = random_state(G, 8, np.random.default_rng(7))
        grid = to_grid(s, 127)

        class Leak:
            def potential(self, x, u):
                # complex-free but enormous and stiff: the split-step
                # phase wraps and the drift check must fire on CN? no --
                # use an absurd dt with strang and a non-smooth feature
                return np.where(x > 0.5, 1e8, 0.0)

        tl = PotentialTimeline([Segment(0.5 * TAU, Leak())])
        st = PropagatorSettings(dt=TAU / 10.0, scheme="crank-nicolson",
                                norm_drift_tol=1e-16)
        with pytest.raises(PropagationError):
            propagate(grid, tl, st)

    def test_drift_guard_measures_each_segment_alone(self):
        # Crank-Nicolson rounding drifts the norm by ~1e-16 per step at this
        # dt, so a long segment may legitimately gather a drift that a short
        # one after it may not: the short one is judged on its own drift.
        # The long segment's offset covers half the well, so it is stepped:
        # a flat potential would be one exact jump and gather no drift
        grid = to_grid(random_state(G, 8, np.random.default_rng(7)), 127)
        long_seg = Segment(500.0 * TAU, UniformOffset(2.0, 0.5, 1.0))
        loose = PropagatorSettings(dt=TAU / 10.0, scheme="crank-nicolson",
                                   norm_drift_tol=1.0)
        drift = abs(propagate(grid, PotentialTimeline([long_seg]), loose)
                    .norm_sq() / grid.norm_sq() - 1.0)
        assert drift > 1e-13
        tl = PotentialTimeline([long_seg, Segment(0.01 * TAU, FreeFlight())])
        propagate(grid, tl, PropagatorSettings(
            dt=TAU / 10.0, scheme="crank-nicolson", norm_drift_tol=drift / 10.0))


class TestConstantSegments:
    HOLD = RampedBarrier(center=0.5, half_width=0.03, height=1e3, mode="hold")
    OFFSET = UniformOffset(height=2.0, start=0.5, stop=1.0)
    SEGMENTS = {
        "free": Segment(0.05 * TAU, FreeFlight()),
        "hold+offset": Segment(0.05 * TAU, HOLD, extra_features=(OFFSET,)),
        "wall": Segment(0.05 * TAU, MovingWall(start_position=1.05,
                                               stop_position=0.6,
                                               height=1e4, edge_width=0.01)),
        "up-ramp": Segment(0.05 * TAU, RampedBarrier(0.5, 0.03, 1e3, "up")),
        "no-attribute": Segment(0.05 * TAU, Bump()),
    }
    STEPS = 400

    def test_features_declare_constancy(self):
        assert FreeFlight().constant
        assert self.OFFSET.constant
        assert self.HOLD.constant
        for mode in ("up", "down"):
            assert not RampedBarrier(0.5, 0.03, 1e3, mode).constant
        assert not self.SEGMENTS["wall"].feature.constant
        assert not hasattr(Bump(), "constant")
        constant = {name: seg.constant for name, seg in self.SEGMENTS.items()}
        assert constant == {"free": True, "hold+offset": True, "wall": False,
                            "up-ramp": False, "no-attribute": False}
        assert not Segment(1.0, self.HOLD, extra_features=(Bump(),)).constant

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("name", sorted(SEGMENTS))
    def test_crank_nicolson_matches_per_step_reference(self, name, observed):
        seg = self.SEGMENTS[name]
        grid = to_grid(random_state(G, 8, np.random.default_rng(11)), 255)
        settings = PropagatorSettings(dt=seg.duration / self.STEPS,
                                      scheme="crank-nicolson")
        seen, ref_seen = [], []
        out = propagate(grid, PotentialTimeline([seg]), settings,
                        observer=(lambda t, gs: seen.append((t, gs.samples)))
                        if observed else None)
        ref = reference_crank_nicolson(
            grid, seg, self.STEPS,
            observer=(lambda t, gs: ref_seen.append((t, gs.samples)))
            if observed else None)
        peak = np.max(np.abs(ref))
        assert np.max(np.abs(out.samples - ref)) <= 1e-10 * peak
        assert len(seen) == len(ref_seen) == (self.STEPS if observed else 0)
        for (t, psi), (t_ref, psi_ref) in zip(seen, ref_seen):
            assert t == pytest.approx(t_ref, rel=1e-14)
            assert np.max(np.abs(psi - psi_ref)) <= 1e-10 * peak

    @pytest.mark.parametrize("scheme", ["strang-split-sine", "crank-nicolson"])
    def test_constant_segment_equals_per_step_evaluation(self, scheme):
        # evaluating a constant potential once changes where it is
        # evaluated, not one bit of the result, for the split step; the
        # factored Crank-Nicolson step matches to rounding
        grid = to_grid(random_state(G, 8, np.random.default_rng(12)), 255)
        settings = PropagatorSettings(dt=TAU / 4000.0, scheme=scheme)
        once = Segment(0.05 * TAU, self.HOLD, extra_features=(self.OFFSET,))
        per_step = Segment(0.05 * TAU, PerStep(self.HOLD),
                           extra_features=(PerStep(self.OFFSET),))
        assert once.constant and not per_step.constant
        runs = []
        for seg in (once, per_step):
            seen = []
            out = propagate(grid, PotentialTimeline([seg]), settings,
                            observer=lambda t, gs: seen.append(gs.samples))
            runs.append(np.array([*seen, out.samples]))
        if scheme == "strang-split-sine":
            assert np.array_equal(runs[0], runs[1])
        else:
            assert np.max(np.abs(runs[0] - runs[1])) <= 1e-10 * np.max(
                np.abs(runs[1]))

    @pytest.mark.parametrize("scheme", ["strang-split-sine", "crank-nicolson"])
    def test_observed_states_stay_as_observed(self, scheme):
        grid = to_grid(random_state(G, 4, np.random.default_rng(13)), 127)
        seen = []
        propagate(grid, PotentialTimeline([Segment(0.01 * TAU, FreeFlight())]),
                  PropagatorSettings(dt=TAU / 1000.0, scheme=scheme),
                  observer=lambda t, gs: seen.append((gs, gs.samples.copy())))
        assert len(seen) == 10
        for gs, copy in seen:
            assert np.array_equal(gs.samples, copy)


def wall_grid(m, width=2.0, seed=31):
    """A random 8-level state of a width-`width` well on m points."""
    state = random_state(WellGeometry(width), 8, np.random.default_rng(seed))
    return to_grid(state, m)


class TestMovingWallFactors:
    """A wall-only Crank-Nicolson segment refactors only the wall's edge
    rows; every step must still give the bits of a zgtsv over all rows."""

    DX = 2.0 / 1024

    @staticmethod
    def count_full_potentials(monkeypatch):
        """A list that grows at every evaluation of a MovingWall's potential
        on all rows, which only a step that falls back makes."""
        calls = []
        potential = MovingWall.potential

        def counted(self, x, u):
            calls.append(u)
            return potential(self, x, u)

        monkeypatch.setattr(MovingWall, "potential", counted)
        return calls

    def check_bitwise(self, grid, seg, nsteps, stride=1, calls=()):
        """Asserts that propagate gives the zgtsv loop's bits, observed
        states included; returns len(calls) after propagate alone."""
        seen = []
        out = propagate(grid, PotentialTimeline([seg]),
                        PropagatorSettings(dt=seg.duration / nsteps,
                                           scheme="crank-nicolson"),
                        observer=lambda t, gs: seen.append((t, gs.samples)),
                        stride=stride)
        fell_back = len(calls)
        ref_seen = []
        ref = zgtsv_crank_nicolson(
            grid, seg, nsteps,
            observer=lambda t, gs: ref_seen.append((t, gs.samples)))
        assert np.array_equal(out.samples, ref)
        expected = ref_seen[stride - 1::stride]
        assert len(seen) == len(expected) == nsteps // stride
        for (t, psi), (t_ref, psi_ref) in zip(seen, expected):
            assert t == pytest.approx(t_ref, rel=1e-14)
            assert np.array_equal(psi, psi_ref)
        return fell_back

    @pytest.mark.parametrize("case", ["left", "right", "clipped", "stride"])
    def test_wall_is_bitwise_the_full_solve(self, case, monkeypatch):
        dx = self.DX
        m, seg, nsteps, stride = {
            # the protocol's wall at m=1023, tau/8000, over 0.25 tau
            "left": (1023, Segment(0.25 * TAU, MovingWall(
                2.0 + 8 * dx, 1.05, 1e5, dx)), 2000, 1),
            # moving right, a 3 dx edge, several rows a step: rows that the
            # edge leaves are free again
            "right": (127, Segment(0.05 * TAU, MovingWall(
                0.3, 1.6, 1e4, 3 * 2.0 / 128)), 20, 1),
            # from beyond the grid's end to near x=0: the edge is cut short
            # at both ends
            "clipped": (255, Segment(0.05 * TAU, MovingWall(
                2.5, 0.02, 1e4, 2.0 / 256)), 400, 1),
            # from mid-grid: the first step fills the rows ahead
            "stride": (255, Segment(0.05 * TAU, MovingWall(
                1.5, 0.5, 1e4, 2.0 / 256)), 400, 7),
        }[case]
        calls = self.count_full_potentials(monkeypatch)
        assert self.check_bitwise(wall_grid(m), seg, nsteps, stride, calls) == 0

    @pytest.mark.parametrize("case", ["wall+offset", "up", "down"])
    def test_other_varying_segments_are_bitwise_the_full_solve(self, case):
        seg = {
            "wall+offset": Segment(0.05 * TAU, MovingWall(2.1, 0.8, 1e4, 0.01),
                                   extra_features=(UniformOffset(
                                       3.0, 1.0, 2.0),)),
            "up": Segment(0.05 * TAU, RampedBarrier(1.0, 0.03, 1e3, "up")),
            "down": Segment(0.05 * TAU, RampedBarrier(1.0, 0.03, 1e3, "down")),
        }[case]
        self.check_bitwise(wall_grid(255), seg, 400)

    @pytest.mark.parametrize("case", ["low", "negative"])
    def test_fallback_is_bitwise_the_full_solve(self, case, monkeypatch):
        dx = self.DX
        if case == "low":
            # the wall of test_low_wall_warns: its pivots settle too slowly
            # for the tail
            e_max = G.omega0() * 8 ** 2
            wall = MovingWall(2.0 + 8 * dx, 1.0 + 0.5 * dx * np.log(50.0 / e_max),
                              50.0, dx)
            nsteps = 200
        else:
            # not diagonally dominant: zgttrf interchanges rows at the edge
            wall = MovingWall(2.0 + 8 * dx, 1.0, -1e5, dx)
            nsteps = 200
        calls = self.count_full_potentials(monkeypatch)
        seg = Segment(nsteps * TAU / 4000.0, wall)
        assert self.check_bitwise(wall_grid(1023), seg, nsteps, calls=calls) > 0

    def test_edge_rows_are_bitwise_the_potential(self):
        # np.tanh is exactly +-1 this many edge widths out and beyond
        z = np.linspace(dynamics._EDGE_WIDTHS, 60.0, 400001)
        assert np.all(np.tanh(z) == 1.0) and np.all(np.tanh(-z) == -1.0)
        x = GridState(np.zeros(255), width=2.0).x
        wall = MovingWall(start_position=2.4, stop_position=-0.3,
                          height=1e4, edge_width=2.0 / 256)
        us = [(k + 0.5) / 300 for k in range(300)]
        firsts, v = wall._edges(x, us)
        rows = v.shape[1]
        assert rows >= 40
        for u, first, edge in zip(us, firsts, v):
            xw = wall.position(u)
            full = wall.height * 0.5 * (1.0 + np.tanh((x - xw) / wall.edge_width))
            assert np.array_equal(wall.potential(x, u), full)
            inside = full[first:first + rows]
            assert np.array_equal(edge[:inside.size], inside)
            assert np.all(full[:first] == 0.0)
            assert np.all(full[first + rows:] == wall.height)

    @pytest.mark.parametrize("edge_width", [0.0, -0.01])
    def test_edge_width_must_be_positive(self, edge_width):
        with pytest.raises(ValueError, match="edge_width"):
            MovingWall(2.0, 1.0, 1e4, edge_width)


class TestFlatSegments:
    """A constant segment with a flat potential is a jump in the DST-I
    basis, in both schemes."""

    DT = TAU / 4000.0
    FLAT = {"free": FreeFlight(), "offset": UniformOffset(3.0, -1.0, 2.0)}
    HOLD, OFFSET = TestConstantSegments.HOLD, TestConstantSegments.OFFSET

    @pytest.mark.parametrize("flat", sorted(FLAT))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_jump_matches_stepped_reference(self, scheme, flat):
        grid = to_grid(random_state(G, 8, np.random.default_rng(21)), 255)
        seg = Segment(400 * self.DT, self.FLAT[flat])
        out = propagate(grid, PotentialTimeline([seg]),
                        PropagatorSettings(dt=self.DT, scheme=scheme))
        _, ref = reference_run(grid, [seg], [400], scheme)
        assert np.max(np.abs(out.samples - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_stride_counts_steps_over_the_timeline(self, scheme, stride):
        # flat and stepped segments alternate, none a multiple of 7 long
        grid = to_grid(random_state(G, 8, np.random.default_rng(22)), 255)
        nsteps = [10, 13, 12, 9]
        segments = [Segment(10 * self.DT, self.FLAT["free"]),
                    Segment(13 * self.DT, Bump()),
                    Segment(12 * self.DT, self.FLAT["offset"]),
                    Segment(9 * self.DT, self.HOLD,
                            extra_features=(self.OFFSET,))]
        seen = []
        out = propagate(grid, PotentialTimeline(segments),
                        PropagatorSettings(dt=self.DT, scheme=scheme),
                        observer=lambda t, gs: seen.append((t, gs.samples)),
                        stride=stride)
        ref_seen, ref = reference_run(grid, segments, nsteps, scheme)
        expected = ref_seen[stride - 1::stride]
        assert len(seen) == len(expected) == sum(nsteps) // stride
        peak = np.max(np.abs(ref))
        for (t, psi), (t_ref, psi_ref) in zip(seen, expected):
            assert t == pytest.approx(t_ref, rel=1e-14)
            assert np.max(np.abs(psi - psi_ref)) <= 1e-10 * peak
        assert np.max(np.abs(out.samples - ref)) <= 1e-10 * peak

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_only_flat_segments_jump(self, scheme, monkeypatch):
        # a jump costs one transform in, one per observed state and one
        # out; a stepped split step costs two per step, Crank-Nicolson none
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return dst(*args, **kwargs)

        monkeypatch.setattr(dynamics, "dst", counted)
        grid = to_grid(random_state(G, 4, np.random.default_rng(23)), 127)
        settings = PropagatorSettings(dt=self.DT, scheme=scheme)
        for feature in self.FLAT.values():
            del calls[:]
            propagate(grid, PotentialTimeline([Segment(400 * self.DT, feature)]),
                      settings, observer=lambda t, gs: None, stride=7)
            assert len(calls) == 1 + 400 // 7 + 1
        del calls[:]
        propagate(grid, PotentialTimeline([Segment(
            400 * self.DT, self.HOLD, extra_features=(self.OFFSET,))]), settings)
        assert len(calls) == (800 if scheme == "strang-split-sine" else 0)

    @pytest.mark.parametrize("stride", [0, -3, 2.5, "7", None])
    def test_stride_must_be_a_positive_integer(self, stride):
        grid = to_grid(basis_state(1, G, 4), 63)
        tl = PotentialTimeline([Segment(10 * self.DT, FreeFlight())])
        with pytest.raises(ValueError, match="stride.*" + re.escape(repr(stride))):
            propagate(grid, tl, PropagatorSettings(dt=self.DT),
                      observer=lambda t, gs: None, stride=stride)


class TestCarpet:
    def test_shape_and_initial_row(self):
        s = basis_state(1, G, 4)
        grid = to_grid(s, 255)
        tl = PotentialTimeline([Segment(TAU / 4.0, FreeFlight())])
        t, x, rows = carpet(grid, tl, PropagatorSettings(dt=TAU / 512.0),
                            time_samples=16, space_samples=64)
        assert rows.shape == (16, 64)
        assert t[0] == 0.0 and t[-1] == pytest.approx(TAU / 4.0)
        assert np.allclose(rows[0], np.abs(grid.samples[
            np.linspace(0, 254, 64).round().astype(int)]) ** 2)

    def test_revival_structure(self):
        # density at the full revival equals the initial density
        s = basis_state(2, G, 4).with_amps([0.6, 0.8, 0.0, 0.0])
        grid = to_grid(s, 255)
        tl = PotentialTimeline([Segment(TAU, FreeFlight())])
        t, x, rows = carpet(grid, tl, PropagatorSettings(dt=TAU / 2048.0),
                            time_samples=9, space_samples=128)
        assert np.max(np.abs(rows[-1] - rows[0])) < 1e-8

    @pytest.mark.parametrize("scheme", ["strang-split-sine", "crank-nicolson"])
    def test_rows_sit_at_their_labelled_times(self, scheme):
        # 16 rows over TAU/4 at dt = TAU/512 are 8.53 steps apart
        s = random_state(G, 3, np.random.default_rng(5))
        grid = to_grid(s, 255)
        tl = PotentialTimeline([Segment(TAU / 4.0, FreeFlight())])
        t, x, rows = carpet(grid, tl, PropagatorSettings(dt=TAU / 512.0,
                                                         scheme=scheme),
                            time_samples=16)
        exact = np.array([np.abs(to_grid(free_evolve(s, ti), 255).samples) ** 2
                          for ti in t])
        # the sine-basis split step is exact in free flight; CN carries a
        # small dispersion error, far below what one step of delay costs
        tol = 1e-10 if scheme == "strang-split-sine" else 4e-3
        assert np.max(np.abs(rows - exact)) < tol * np.max(exact)

    def test_segment_boundary_between_samples_rejected(self):
        grid = to_grid(basis_state(1, G, 4), 63)
        tl = PotentialTimeline([Segment(TAU / 4.0, FreeFlight()),
                                Segment(TAU / 8.0, FreeFlight())])
        with pytest.raises(ValueError, match="between sample times"):
            carpet(grid, tl, PropagatorSettings(dt=TAU / 512.0), time_samples=3)
        t, _, rows = carpet(grid, tl, PropagatorSettings(dt=TAU / 512.0),
                            time_samples=4)
        assert rows.shape[0] == t.size == 4

    @pytest.mark.parametrize("space_samples", [0, -2])
    def test_space_samples_must_be_positive(self, space_samples):
        grid = to_grid(basis_state(1, G, 4), 63)
        tl = PotentialTimeline([Segment(TAU / 4.0, FreeFlight())])
        with pytest.raises(ValueError, match="space sample"):
            carpet(grid, tl, PropagatorSettings(dt=TAU / 512.0),
                   time_samples=3, space_samples=space_samples)


    def test_space_samples_beyond_the_grid_rejected(self):
        # more columns than grid points would repeat positions
        grid = to_grid(basis_state(1, G, 4), 63)
        tl = PotentialTimeline([Segment(TAU / 4.0, FreeFlight())])
        settings = PropagatorSettings(dt=TAU / 512.0)
        with pytest.raises(ValueError, match="space samples"):
            carpet(grid, tl, settings, time_samples=3, space_samples=64)
        _, x, rows = carpet(grid, tl, settings, time_samples=3, space_samples=63)
        assert rows.shape == (3, 63)
        assert np.unique(x).size == 63


class TestDynamicProtocol:
    def test_reference_run_doubles_ground_state(self):
        s = basis_state(1, G, 8)
        final, report = run_dynamic_protocol(s, DynamicKnobs())
        assert report.fidelity > 0.998
        assert report.odd_level_leakage < 5e-3
        assert not report.warnings
        assert abs(final.amps[1]) ** 2 > 0.99

    def test_step_norms_monotone_bookkeeping(self):
        s = basis_state(1, G, 8)
        _, report = run_dynamic_protocol(
            s, DynamicKnobs(compression_time=10.0, dt=TAU / 4000.0))
        for label in ("expand", "mirror-evolve", "split", "phase", "merge",
                      "compress", "project"):
            assert label in report.step_norms
        assert report.step_norms["compress"] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_unnormalizable_input_rejected(self, bad):
        s = basis_state(1, G, 4).with_amps([bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-zero norm"):
            run_dynamic_protocol(s, DynamicKnobs(m=63))

    def test_even_grid_size_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            run_dynamic_protocol(basis_state(1, G, 4), DynamicKnobs(m=256))

    def test_low_wall_warns(self):
        s = basis_state(1, G, 8)
        _, report = run_dynamic_protocol(
            s, DynamicKnobs(compression_time=10.0, wall_height=50.0,
                            dt=TAU / 4000.0))
        assert report.warnings

    @pytest.mark.parametrize("name", ["compression_time", "barrier_ramp_time",
                                      "wall_edge_width_dx", "dt",
                                      "barrier_height", "barrier_half_width",
                                      "wall_height"])
    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_non_positive_knob_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            DynamicKnobs(**{name: bad})

    def test_split_step_phase_wrap_warns(self):
        s = basis_state(1, G, 4)
        knobs = DynamicKnobs(compression_time=0.05, dt=TAU / 500.0, m=63)
        _, report = run_dynamic_protocol(s, knobs, scheme="strang-split-sine")
        wraps = [w for w in report.warnings if "exceeds pi" in w]
        assert len(wraps) == 2
        assert wraps[0].startswith("wall_height*dt/hbar")
        assert wraps[1].startswith("barrier_height*dt/hbar")
        _, report = run_dynamic_protocol(s, knobs)
        assert not [w for w in report.warnings if "exceeds pi" in w]
        low = replace(knobs, wall_height=1e3, barrier_height=1e2)
        _, report = run_dynamic_protocol(s, low, scheme="strang-split-sine")
        assert not [w for w in report.warnings if "exceeds pi" in w]
