"""Spectral core: eigenmodes, exact overlaps, free evolution, parity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hotelsim.well import (DomainError, GeometryError, NATURAL,
                           PhysicalConstants, SpectralState, WellGeometry,
                           basis_state, eigenfunction, evaluate, free_evolve,
                           mirror, mode_overlap_matrix, project, random_state,
                           rebase)
from hotelsim.protocol import oracle_score

G = WellGeometry(1.0)
TAU = 2.0 * np.pi / G.omega0()


def quad_overlap(n, gn, m, gm, points=20001):
    """Quadrature oracle for <target m | source n> on the intersection."""
    x0 = max(gn.origin, gm.origin)
    x1 = min(gn.end, gm.end)
    x = np.linspace(x0, x1, points)
    return np.trapezoid(eigenfunction(m, x, gm) * eigenfunction(n, x, gn), x)


def gauss_overlap(source, n_source, target, n_target, panels=64, order=64):
    """Composite Gauss-Legendre <target m | source n> on the intersection."""
    x0 = max(source.origin, target.origin)
    x1 = min(source.end, target.end)
    t, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(x0, x1, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = (edges[:-1, None] + half * (t + 1.0)).ravel()
    weights = (half * w).ravel()

    def modes(g, n):
        return np.array([eigenfunction(k, x, g) for k in range(1, n + 1)])

    return (modes(target, n_target) * weights) @ modes(source, n_source).T


def sinc_overlap(source, n_source, target, n_target):
    """The product-to-sum overlap formula that the closed form replaced."""
    def cos_integral(c, d, x0, x1):
        # exact integral of cos(c x + d) over [x0, x1], stable as c -> 0
        dx = x1 - x0
        return dx * np.sinc(0.5 * c * dx / np.pi) * np.cos(c * 0.5 * (x0 + x1) + d)

    x0 = max(source.origin, target.origin)
    x1 = min(source.end, target.end)
    ks = np.pi * np.arange(1, n_source + 1)[None, :] / source.width
    kt = np.pi * np.arange(1, n_target + 1)[:, None] / target.width
    ps, pt = -ks * source.origin, -kt * target.origin
    integral = 0.5 * (cos_integral(ks - kt, ps - pt, x0, x1)
                      - cos_integral(ks + kt, ps + pt, x0, x1))
    return np.sqrt(4.0 / (source.width * target.width)) * integral


class TestGeometry:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            WellGeometry(0.0)
        with pytest.raises(ValueError):
            WellGeometry(-1.0)

    def test_omega0_scales_inverse_square(self):
        assert np.isclose(WellGeometry(2.0).omega0(), G.omega0() / 4.0)

    def test_omega0_natural_units_value(self):
        # hbar pi^2 / (2 m W^2) with hbar = m = W = 1
        assert np.isclose(G.omega0(), np.pi ** 2 / 2.0, rtol=0, atol=1e-15)

    def test_containment(self):
        assert WellGeometry(2.0).contains(G)
        assert not G.contains(WellGeometry(2.0))

    def test_containment_slack_scales_with_width(self):
        # 4e-13 is 0.04 % of a 1e-9 well; 1e-9 is 1e-15 of a 1e6 well
        tiny = WellGeometry(1e-9)
        assert not tiny.contains(WellGeometry(1e-9, origin=4e-13))
        assert not tiny.contains(WellGeometry(1e-9, origin=-4e-13))
        assert tiny.contains(WellGeometry(0.5e-9, origin=0.5e-9))
        huge = WellGeometry(1e6)
        assert huge.contains(WellGeometry(1e6, origin=1e-9))
        assert huge.contains(WellGeometry(1e6, origin=-1e-9))
        assert not huge.contains(WellGeometry(1e6, origin=1e-3))


class TestEigenfunctions:
    def test_orthonormality_by_quadrature(self):
        for n in (1, 2, 5):
            for m in (1, 2, 5):
                want = 1.0 if n == m else 0.0
                assert abs(quad_overlap(n, G, m, G) - want) < 1e-8

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            eigenfunction(1, np.array([1.5]), G)

    def test_energy_ladder(self):
        # -(hbar^2 / 2 mass) h_n'' = hbar omega0 n^2 h_n, by central differences
        c = PhysicalConstants(hbar=2.0, mass=0.5)
        x, h = np.linspace(0.05, 0.95, 19), 1e-4
        for n in range(1, 6):
            psi = eigenfunction(n, x, G)
            d2 = (eigenfunction(n, x + h, G) - 2.0 * psi
                  + eigenfunction(n, x - h, G)) / h ** 2
            e_n = c.hbar * G.omega0(c) * n ** 2
            assert np.max(np.abs(-c.hbar ** 2 / (2.0 * c.mass) * d2 - e_n * psi)) \
                <= 1e-5 * e_n * np.max(np.abs(psi))


class TestFreeEvolution:
    def test_full_revival_identity(self):
        rng = np.random.default_rng(7)
        s = random_state(G, 32, rng)
        # e^{-i omega0 n^2 T} = 1 at T = 2 pi / omega0
        back = free_evolve(s, TAU)
        assert np.max(np.abs(back.amps - s.amps)) < 1e-13

    def test_half_period_is_mirror(self):
        rng = np.random.default_rng(8)
        s = random_state(G, 32, rng)
        half = free_evolve(s, TAU / 2.0)
        # e^{-i pi n^2} = (-1)^n = - (-1)^{n+1}: parity up to a sign
        m = mirror(s)
        assert np.max(np.abs(half.amps + m.amps)) < 1e-13

    def test_phase_accuracy_at_large_quantum_number(self):
        s = basis_state(4096, G, 4096)
        out = free_evolve(s, TAU)
        # naive phase accumulation would lose ~n^2 * eps ~ 1e-9 here
        assert abs(out.amps[-1] - 1.0) < 1e-12

    def test_mirror_involution(self):
        rng = np.random.default_rng(9)
        s = random_state(G, 16, rng)
        assert np.allclose(mirror(mirror(s)).amps, s.amps)


class TestOverlapMatrix:
    def test_matches_quadrature_same_well(self):
        S = mode_overlap_matrix(G, 6, G, 6)
        assert np.max(np.abs(S - np.eye(6))) <= 1e-15

    def test_matches_quadrature_nested_wells(self):
        big = WellGeometry(2.0)
        S = mode_overlap_matrix(G, 4, big, 9)
        for m in range(1, 10):
            for n in range(1, 5):
                assert abs(S[m - 1, n - 1] - quad_overlap(n, G, m, big)) < 1e-8

    def test_shifted_subwell(self):
        right = WellGeometry(1.0, origin=1.0)
        big = WellGeometry(2.0)
        S = mode_overlap_matrix(right, 3, big, 8)
        for m in range(1, 9):
            for n in range(1, 4):
                assert abs(S[m - 1, n - 1] - quad_overlap(n, right, m, big)) < 1e-8

    @pytest.mark.parametrize("source, n_source, target, n_target", [
        (G, 64, WellGeometry(2.0), 256),                       # nested
        (WellGeometry(1.0, origin=1.0), 64, WellGeometry(2.0), 256),  # shifted
        (WellGeometry(2.0), 256, WellGeometry(1.0, origin=0.5), 128),  # wide -> narrow
        (G, 200, WellGeometry(1.4, origin=0.3), 256),         # partial overlap
        (WellGeometry(2.0, origin=-0.5), 256, WellGeometry(3.0, origin=0.25), 256),
    ] + [(G, 256, WellGeometry(1.0 / p, origin=j / p), 256 // p)
         for p in (3, 5, 7) for j in range(p)])               # sub-wells
    def test_matches_gauss_legendre_quadrature(self, source, n_source,
                                               target, n_target):
        want = gauss_overlap(source, n_source, target, n_target)
        # every entry, resonant ones (k_target = k_source) among them
        m = np.arange(1, n_target + 1)[:, None] * source.width
        n = np.arange(1, n_source + 1)[None, :] * target.width
        assert np.any(np.isclose(m, n, rtol=1e-12, atol=0))
        got = mode_overlap_matrix(source, n_source, target, n_target)
        assert np.max(np.abs(got - want)) <= 1e-12
        back = mode_overlap_matrix(target, n_target, source, n_source)
        assert np.max(np.abs(back - want.T)) <= 1e-12

    @pytest.mark.parametrize("p, n_big, n_sub", [(2, 8192, 128), (3, 12288, 8)])
    def test_matches_the_sinc_formula_it_replaces(self, p, n_big, n_sub):
        # the AC1 (p = 2) and AC4 (p = 3) geometries, both directions
        big = WellGeometry(float(p))
        for j in range(p):
            sub = WellGeometry(1.0, origin=float(j))
            for args in ((sub, n_sub, big, n_big), (big, n_big, sub, n_sub)):
                err = np.max(np.abs(mode_overlap_matrix(*args) - sinc_overlap(*args)))
                assert err <= 1e-13

    def test_each_pair_of_wells_is_built_once(self):
        # geometries no other test uses, so each pair starts uncached
        a, b = WellGeometry(1.25, origin=0.125), WellGeometry(2.5, origin=-0.5)
        c = WellGeometry(0.75, origin=1.0)
        for first, second in (((a, 40, b, 96), (b, 96, a, 40)),
                              ((b, 96, c, 24), (c, 24, b, 96))):
            misses = mode_overlap_matrix.cache_info().misses
            one = mode_overlap_matrix(*first)
            other = mode_overlap_matrix(*second)
            assert mode_overlap_matrix.cache_info().misses == misses + 1
            assert np.shares_memory(one, other)
            assert np.array_equal(other, one.T)
            for S in (one, other):
                assert S.dtype == np.float64
                assert not S.flags.writeable

    def test_disjoint_wells_give_zero(self):
        far = WellGeometry(1.0, origin=5.0)
        assert np.all(mode_overlap_matrix(G, 3, far, 3) == 0.0)

    def test_isometry_on_padded_subspace(self):
        # a well state embedded in a larger well keeps its norm in the
        # limit of many target modes; 1/m^2 coefficient decay gives a
        # small, strictly positive tail at finite truncation
        big = WellGeometry(2.0)
        s = basis_state(1, G, 1)
        for n_big, tol in ((64, 1e-3), (1024, 1e-5)):
            r = rebase(s, big, n_big)
            assert 0.0 < 1.0 - np.sum(np.abs(r.amps) ** 2) < tol


class TestProjection:
    def test_rebase_requires_containment(self):
        with pytest.raises(DomainError):
            rebase(basis_state(1, WellGeometry(2.0), 1), G, 8)

    def test_rebase_then_evaluate_agrees(self):
        rng = np.random.default_rng(11)
        s = random_state(G, 8, rng)
        big = WellGeometry(2.0)
        r = rebase(s, big, 2048)
        x = np.linspace(0.05, 0.95, 7)
        assert np.max(np.abs(evaluate(r, x) - evaluate(s, x))) < 1e-4

    def test_overlap_geometry_guard(self):
        with pytest.raises(GeometryError):
            oracle_score(basis_state(1, G, 2),
                         basis_state(1, WellGeometry(2.0), 2), 1)

    def test_fidelity_of_identical_states(self):
        # the p = 1 oracle is the identity
        rng = np.random.default_rng(12)
        s = random_state(G, 8, rng)
        assert abs(oracle_score(s, s, 1)[0] - 1.0) < 1e-12

    def test_project_matches_complex_product_and_keeps_cache_real(self):
        big = WellGeometry(2.0, origin=-0.5)
        s = random_state(G, 128, np.random.default_rng(8))
        want = mode_overlap_matrix(G, 128, big, 512).astype(complex) @ s.amps
        got = project(s, big, 512).amps
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        S = mode_overlap_matrix(G, 128, big, 512)
        assert S.dtype == np.float64
        assert not S.flags.writeable


class TestSerialization:
    def test_amps_are_immutable(self):
        s = basis_state(1, G, 4)
        with pytest.raises(ValueError):
            s.amps[0] = 2.0


class TestStateArrays:
    def test_input_array_is_not_frozen(self):
        a = np.zeros(4, complex)
        s = SpectralState(geometry=G, amps=a)
        assert a.flags.writeable
        assert not s.amps.flags.writeable
        assert np.shares_memory(s.amps, a)


class TestConstants:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PhysicalConstants(hbar=0.0)

    def test_omega0_with_nonnatural_units(self):
        c = PhysicalConstants(hbar=2.0, mass=0.5)
        assert np.isclose(G.omega0(c), 2.0 * np.pi ** 2 / (2.0 * 0.5))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31), n=st.integers(2, 64),
       t=st.floats(0.0, 10.0, allow_nan=False))
def test_free_evolution_preserves_every_amplitude_magnitude(seed, n, t):
    s = random_state(G, n, np.random.default_rng(seed))
    out = free_evolve(s, t)
    assert np.allclose(np.abs(out.amps), np.abs(s.amps), atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31), n=st.integers(2, 32))
def test_projection_never_gains_norm(seed, n):
    s = random_state(G, n, np.random.default_rng(seed))
    half = WellGeometry(0.5, origin=0.25)
    p = project(s, half, 64)
    assert np.sum(np.abs(p.amps) ** 2) <= 1.0 + 1e-12
