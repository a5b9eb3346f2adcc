"""Tests for the small/large-field decomposition and corridor regions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmagap import cli, regions
from sigmagap.model import ModelParams
from sigmagap.regions import (
    FieldConfig,
    LatticeGeometry,
    build_regions,
    classify_squares,
    large_field_suppression,
    smooth_step,
    square_distance,
    window_weights,
)


def make_params(lam=1.0, bigK=1.0, bigN=4096, m=0.3, corridorM=3.0):
    return ModelParams(lam=lam, bigK=bigK, bigN=bigN,
                       g=math.sqrt(lam * bigK / bigN), m=m,
                       epsilon=bigN ** -0.4, corridorM=corridorM)


def config_with_masses(geometry, masses_by_corner):
    """Build a FieldConfig whose per-square masses equal the given values
    (constant field per square; zero elsewhere)."""
    side = geometry.sites_per_side
    tau = np.zeros((side, side))
    s = geometry.sites_per_square
    for (i, j), mass in masses_by_corner.items():
        bi, bj = i + geometry.n, j + geometry.n
        tau[bi * s:(bi + 1) * s, bj * s:(bj + 1) * s] = math.sqrt(mass)
    return FieldConfig.from_tau(geometry, tau)


class TestSmoothStep:
    def test_outside_values(self):
        assert smooth_step(-0.3) == 0.0
        assert smooth_step(-0.25) == 0.0
        assert smooth_step(0.25) == 1.0
        assert smooth_step(0.3) == 1.0

    def test_midpoint(self):
        assert smooth_step(0.0) == pytest.approx(0.5, abs=1e-13)

    def test_symmetry(self):
        for x in (0.05, 0.1, 0.2, 0.24):
            assert smooth_step(x) + smooth_step(-x) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        xs = np.linspace(-0.3, 0.3, 121)
        vals = [smooth_step(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_range(self):
        for x in np.linspace(-0.5, 0.5, 41):
            assert 0.0 <= smooth_step(x) <= 1.0

    def test_only_the_quadrature_branch_is_cached(self):
        # arguments outside (-1/4, 1/4) return their constant without
        # entering the cache; inside, a repeated argument is a hit
        cache = regions._smooth_step_inside
        cache.cache_clear()
        for x in np.linspace(-3.0, 3.0, 1001):
            if abs(x) >= 0.25:
                smooth_step(x)
        assert cache.cache_info().currsize == 0
        assert smooth_step(np.float64(0.1)) == smooth_step(0.1)
        info = cache.cache_info()
        assert (info.hits, info.misses) == (1, 1)


class TestGeometry:
    def test_square_count(self):
        geo = LatticeGeometry(n=3)
        assert geo.num_squares == 36
        assert len(geo.squares) == 36
        assert min(c[0] for c in geo.squares) == -3
        assert max(c[0] for c in geo.squares) == 2

    def test_site_coordinates_centered(self):
        geo = LatticeGeometry(n=2, sites_per_square=4)
        x = geo.site_coordinates()
        assert len(x) == 16
        assert x[0] == pytest.approx(-2 + 0.125)
        np.testing.assert_allclose(x + x[::-1], 0.0, atol=1e-15)

    def test_blocks_and_widen_share_the_layout(self):
        # widen copies square k's value to the sites blocks puts under
        # square k, and those sites lie in that unit square
        geo = LatticeGeometry(n=2, sites_per_square=3)
        sites = geo.widen(np.arange(geo.num_squares))
        blocks = geo.blocks(sites)
        assert np.shares_memory(blocks, sites)
        x = geo.blocks(np.repeat(geo.site_coordinates(), geo.sites_per_side))
        for k, (i, j) in enumerate(geo.squares):
            assert np.all(blocks[i + geo.n, :, j + geo.n] == k)
            assert np.all((x[i + geo.n, :, j + geo.n] > i)
                          & (x[i + geo.n, :, j + geo.n] < i + 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeGeometry(n=0)
        with pytest.raises(ValueError):
            LatticeGeometry(n=1, sites_per_square=0)


class TestFieldConfig:
    def test_masses_match_direct_sum(self):
        rng = np.random.default_rng(7)
        geo = LatticeGeometry(n=2, sites_per_square=3)
        tau = rng.normal(size=(geo.sites_per_side, geo.sites_per_side))
        cfg = FieldConfig.from_tau(geo, tau)
        w = geo.site_weight
        for k, (i, j) in enumerate(geo.squares):
            bi, bj = i + geo.n, j + geo.n
            s = geo.sites_per_square
            block = tau[bi * s:(bi + 1) * s, bj * s:(bj + 1) * s]
            assert cfg.square_masses[k] == pytest.approx(
                np.sum(block ** 2) * w, rel=1e-12)

    def test_shape_validation(self):
        geo = LatticeGeometry(n=1)
        with pytest.raises(ValueError):
            FieldConfig.from_tau(geo, np.zeros((3, 3)))

    def test_constant_block_mass(self):
        geo = LatticeGeometry(n=1)
        cfg = config_with_masses(geo, {(0, 0): 5.0})
        assert cfg.mass_of((0, 0)) == pytest.approx(5.0, rel=1e-12)
        assert cfg.mass_of((-1, -1)) == 0.0


class TestClassification:
    def test_zero_field_all_small(self):
        geo = LatticeGeometry(n=2)
        cfg = config_with_masses(geo, {})
        asg = classify_squares(cfg, make_params())
        assert np.all(asg.labels == 0)
        np.testing.assert_allclose(asg.theta_s, 1.0)
        np.testing.assert_allclose(asg.theta_n, 0.0)

    def test_support_boundary(self):
        # u = (3/4) N^(1/6) sits exactly at the edge of the l-window support
        bigN = 4096
        theta_s, theta_n = window_weights(0.75 * bigN ** (1 / 6), bigN, 3)
        assert theta_s == 1.0
        np.testing.assert_allclose(theta_n, 0.0)

    def test_l2_example(self):
        # N = 4096, lam*K = 1, one square mass 2 N^(2/6): an l^2 square
        bigN = 4096
        geo = LatticeGeometry(n=1)
        mass = 2.0 * bigN ** (2 / 6)
        cfg = config_with_masses(geo, {(0, 0): mass})
        asg = classify_squares(cfg, make_params(bigN=bigN))
        k = geo.square_index[(0, 0)]
        assert asg.labels[k] == 2
        # direct inequality check for the n=2 window
        u = mass
        assert 0.75 * bigN ** (2 / 6) <= u < 1.25 * bigN ** (3 / 6)

    def test_window_support_invariants(self):
        bigN = 10**6
        rng = np.random.default_rng(3)
        for u in 10.0 ** rng.uniform(-1, 5, size=200):
            theta_s, theta_n = window_weights(u, bigN, 6)
            for n, w in enumerate(theta_n, start=1):
                if w > 0:
                    assert u > 0.75 * bigN ** (n / 6)
                    assert u < 1.25 * bigN ** ((n + 1) / 6)
            if theta_s > 0:
                assert u < 1.25 * bigN ** (1 / 6)

    def test_partition_of_unity_1000(self):
        bigN = 10**6
        rng = np.random.default_rng(11)
        u = 10.0 ** rng.uniform(-2, 6, size=1000)
        for uk in u:
            theta_s, theta_n = window_weights(uk, bigN, 7)
            assert theta_s + theta_n.sum() == pytest.approx(1.0, abs=1e-12)

    def test_at_most_two_consecutive_windows(self):
        bigN = 10**6
        for u in 10.0 ** np.linspace(-1, 6, 400):
            _, theta_n = window_weights(u, bigN, 7)
            nz = np.nonzero(theta_n > 0)[0]
            assert len(nz) <= 2
            if len(nz) == 2:
                assert nz[1] == nz[0] + 1

    def test_hard_label_matches_threshold(self):
        bigN = 4096
        geo = LatticeGeometry(n=1)
        thr = bigN ** (1 / 6)
        cfg = config_with_masses(geo, {(0, 0): thr * 0.999, (0, -1): thr * 1.001})
        asg = classify_squares(cfg, make_params(bigN=bigN))
        assert asg.labels[geo.square_index[(0, 0)]] == 0
        assert asg.labels[geo.square_index[(0, -1)]] >= 1

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e7))
    def test_partition_property(self, u):
        theta_s, theta_n = window_weights(u, 10**6, 8)
        assert abs(theta_s + theta_n.sum() - 1.0) < 1e-12


class TestSquareDistance:
    def test_examples(self):
        assert square_distance((0, 0), (0, 0)) == 0.0
        assert square_distance((0, 0), (1, 0)) == 0.0
        assert square_distance((0, 0), (1, 1)) == 0.0
        assert square_distance((0, 0), (2, 0)) == 1.0
        assert square_distance((0, 0), (2, 2)) == pytest.approx(math.sqrt(2))
        assert square_distance((0, 0), (-3, 4)) == pytest.approx(math.hypot(2, 3))

    def test_array_form_equals_hypot_bit_for_bit(self):
        squares = LatticeGeometry(n=5).squares
        corners = np.array(squares)
        table = square_distance(corners[:, None], corners[None, :])
        assert table.shape == (len(squares), len(squares))
        scalar = [[math.hypot(max(0.0, abs(a[0] - b[0]) - 1.0),
                              max(0.0, abs(a[1] - b[1]) - 1.0))
                   for b in squares] for a in squares]
        assert table.tolist() == scalar


class TestRegions:
    def test_empty_large_field(self):
        geo = LatticeGeometry(n=2)
        cfg = config_with_masses(geo, {})
        asg = classify_squares(cfg, make_params())
        reg = build_regions(asg, geo, corridorM=3.0)
        assert reg.lambda_l == frozenset()
        assert reg.gamma == frozenset()
        assert reg.big_gamma == frozenset()
        assert reg.big_gamma_e == frozenset()
        assert reg.components == [] and reg.e_components == []

    def test_single_square_big_gamma_brute_force(self):
        bigN = 4096
        geo = LatticeGeometry(n=6)
        cfg = config_with_masses(geo, {(0, 0): 1.5 * bigN ** (1 / 6)})
        asg = classify_squares(cfg, make_params(bigN=bigN))
        M = 3.0
        reg = build_regions(asg, geo, corridorM=M)
        expected = frozenset(
            c for c in geo.squares if square_distance(c, (0, 0)) <= M)
        assert reg.big_gamma == expected
        # Euclidean corner rounding: (4,4) is at distance 3*sqrt(2) > 3
        assert (4, 4) not in reg.big_gamma
        assert (4, 0) in reg.big_gamma  # distance exactly 3 is inside
        assert (5, 0) not in reg.big_gamma

    def test_two_squares_link_merging(self):
        bigN = 4096
        geo = LatticeGeometry(n=6)
        u = 1.5 * bigN ** (1 / 6)
        M = 3.0
        # separation 2M - 1 = 5: one component via a midpoint witness square
        cfg = config_with_masses(geo, {(-3, 0): u, (3, 0): u})
        asg = classify_squares(cfg, make_params(bigN=bigN))
        reg = build_regions(asg, geo, corridorM=M)
        assert len(reg.components) == 1
        # brute-force witness search
        found = any(
            square_distance((-3, 0), d) + square_distance((3, 0), d) <= 2 * M
            for d in geo.squares)
        assert found
        # separation 2M + 3 = 9: two components
        cfg2 = config_with_masses(geo, {(-5, 0): u, (5, 0): u})
        asg2 = classify_squares(cfg2, make_params(bigN=bigN))
        reg2 = build_regions(asg2, geo, corridorM=M)
        assert len(reg2.components) == 2
        assert not any(
            square_distance((-5, 0), d) + square_distance((5, 0), d) <= 2 * M
            for d in geo.squares)

    def test_adjacent_squares_one_raw_component(self):
        bigN = 4096
        geo = LatticeGeometry(n=3)
        u = 1.5 * bigN ** (1 / 6)
        cfg = config_with_masses(geo, {(0, 0): u, (1, 1): u})  # corner touch
        asg = classify_squares(cfg, make_params(bigN=bigN))
        reg = build_regions(asg, geo, corridorM=2.0)
        assert len(reg.components) == 1
        assert reg.components[0].l_squares == frozenset({(0, 0), (1, 1)})

    def test_gamma_extends_outside_volume(self):
        bigN = 4096
        geo = LatticeGeometry(n=2)
        cfg = config_with_masses(geo, {(1, 1): 1.5 * bigN ** (1 / 6)})
        asg = classify_squares(cfg, make_params(bigN=bigN))
        reg = build_regions(asg, geo, corridorM=4.0)
        outside = [c for c in reg.gamma if not (-2 <= c[0] < 2 and -2 <= c[1] < 2)]
        assert outside  # gamma is a subset of the plane paving, not of Lambda

    def test_nesting_and_component_bijections(self):
        bigN = 4096
        geo = LatticeGeometry(n=5)
        rng = np.random.default_rng(23)
        params = make_params(bigN=bigN)
        for _ in range(25):
            masses = {}
            for c in geo.squares:
                if rng.random() < 0.12:
                    masses[c] = 10.0 ** rng.uniform(0.5, 2.5)
            cfg = config_with_masses(geo, masses)
            asg = classify_squares(cfg, params)
            M = float(rng.uniform(1.5, 4.0))
            reg = build_regions(asg, geo, corridorM=M)
            lam_set = set(geo.squares)
            gamma_in = reg.gamma & frozenset(lam_set)
            assert reg.lambda_l <= gamma_in <= reg.big_gamma <= reg.big_gamma_e
            # one-to-one component maps
            assert len(reg.components) == len({c.l_squares for c in reg.components})
            assert sum(len(c.l_squares) for c in reg.components) == len(reg.lambda_l)
            # Gamma_i pairwise disjoint with union Gamma
            seen = set()
            for comp in reg.components:
                assert not (seen & comp.big_gamma)
                seen |= comp.big_gamma
            assert frozenset(seen) == reg.big_gamma
            # Gamma^e_i pairwise disjoint with union Gamma^e
            seen_e = set()
            for comp in reg.e_components:
                assert not (seen_e & comp.big_gamma_e)
                seen_e |= comp.big_gamma_e
            assert frozenset(seen_e) == reg.big_gamma_e
            assert len(reg.e_components) <= len(reg.components)

    def test_gamma_distance_to_outside_big_gamma(self):
        bigN = 4096
        geo = LatticeGeometry(n=6)
        rng = np.random.default_rng(5)
        params = make_params(bigN=bigN)
        for _ in range(10):
            masses = {c: 10.0 ** rng.uniform(0.5, 2.0)
                      for c in geo.squares if rng.random() < 0.1}
            if not masses:
                continue
            cfg = config_with_masses(geo, masses)
            asg = classify_squares(cfg, params)
            M = 4.0
            reg = build_regions(asg, geo, corridorM=M)
            outside = [c for c in geo.squares if c not in reg.big_gamma]
            for a in reg.gamma:
                for b in outside:
                    assert square_distance(a, b) >= M / 2 - math.sqrt(2) - 1e-12

    @pytest.mark.parametrize("swap", [False, True])
    def test_swapped_label_fails_its_gate(self, monkeypatch, swap):
        # negative control of criterion 09: one square moved from Lambda_l
        # to Lambda_s must turn region-invariants red and only that row
        real = cli.build_regions

        def swapped(*args, **kwargs):
            reg = real(*args, **kwargs)
            if reg.lambda_l:
                sq = min(reg.lambda_l)
                reg = dataclasses.replace(reg, lambda_l=reg.lambda_l - {sq},
                                          lambda_s=reg.lambda_s | {sq})
            return reg

        if swap:
            monkeypatch.setattr(cli, "build_regions", swapped)
        table = cli.ResultsTable("control")
        size = dict(cli.PROFILES["quick"],
                    partition=((3, 4096, 7, 4.0, 50, 20),))
        cli.criterion_09_partition_and_regions(cli.RunConfig(), table, size)
        passed = {r["check_id"]: r["passed"] for r in table.rows}
        assert passed == {"partition-of-unity": True,
                          "region-invariants": not swap,
                          "corridor-distance": True, "component-cover": True}


class TestSuppression:
    def test_empty_large_field_trivial(self):
        geo = LatticeGeometry(n=1)
        cfg = config_with_masses(geo, {})
        params = make_params(bigN=10**6, m=0.1)
        asg = classify_squares(cfg, params)
        rep = large_field_suppression(asg, cfg, params)
        assert rep.log_left == 0.0
        assert rep.log_right == 0.0
        assert rep.holds

    def test_holds_at_small_coupling(self):
        # lam*K small: the square's field mass int tau^2 = u/(lam K) is large
        # enough to beat the belt penalty on a 2x2-square volume.
        bigN = 10**6
        lam, bigK, m = 3.0, 0.1, 0.1
        params = ModelParams(lam=lam, bigK=bigK, bigN=bigN,
                             g=math.sqrt(lam * bigK / bigN), m=m,
                             epsilon=bigN ** -0.4,
                             corridorM=(2.0 / m) * math.log(bigN))
        geo = LatticeGeometry(n=1)
        u = 50.0  # inside the l^1 window [0.75*10, 1.25*100)
        cfg = config_with_masses(geo, {(0, 0): u / (lam * bigK)})
        asg = classify_squares(cfg, params)
        assert asg.labels[geo.square_index[(0, 0)]] == 1
        rep = large_field_suppression(asg, cfg, params)
        # left = e^{-0.49*166.7}, right = e^{-0.25*166.7 - N^{1/8}*4 - 1}
        total = u / (lam * bigK)
        assert rep.log_left == pytest.approx(-0.49 * total)
        assert rep.log_right == pytest.approx(
            -0.25 * total - bigN ** 0.125 * 4 - 1.0)
        assert rep.holds

    def test_flip_reported_at_larger_coupling(self):
        # Same geometry, lam*K = 9: the field mass shrinks by ~45x and the
        # belt penalty wins; the bound direction flips and is reported.
        bigN = 10**6
        lam, bigK, m = 3.0, 3.0, 0.1
        params = ModelParams(lam=lam, bigK=bigK, bigN=bigN,
                             g=math.sqrt(lam * bigK / bigN), m=m,
                             epsilon=bigN ** -0.4,
                             corridorM=(2.0 / m) * math.log(bigN))
        geo = LatticeGeometry(n=1)
        u = 50.0
        cfg = config_with_masses(geo, {(0, 0): u / (lam * bigK)})
        asg = classify_squares(cfg, params)
        rep = large_field_suppression(asg, cfg, params)
        assert not rep.holds  # reported, not asserted as an error
        # the asymptotic proof condition is far from satisfied at this N
        assert rep.proof_condition_margin < 1.0
