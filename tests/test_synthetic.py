"""Tests for the synthetic workload generator (§VI recipe)."""

import numpy as np
import pytest

from repro import Rect, WorkloadError
from repro.data import (
    bay_area_master,
    bay_area_region,
    generate_intersections,
    sample_users,
    square_region,
    uniform_users,
    users_from_intersections,
)


class TestRegions:
    def test_bay_area_is_square(self):
        region = bay_area_region()
        assert region.width == region.height

    def test_square_region(self):
        assert square_region(100) == Rect(0, 0, 100, 100)


class TestIntersections:
    def test_count_and_clipping(self):
        region = square_region(10_000)
        pts = generate_intersections(500, region, seed=1)
        assert pts.shape == (500, 2)
        assert (pts[:, 0] >= 0).all() and (pts[:, 0] <= 10_000).all()
        assert (pts[:, 1] >= 0).all() and (pts[:, 1] <= 10_000).all()

    def test_deterministic(self):
        region = square_region(10_000)
        a = generate_intersections(300, region, seed=9)
        b = generate_intersections(300, region, seed=9)
        assert np.array_equal(a, b)

    def test_skewed_density(self):
        """The clustered process must be visibly non-uniform: the densest
        map cell should hold far more than the uniform expectation."""
        region = square_region(10_000)
        pts = generate_intersections(2_000, region, seed=2)
        hist, __, __ = np.histogram2d(
            pts[:, 0], pts[:, 1], bins=8, range=[[0, 10_000], [0, 10_000]]
        )
        assert hist.max() > 3 * (2_000 / 64)

    def test_validation(self):
        region = square_region(100)
        with pytest.raises(WorkloadError):
            generate_intersections(0, region)
        with pytest.raises(WorkloadError):
            generate_intersections(10, region, background_fraction=1.5)


class TestUsers:
    def test_users_per_intersection(self):
        region = square_region(10_000)
        pts = generate_intersections(50, region, seed=3)
        users = users_from_intersections(pts, region, users_per_intersection=10, seed=3)
        assert users.shape == (500, 2)

    def test_gaussian_spread_scale(self):
        """Users scatter around their intersection at the requested σ."""
        region = square_region(100_000)
        pts = np.full((200, 2), 50_000.0)
        users = users_from_intersections(
            pts, region, users_per_intersection=10, sigma=500.0, seed=4
        )
        offsets = users - 50_000.0
        measured = np.std(offsets)
        assert 400.0 < measured < 600.0

    def test_validation(self):
        region = square_region(100)
        with pytest.raises(WorkloadError):
            users_from_intersections(np.zeros((2, 2)), region, 0)


class TestMaster:
    def test_master_size(self):
        region, db = bay_area_master(seed=5, n_intersections=100)
        assert len(db) == 1_000
        assert all(region.contains(p) for p in db.points())

    def test_sampling(self):
        __, db = bay_area_master(seed=6, n_intersections=100)
        sample = sample_users(db, 250, seed=6)
        assert len(sample) == 250
        for uid in sample.user_ids():
            assert sample.location_of(uid) == db.location_of(uid)

    def test_sampling_too_large(self):
        __, db = bay_area_master(seed=7, n_intersections=10)
        with pytest.raises(WorkloadError):
            sample_users(db, 1_000)

    def test_uniform_users(self):
        region = square_region(100)
        db = uniform_users(64, region, seed=8)
        assert len(db) == 64
        assert all(region.contains(p) for p in db.points())
