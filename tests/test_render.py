"""Tests for the ASCII map renderers (Figure 2/3 visuals)."""

import pytest

from repro import LocationDatabase, ReproError
from repro.data import bay_area_master, sample_users, square_region, uniform_users
from repro.experiments import density_map, depth_map
from repro.trees import BinaryTree, QuadTree


@pytest.fixture
def region():
    return square_region(1024)


class TestDensityMap:
    def test_dimensions(self, region):
        db = uniform_users(100, region, seed=201)
        text = density_map(db, region, width=40, height=10)
        lines = text.split("\n")
        assert len(lines) == 10
        assert all(len(line) == 40 for line in lines)

    def test_empty_db_renders_blank(self, region):
        text = density_map(LocationDatabase(), region, width=10, height=4)
        assert set(text) <= {" ", "\n"}

    def test_hotspot_is_brightest(self, region):
        # All users in the NE corner: the brightest char must be there.
        db = LocationDatabase(
            [(f"u{i}", 1000 + i * 0.01, 1000 + i * 0.01) for i in range(50)]
        )
        text = density_map(db, region, width=16, height=8)
        lines = text.split("\n")
        assert "@" in lines[0]  # row 0 is the north edge
        assert "@" not in "".join(lines[1:])

    def test_grid_validated(self, region):
        with pytest.raises(ReproError):
            density_map(LocationDatabase(), region, width=0)

    def test_skewed_master_shows_contrast(self):
        region, master = bay_area_master(seed=7, n_intersections=500)
        db = sample_users(master, 2_000, seed=7)
        text = density_map(db, region, width=40, height=20)
        # A skewed map has both empty space and bright cells.
        assert " " in text
        assert any(c in text for c in "#%@")


class TestDepthMap:
    def test_binary_tree_rendering(self, region):
        db = uniform_users(400, region, seed=202)
        tree = BinaryTree.build(region, db, 10)
        text = depth_map(tree, width=32, height=16)
        lines = text.split("\n")
        assert len(lines) == 16
        assert all(len(line) == 32 for line in lines)
        # Somewhere the tree is deeper than elsewhere.
        assert len(set(text) - {"\n"}) > 1

    def test_quad_tree_rendering(self, region):
        db = uniform_users(200, region, seed=203)
        tree = QuadTree.build_adaptive(region, db, split_threshold=10)
        text = depth_map(tree, width=20, height=10)
        assert len(text.split("\n")) == 10

    def test_dense_corner_is_deepest(self, region):
        # Everyone in the SW corner; that corner must be brightest.
        db = LocationDatabase(
            [(f"u{i}", 10 + (i % 7), 10 + (i // 7)) for i in range(60)]
        )
        tree = BinaryTree.build(region, db, 5)
        text = depth_map(tree, width=16, height=8)
        lines = text.split("\n")
        ramp = " .:-=+*#%@"
        bottom_left = lines[-1][0]
        top_right = lines[0][-1]
        assert ramp.index(bottom_left) > ramp.index(top_right)

    def test_grid_validated(self, region):
        db = uniform_users(20, region, seed=204)
        tree = BinaryTree.build(region, db, 5)
        with pytest.raises(ReproError):
            depth_map(tree, width=5, height=0)
