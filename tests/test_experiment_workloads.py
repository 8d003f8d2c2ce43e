"""Tests for the shared experiment workload cache."""

from repro.experiments import ScaleProfile, current_scale, master_for, sample_for
from repro.experiments.workloads import scaled_master

TINY = ScaleProfile(
    name="tiny",
    master_intersections=200,
    db_sweep=(500, 1_000),
    k_sweep=(5,),
    db_fixed=800,
    k=5,
    server_sweep=(1,),
    move_percentages=(1.0,),
    jurisdiction_sweep=(1,),
)


class TestMasterCache:
    def test_master_is_cached_per_size(self):
        a = master_for(200)
        b = master_for(200)
        assert a is b  # same lru_cache entry, not a regeneration

    def test_master_size_follows_recipe(self):
        __, db = master_for(200)
        assert len(db) == 2_000  # 10 users per intersection

    def test_scaled_master_uses_profile(self):
        region, db = scaled_master(TINY)
        assert len(db) == 2_000
        assert region.width == region.height


class TestSampleFor:
    def test_sample_size(self):
        __, db = sample_for(500, TINY)
        assert len(db) == 500

    def test_oversized_request_returns_master(self):
        __, master = scaled_master(TINY)
        __, db = sample_for(10_000_000, TINY)
        assert len(db) == len(master)

    def test_samples_are_deterministic(self):
        __, a = sample_for(400, TINY, seed=3)
        __, b = sample_for(400, TINY, seed=3)
        assert a.user_ids() == b.user_ids()

    def test_samples_come_from_master(self):
        __, master = scaled_master(TINY)
        __, db = sample_for(300, TINY)
        for uid in db.user_ids():
            assert db.location_of(uid) == master.location_of(uid)


class TestProfiles:
    def test_default_profile_shape(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        profile = current_scale()
        assert profile.name == "default"
        assert profile.k == 50  # the paper's default degree
        assert 1 in profile.server_sweep

    def test_all_profiles_are_consistent(self, monkeypatch):
        for name in ("quick", "default", "full"):
            monkeypatch.setenv("REPRO_SCALE", name)
            profile = current_scale()
            assert profile.db_fixed <= 10 * profile.master_intersections
            assert max(profile.db_sweep) <= 10 * profile.master_intersections
            assert min(profile.k_sweep) >= 2
