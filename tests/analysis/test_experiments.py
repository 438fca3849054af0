"""Tests for figure-series generation and aggregation."""

import shutil
from pathlib import Path

import pytest

from repro.analysis import (
    SchemeCache,
    aggregate_improvements,
    figure3_series,
    figure4_series,
    render_improvement_summary,
    render_series_table,
)

DISKS = range(7, 10)

#: the scheme store the figure benches replay
COMMITTED_STORE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / ".scheme_cache" / "plans.json"
)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return SchemeCache(depth=1, cache_dir=tmp_path_factory.mktemp("schemes"))


@pytest.fixture(scope="module")
def rdp_series3(cache):
    return figure3_series("rdp", DISKS, cache=cache)


class TestSchemeCache:
    def test_memoizes(self, cache):
        a = cache.schemes("rdp", 7, "u")
        b = cache.schemes("rdp", 7, "u")
        assert a is b

    def test_disk_cache_roundtrip(self, tmp_path):
        c1 = SchemeCache(depth=1, cache_dir=tmp_path)
        first = c1.schemes("evenodd", 7, "khan")
        c2 = SchemeCache(depth=1, cache_dir=tmp_path)
        second = c2.schemes("evenodd", 7, "khan")
        assert [s.read_mask for s in first] == [s.read_mask for s in second]
        assert c2.store.hits == len(second)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "plans.json", "plans.json.lock"
        ]

    def test_committed_store_replays_the_figures_without_search(
        self, tmp_path, monkeypatch
    ):
        """The figure benches replay ``benchmarks/.scheme_cache``; a store
        gone cold would silently turn them into multi-minute searches."""
        from repro import obs
        from repro.codes.registry import PAPER_FIGURE_FAMILIES
        from repro.recovery.planner import RecoveryPlanner

        def no_search(planner, disk):
            raise AssertionError(
                f"searched {planner.code.describe()} disk {disk} "
                f"({planner.algorithm})"
            )

        # fail at the first search instead of after minutes of them
        monkeypatch.setattr(RecoveryPlanner, "_search", no_search)
        # a copy, so a failing run never writes into the committed store
        shutil.copy(COMMITTED_STORE, tmp_path / "plans.json")
        cache = SchemeCache(depth=1, cache_dir=tmp_path)
        disks = range(7, 17)
        rec = obs.enable("replay")
        try:
            for family in PAPER_FIGURE_FAMILIES:
                figure3_series(family, disks, cache=cache)
                figure4_series(family, disks, cache=cache, stacks=2)
        finally:
            obs.disable()
        generated = rec.counters.get("planner.schemes_generated")
        assert generated is None or generated.value == 0
        assert cache.store.misses == 0 and cache.store.stores == 0
        assert cache.store.hits > 0

    def test_one_scheme_per_data_disk(self, cache):
        schemes = cache.schemes("rdp", 8, "c")
        assert len(schemes) == 6  # 8 disks - 2 parity


class TestFigure3:
    def test_series_shapes(self, rdp_series3):
        assert set(rdp_series3) == {"khan", "c", "u"}
        for vals in rdp_series3.values():
            assert len(vals) == len(list(DISKS))

    def test_paper_ordering_u_le_c_le_khan(self, rdp_series3):
        for k, c, u in zip(rdp_series3["khan"], rdp_series3["c"], rdp_series3["u"]):
            assert u <= c <= k + 1e-9


class TestFigure4:
    def test_speed_ordering_matches_load_ordering(self, cache):
        s4 = figure4_series("rdp", DISKS, cache=cache)
        for k, c, u in zip(s4["khan"], s4["c"], s4["u"]):
            assert u >= c >= k - 1e-9

    def test_speeds_positive_and_sane(self, cache):
        s4 = figure4_series("evenodd", DISKS, cache=cache)
        for vals in s4.values():
            assert all(10 < v < 500 for v in vals)


class TestAggregation:
    def test_improvements_positive_for_u(self, rdp_series3):
        agg = aggregate_improvements({"rdp": rdp_series3})
        assert agg["u"]["mean_percent"] >= 0
        assert agg["u"]["max_percent"] >= agg["u"]["mean_percent"]

    def test_speed_aggregation_mode(self, cache):
        s4 = figure4_series("rdp", DISKS, cache=cache)
        agg = aggregate_improvements({"rdp": s4}, lower_is_better=False)
        assert agg["u"]["max_percent"] >= 0

    def test_empty_series_raises_value_error(self):
        # Regression: empty per-algorithm series used to hit a
        # ZeroDivisionError computing the mean.
        with pytest.raises(ValueError, match="no data points"):
            aggregate_improvements({"rdp": {"khan": [], "u": []}})


class TestRendering:
    def test_table_contains_all_points(self, rdp_series3):
        table = render_series_table("t", "disks", list(DISKS), rdp_series3)
        for n in DISKS:
            assert str(n) in table
        assert "khan" in table and "u" in table

    def test_table_validates_lengths(self):
        with pytest.raises(ValueError):
            render_series_table("t", "x", [1, 2], {"a": [1.0]})

    def test_summary_mentions_algorithms(self, rdp_series3):
        agg = aggregate_improvements({"rdp": rdp_series3})
        text = render_improvement_summary(agg, "test")
        assert "c-scheme" in text and "u-scheme" in text
