import math
import re

import numpy as np
import pytest

from geostream.errors import ConfigError, DataError, IngestionError
from geostream.geo import haversine_km
from geostream.reward import (
    BaselineWindows,
    PoiInfo,
    RewardWeights,
    WordVectors,
    component_rewards,
    compute_reward,
)

import probes


def oracle_haversine(lat1, lon1, lat2, lon2):
    """Law-of-cosines spherical distance, independent of the haversine path."""
    if (lat1, lon1) == (lat2, lon2):
        return 0.0
    p1, p2 = math.radians(90 - lat1), math.radians(90 - lat2)
    t1, t2 = math.radians(lon1), math.radians(lon2)
    cos = math.sin(p1) * math.sin(p2) * math.cos(t1 - t2) + math.cos(p1) * math.cos(p2)
    return math.acos(max(-1.0, min(1.0, cos))) * 6371.0


def _poi(i, cat, lat, lon):
    return PoiInfo(i, cat, lat, lon)


class TestRewardWeights:
    def test_valid(self):
        RewardWeights(0.2, 0.3, 0.5)

    def test_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            RewardWeights(0.2, 0.3, 0.4)

    def test_nonnegative(self):
        with pytest.raises(ConfigError):
            RewardWeights(-0.1, 0.6, 0.5)

    def test_nan_rejected(self):
        # a NaN weight passes the sum check, and every reward would be NaN
        with pytest.raises(ConfigError):
            RewardWeights(float("nan"), 0.5, 0.5)


class TestWordVectors:
    def test_load_and_lookup(self, wv):
        assert "museum" in wv
        assert len(wv) == 12

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError):
            WordVectors({"null": [0.0, 0.0]})

    @pytest.mark.parametrize("vectors", [
        {"museum": [1.0, float("nan")]},
        {"museum": [1.0, float("inf")]},
        {"museum": [1.0, 0.0], "park": [1.0]},
    ], ids=["nan", "inf", "dimension"])
    def test_bad_vector_rejected(self, vectors):
        with pytest.raises(DataError):
            WordVectors(vectors)

    @pytest.mark.parametrize("bad", ["park 0 nan", "park 1", "park 0 x1"],
                             ids=["non-finite", "dimension", "unparsed"])
    def test_bad_file_line_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "wv.txt"
        path.write_text(f"museum 1 0\n\n{bad}\n")
        with pytest.raises(IngestionError, match=re.escape(f"{path}: line 3: ")):
            WordVectors.load(path)

    def test_category_vector_averages_tokens(self, wv):
        v = wv.category_vector("Museum Park")
        np.testing.assert_allclose(v, [0.5, 0.5, 0, 0, 0])

    def test_unknown_tokens_skipped(self, wv):
        v = wv.category_vector("Museum Xyzzy")
        np.testing.assert_allclose(v, [1, 0, 0, 0, 0])

    def test_all_unknown_is_none(self, wv):
        assert wv.category_vector("Qwerty Asdf") is None

    def test_category_vector_memo_gives_the_same_floats(self, wv):
        first = wv.category_vector("Museum Park")
        assert wv.category_vector("Museum Park") is first
        np.testing.assert_array_equal(first, np.mean([[1.0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0]], axis=0))

    def test_token_added_after_a_lookup_counts(self):
        wv = WordVectors({"museum": [1.0, 0.0], "park": [0.0, 1.0]})
        assert wv.category_vector("Art Park") is not None
        assert wv.category_vector("Art Gallery") is None
        assert wv.category_similarity("Art Gallery", "Museum") == 0.0
        assert wv.category_similarity("Art Park", "Museum") == 0.0
        wv.add("art", [1.0, 0.0])
        assert wv.category_similarity("Art Gallery", "Museum") == pytest.approx(1.0)
        assert wv.category_similarity("Art Park", "Museum") == pytest.approx(np.sqrt(0.5))

    def test_similarity_orthogonal(self, wv):
        assert wv.category_similarity("Museum", "Park") == 0.0

    def test_similarity_identical(self, wv):
        assert wv.category_similarity("Museum", "Gallery") == pytest.approx(1.0)

    def test_similarity_same_name_without_known_token(self, wv):
        assert wv.category_similarity("Zzz", "Zzz") == 1.0


class TestComponentRewards:
    def test_identical_poi(self, wv):
        p = _poi(1, "Museum", 40.0, -74.0)
        r_d, r_c, r_p = component_rewards(p, p, wv)
        assert r_d == pytest.approx(1.0 / 0.1)
        assert r_c == 1.0 and r_p == 1.0

    def test_same_category_different_poi(self, wv):
        a = _poi(1, "Museum", 40.0, -74.0)
        b = _poi(2, "Museum", 40.1, -74.0)
        _, r_c, r_p = component_rewards(a, b, wv)
        assert r_c == 1.0 and r_p == 0.0

    def test_two_km_apart(self, wv):
        # place the pair 2.0 km apart on the equator per the oracle
        dlon = math.degrees(2.0 / 6371.0)
        a = _poi(1, "Museum", 0.0, 0.0)
        b = _poi(2, "Park", 0.0, dlon)
        assert oracle_haversine(0.0, 0.0, 0.0, dlon) == pytest.approx(2.0, abs=1e-9)
        r_d, _, _ = component_rewards(a, b, wv)
        assert r_d == pytest.approx(0.5, rel=1e-9)

    def test_haversine_matches_independent_oracle(self, wv):
        rng = np.random.default_rng(42)
        for _ in range(200):
            lat1, lat2 = rng.uniform(-80, 80, size=2)
            lon1, lon2 = rng.uniform(-179, 179, size=2)
            got = haversine_km(lat1, lon1, lat2, lon2)
            want = oracle_haversine(lat1, lon1, lat2, lon2)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_missing_coordinates(self, wv):
        a = PoiInfo(1, "Museum", None, None)
        b = _poi(2, "Park", 0.0, 0.0)
        with pytest.raises(DataError):
            component_rewards(a, b, wv)

    def test_component_ranges(self, wv):
        rng = np.random.default_rng(7)
        cats = ["Museum", "Park", "Cafe", "Bar", "Gym", "Qwerty"]
        for _ in range(300):
            a = _poi(int(rng.integers(5)), str(rng.choice(cats)),
                     float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
            b = _poi(int(rng.integers(5)), str(rng.choice(cats)),
                     float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
            r_d, r_c, r_p = component_rewards(a, b, wv)
            assert 0.0 < r_d <= 10.0
            assert -1.0 <= r_c <= 1.0
            assert r_p in (0.0, 1.0)


class TestComputeReward:
    def test_parts_equal_baselines_give_half(self):
        weights = RewardWeights(1 / 3, 1 / 3, 1 / 3)
        windows = BaselineWindows(10)
        windows.append((0.4, 0.2, 1.0))
        r = compute_reward((0.4, 0.2, 1.0), weights, windows)
        assert r == 0.5

    def test_exact_match_sigmoid(self):
        weights = RewardWeights(0.0, 0.0, 1.0)
        windows = BaselineWindows(10)
        r = compute_reward((3.0, 0.5, 1.0), weights, windows)
        assert r == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))

    def test_distance_closed_form(self):
        weights = RewardWeights(1.0, 0.0, 0.0)
        windows = BaselineWindows(10)
        windows.append((math.log(3.0), 0.0, 0.0))
        r = compute_reward((0.0, 0.0, 0.0), weights, windows)
        assert r == pytest.approx(0.25)

    def test_baselines_read_before_append(self):
        weights = RewardWeights(0.0, 0.0, 1.0)
        windows = BaselineWindows(10)
        r1 = compute_reward((0.0, 0.0, 1.0), weights, windows)
        assert r1 == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))
        # the first sample is now the baseline: identical parts give 0.5
        r2 = compute_reward((0.0, 0.0, 1.0), weights, windows)
        assert r2 == 0.5

    def test_output_in_open_unit_interval(self):
        rng = np.random.default_rng(11)
        weights = RewardWeights(0.5, 0.25, 0.25)
        windows = BaselineWindows(50)
        for _ in range(5000):
            parts = (float(rng.uniform(0, 10)), float(rng.uniform(-1, 1)),
                     float(rng.integers(2)))
            r = compute_reward(parts, weights, windows)
            assert 0.0 < r < 1.0

    def test_monotone_in_each_component(self):
        weights = RewardWeights(0.4, 0.4, 0.2)
        rng = np.random.default_rng(13)
        for _ in range(200):
            base = (float(rng.uniform(0, 5)), float(rng.uniform(-1, 1)),
                    float(rng.integers(2)))
            for i in range(3):
                w1 = BaselineWindows(10)
                w2 = BaselineWindows(10)
                bumped = list(base)
                bumped[i] += 0.5
                assert compute_reward(tuple(bumped), weights, w2) >= compute_reward(
                    base, weights, w1
                )


class TestBaselineWindows:
    def test_empty_is_zero(self):
        assert BaselineWindows(5).baselines() == (0.0, 0.0, 0.0)

    def test_mean(self):
        w = BaselineWindows(5)
        w.append((0.2, 0.0, 1.0))
        w.append((0.4, 1.0, 0.0))
        assert w.baselines() == pytest.approx((0.3, 0.5, 0.5))

    def test_capacity_fifo(self):
        w = BaselineWindows(2)
        for v in (0.1, 0.3, 0.5):
            w.append((v, v, v))
        assert probes.window_contents(w)[0] == [0.3, 0.5]
        assert w.baselines() == pytest.approx((0.4, 0.4, 0.4))

    def test_means_match_bruteforce(self):
        rng = np.random.default_rng(17)
        w = BaselineWindows(7)
        for _ in range(100):
            parts = tuple(float(v) for v in rng.uniform(0, 1, size=3))
            w.append(parts)
            for window, baseline in zip(probes.window_contents(w), w.baselines()):
                assert baseline == pytest.approx(sum(window) / len(window))
