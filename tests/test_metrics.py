import math

import numpy as np
import pytest

from geostream.errors import DataError
from geostream.metrics import avg_dist, avg_sim, prec_cat, rec_cat
from geostream.reward import PoiInfo


def _ev(pred_cat, real_cat, pred_xy=(0.0, 0.0), real_xy=(0.0, 0.0)):
    return (
        PoiInfo(0, pred_cat, pred_xy[0], pred_xy[1]),
        PoiInfo(1, real_cat, real_xy[0], real_xy[1]),
    )


def oracle_weighted(log, kind):
    """Brute-force confusion matrix over the category set."""
    cats = {real.category for _, real in log} | {pred.category for pred, _ in log}
    num = den = 0.0
    for c in sorted(cats):
        weight = sum(1 for _, real in log if real.category == c)
        tp = sum(1 for pred, real in log if pred.category == real.category == c)
        fp = sum(1 for pred, real in log if pred.category == c != real.category)
        fn = sum(1 for pred, real in log if real.category == c != pred.category)
        other = fp if kind == "prec" else fn
        if tp + other == 0:
            continue
        num += weight * tp
        den += weight * (tp + other)
    return num / den if den else 0.0


class TestPrecRec:
    def test_all_correct(self):
        log = [_ev("a", "a"), _ev("b", "b")]
        assert prec_cat(log) == 1.0
        assert rec_cat(log) == 1.0

    def test_all_wrong(self):
        log = [_ev("a", "b"), _ev("b", "a")]
        assert prec_cat(log) == 0.0
        assert rec_cat(log) == 0.0

    def test_single_correct_event(self):
        assert rec_cat([_ev("a", "a")]) == 1.0

    def test_four_event_hand_case(self):
        log = [_ev("a", "a"), _ev("a", "b"), _ev("b", "b"), _ev("b", "b")]
        assert prec_cat(log) == pytest.approx(oracle_weighted(log, "prec"))
        assert rec_cat(log) == pytest.approx(oracle_weighted(log, "rec"))

    def test_always_predicts_a(self):
        log = [_ev("a", "a"), _ev("a", "a"), _ev("a", "b"), _ev("a", "b")]
        assert rec_cat(log) == pytest.approx(oracle_weighted(log, "rec"))

    def test_random_logs_match_oracle(self):
        rng = np.random.default_rng(42)
        cats = list("abcde")
        for _ in range(100):
            n = int(rng.integers(1, 51))
            log = [
                _ev(str(rng.choice(cats)), str(rng.choice(cats)))
                for _ in range(n)
            ]
            assert prec_cat(log) == oracle_weighted(log, "prec")
            assert rec_cat(log) == oracle_weighted(log, "rec")

    def test_equal_frequency_equals_macro_precision(self):
        # balanced real AND predicted counts: every category appears equally
        # often in the log, so the weighted ratio collapses to the macro mean
        cats = list("abc")
        for correct in (0, 1, 2, 3):
            log = []
            for i, c in enumerate(cats):
                wrong = cats[(i + 1) % len(cats)]
                log += [_ev(c, c)] * correct
                log += [_ev(wrong, c)] * (4 - correct)
            per_class = []
            for c in cats:
                tp = sum(1 for p, r in log if p.category == r.category == c)
                fp = sum(1 for p, r in log if p.category == c != r.category)
                if tp + fp:
                    per_class.append(tp / (tp + fp))
            macro = sum(per_class) / len(per_class) if per_class else 0.0
            assert prec_cat(log) == pytest.approx(macro)

    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(9)
        log = [_ev(str(rng.choice(list("abc"))), str(rng.choice(list("abc"))))
               for _ in range(30)]
        for metric in (prec_cat, rec_cat):
            v = metric(log)
            assert 0.0 <= v <= 1.0
            shuffled = list(log)
            rng.shuffle(shuffled)
            assert metric(shuffled) == pytest.approx(v)

    def test_empty_log_rejected(self):
        with pytest.raises(DataError):
            prec_cat([])


class TestAvgSim:
    def test_identical_categories(self, wv):
        assert avg_sim([_ev("Museum", "Museum")] * 3, wv) == 1.0

    def test_orthogonal_categories(self, wv):
        assert avg_sim([_ev("Museum", "Park"), _ev("Cafe", "Gym")], wv) == 0.0

    def test_mixed_hand_case(self, wv):
        # cos(museum, gallery)=1 via same vector; cos(bar, park)=0.8
        log = [_ev("Museum", "Gallery"), _ev("Bar", "Park"), _ev("Cafe", "Cafe")]
        assert avg_sim(log, wv) == pytest.approx((1.0 + 0.8 + 1.0) / 3)


class TestAvgDist:
    def test_zero_for_perfect(self):
        log = [_ev("a", "a", (40.0, -74.0), (40.0, -74.0))]
        assert avg_dist(log) == 0.0

    def test_equator_degree(self):
        log = [_ev("a", "a", (0.0, 0.0), (0.0, 1.0))]
        expected = 6371.0 * math.pi / 180.0
        assert avg_dist(log) == pytest.approx(expected, rel=1e-3)

    def test_antipodal(self):
        log = [_ev("a", "a", (0.0, 0.0), (0.0, 180.0))]
        assert avg_dist(log) == pytest.approx(math.pi * 6371.0, rel=1e-3)

    def test_invalid_coordinates(self):
        with pytest.raises(DataError):
            avg_dist([_ev("a", "a", (95.0, 0.0), (0.0, 0.0))])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        log = [
            _ev("a", "a",
                (float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179))),
                (float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179))))
            for _ in range(20)
        ]
        v = avg_dist(log)
        assert v >= 0.0
        shuffled = list(log)
        rng.shuffle(shuffled)
        assert avg_dist(shuffled) == pytest.approx(v)
