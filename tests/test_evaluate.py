"""Precision/recall harness tests, including the pooling identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peduncle import evaluate as ev
from peduncle.errors import InvalidInput


def naive_confusion(scores, labels, t):
    """(tp, fp, fn, tn) by one comparison per point; only POSITIVE and
    NEGATIVE labels count."""
    tp = fp = fn = tn = 0
    for s, l in zip(scores, labels):
        pred = s >= t
        if l == ev.POSITIVE:
            tp, fn = tp + pred, fn + (not pred)
        elif l == ev.NEGATIVE:
            fp, tn = fp + pred, tn + (not pred)
    return tp, fp, fn, tn


def counts(curve):
    return [(p.tp, p.fp, p.fn, p.tn) for p in curve.points]


def confusion(scores, labels, t):
    """(tp, fp, fn, tn) of pr_curve's point at the one threshold t."""
    return counts(ev.pr_curve(scores, labels, [t]))[0]


# ties at the class boundary: both signed zeros, the ends of [0, 1], the
# smallest subnormal and the largest double below 1
TIES = [0.0, -0.0, 5e-324, 0.25, 0.5, 1.0 - 2**-53, 1.0]


class TestConfusion:
    """pr_curve's counts at single thresholds."""

    def test_perfect_scorer(self):
        labels = np.array([1, 1, 0, 0, 1])
        scores = labels.astype(float)
        tp, fp, fn, tn = confusion(scores, labels, 0.5)
        assert (fp, fn) == (0, 0) and tp == 3 and tn == 2

    def test_threshold_zero_predicts_everything(self):
        labels = np.array([1, 0, 0, 1])
        scores = np.array([0.2, 0.9, 0.1, 0.8])
        tp, fp, fn, tn = confusion(scores, labels, 0.0)
        assert fn == 0 and fp == 2 and tp == 2 and tn == 0

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(5, 300))
            scores = rng.uniform(size=n)
            labels = rng.choice([ev.POSITIVE, ev.NEGATIVE, ev.IGNORED], n)
            if not (labels == ev.POSITIVE).any() or not (labels == ev.NEGATIVE).any():
                continue
            thresholds = rng.uniform(size=5)
            want = [naive_confusion(scores, labels, t) for t in thresholds]
            assert counts(ev.pr_curve(scores, labels, thresholds)) == want

    def test_ignored_points_excluded(self):
        labels = np.array([1, -1, 0, -1])
        scores = np.array([1.0, 1.0, 1.0, 0.0])
        tp, fp, fn, tn = confusion(scores, labels, 0.5)
        assert tp + fp + fn + tn == 2

    def test_counts_sum_to_labeled_total(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=50)
        labels = rng.choice([1, 0, -1], 50)
        total = int((labels != -1).sum())
        assert all(sum(c) == total for c in counts(ev.pr_curve(scores, labels, np.linspace(0, 1, 11))))

    def test_all_ignored_raises(self):
        with pytest.raises(InvalidInput, match="one positive and one negative"):
            ev.pr_curve(np.ones(3), np.full(3, ev.IGNORED), [0.5])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sorted_counts_equal_naive_counts_on_ties(self, data):
        n = data.draw(st.integers(0, 30))
        score = st.sampled_from(TIES) | st.floats(0.0, 1.0)
        scores = [data.draw(score), data.draw(score)] + data.draw(st.lists(score, min_size=n, max_size=n))
        # one point of each class, then labels that include IGNORED and values outside the set
        label = st.sampled_from([ev.POSITIVE, ev.NEGATIVE, ev.IGNORED, 2, -7])
        labels = [ev.POSITIVE, ev.NEGATIVE] + data.draw(st.lists(label, min_size=n, max_size=n))
        threshold = st.sampled_from(scores) | st.sampled_from(TIES)
        thresholds = data.draw(st.lists(threshold, min_size=1, max_size=8))
        curve = ev.pr_curve(scores, labels, thresholds)
        assert counts(curve) == [naive_confusion(scores, labels, t) for t in thresholds]
        assert [p.threshold for p in curve.points] == [float(t) for t in thresholds]

    def test_length_mismatch_raises(self):
        with pytest.raises(InvalidInput, match="shape"):
            ev.pr_curve(np.array([0.9, 0.1, 0.5]), np.array([1, 0]))


class TestPrCurve:
    def test_f1_harmonic_mean(self):
        p = ev.PrPoint(0.5, tp=1, fp=1, fn=1, tn=0)
        assert p.precision == 0.5 and p.recall == 0.5 and p.f1 == 0.5

    def test_perfect_scorer_reaches_one(self):
        labels = np.array([1, 1, 0, 0])
        scores = labels.astype(float)
        curve = ev.pr_curve(scores, labels)
        best = curve.best
        assert best.precision == 1.0 and best.recall == 1.0 and best.f1 == 1.0

    def test_constant_scores_single_operating_point(self):
        labels = np.array([1, 0, 1, 0, 1])
        scores = np.full(5, 0.4)
        curve = ev.pr_curve(scores, labels, np.array([0.0, 0.2, 0.4]))
        pts = {(p.tp, p.fp, p.fn) for p in curve.points}
        assert pts == {(3, 2, 0)}
        above = ev.pr_curve(scores, labels, np.array([0.6, 0.9])).points
        assert {(p.tp, p.fp, p.fn) for p in above} == {(0, 0, 3)}

    def test_recall_nonincreasing_in_threshold(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=400)
        labels = rng.choice([1, 0], 400)
        curve = ev.pr_curve(scores, labels)
        recalls = [p.recall for p in curve.points]
        assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_thresholds_strictly_increasing(self):
        t = ev.default_thresholds(101)
        assert len(t) == 101 and np.all(np.diff(t) > 0)
        assert t[0] == 0.0 and t[-1] == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_score_rejected(self, bad):
        scores = np.array([0.9, bad, 0.1, 0.2])
        with pytest.raises(InvalidInput):
            ev.pr_curve(scores, np.array([1, 1, 0, 0]))

    def test_needs_both_classes(self):
        with pytest.raises(InvalidInput, match="one positive and one negative"):
            ev.pr_curve(np.ones(4), np.ones(4, dtype=int))


class TestPooling:
    def test_micro_average_identity(self):
        rng = np.random.default_rng(3)
        chunks = []
        for _ in range(6):
            n = int(rng.integers(10, 80))
            chunks.append((rng.uniform(size=n), rng.choice([1, 0, -1], n)))
        all_scores = np.concatenate([c[0] for c in chunks])
        all_labels = np.concatenate([c[1] for c in chunks])
        thresholds = np.linspace(0, 1, 7)
        pooled = []
        for t in thresholds:
            per_scene = [naive_confusion(s, l, t) for s, l in chunks]
            pooled.append(tuple(sum(col) for col in zip(*per_scene)))
        assert counts(ev.pr_curve(all_scores, all_labels, thresholds)) == pooled


class TestThroughput:
    def test_rate_positive_and_stable_definition(self):
        report = ev.throughput(lambda: sum(range(20000)), units=20000, repeats=5)
        assert report["median_rate"] > 0
        assert report["repeats"] == 5
        double = ev.throughput(lambda: sum(range(40000)), units=40000, repeats=5)
        # same per-unit work: rates agree within run-to-run variance (loose)
        ratio = double["median_rate"] / report["median_rate"]
        assert 0.2 < ratio < 5.0

    @pytest.mark.parametrize("seconds,median", [([4.0, 1.0, 2.0, 8.0], 3.0), ([2.0, 8.0, 1.0], 4.0), ([5.0], 1.6)])
    def test_median_of_even_and_odd_counts(self, monkeypatch, seconds, median):
        # each run takes the next duration: 8 units over 1, 2, 4, 8 s is
        # 8, 4, 2 and 1 units/s, whose median is 3, not the upper middle 4
        ticks = iter(np.cumsum([0.0] + [x for s in seconds for x in (s, 0.0)]))
        monkeypatch.setattr(ev.time, "perf_counter", lambda: float(next(ticks)))
        report = ev.throughput(lambda: None, units=8, repeats=len(seconds))
        assert report["median_rate"] == median
        assert report["min_rate"] == 8 / max(seconds) and report["max_rate"] == 8 / min(seconds)
        assert report["repeats"] == len(seconds) and report["units"] == 8

    def test_zero_units_rejected(self):
        with pytest.raises(InvalidInput, match="workload must be positive"):
            ev.throughput(lambda: None, units=0)

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_no_repeat_rejected(self, repeats):
        runs = []
        with pytest.raises(InvalidInput, match="repeats must be positive"):
            ev.throughput(lambda: runs.append(1), units=1, repeats=repeats)
        assert runs == []


class TestCsv:
    def test_csv_layout(self, tmp_path):
        labels = np.array([1, 1, 0, 0])
        curve = ev.pr_curve(labels.astype(float), labels, np.array([0.25, 0.75]))
        path = tmp_path / "pr.csv"
        ev.write_pr_csv(path, [curve])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "mode,threshold,tp,fp,fn,precision,recall,f1"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "raw" and len(fields) == 8

    def test_summary_line(self):
        labels = np.array([1, 1, 0, 0])
        curve = ev.pr_curve(labels.astype(float), labels, np.array([0.5]))
        assert ev.summary_line(curve) == "best_f1 1.0 at 0.5"

    def test_labels_to_eval_mapping(self):
        from peduncle import cloud as pc

        labs = np.array(
            [pc.LABEL_PEDUNCLE, pc.LABEL_PEPPER, pc.LABEL_BACKGROUND, pc.LABEL_UNLABELED]
        )
        out = ev.labels_to_eval(labs)
        assert out.tolist() == [ev.POSITIVE, ev.NEGATIVE, ev.NEGATIVE, ev.IGNORED]
