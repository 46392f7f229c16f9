"""Precision/recall harness tests, including the pooling identity."""

import numpy as np
import pytest

from peduncle import evaluate as ev
from peduncle.errors import EmptyEvaluation, InvalidInput


def naive_confusion(scores, labels, t):
    tp = fp = fn = tn = 0
    for s, l in zip(scores, labels):
        if l == ev.IGNORED:
            continue
        pred = s >= t
        if pred and l == ev.POSITIVE:
            tp += 1
        elif pred and l == ev.NEGATIVE:
            fp += 1
        elif not pred and l == ev.POSITIVE:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


class TestConfusion:
    def test_perfect_scorer(self):
        labels = np.array([1, 1, 0, 0, 1])
        scores = labels.astype(float)
        tp, fp, fn, tn = ev.confusion(scores, labels, 0.5)
        assert (fp, fn) == (0, 0) and tp == 3 and tn == 2

    def test_threshold_zero_predicts_everything(self):
        labels = np.array([1, 0, 0, 1])
        scores = np.array([0.2, 0.9, 0.1, 0.8])
        tp, fp, fn, tn = ev.confusion(scores, labels, 0.0)
        assert fn == 0 and fp == 2 and tp == 2 and tn == 0

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(5, 300))
            scores = rng.uniform(size=n)
            labels = rng.choice([ev.POSITIVE, ev.NEGATIVE, ev.IGNORED], n)
            if not (labels != ev.IGNORED).any():
                continue
            t = float(rng.uniform())
            assert ev.confusion(scores, labels, t) == naive_confusion(scores, labels, t)

    def test_ignored_points_excluded(self):
        labels = np.array([1, -1, 0, -1])
        scores = np.array([1.0, 1.0, 1.0, 0.0])
        tp, fp, fn, tn = ev.confusion(scores, labels, 0.5)
        assert tp + fp + fn + tn == 2

    def test_counts_sum_to_labeled_total(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=50)
        labels = rng.choice([1, 0, -1], 50)
        total = int((labels != -1).sum())
        for t in np.linspace(0, 1, 11):
            assert sum(ev.confusion(scores, labels, float(t))) == total

    def test_all_ignored_raises(self):
        with pytest.raises(EmptyEvaluation):
            ev.confusion(np.ones(3), np.full(3, ev.IGNORED), 0.5)


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
        with pytest.raises(EmptyEvaluation):
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
        for t in np.linspace(0, 1, 7):
            per_scene = [naive_confusion(s, l, t) for s, l in chunks]
            pooled = tuple(sum(col) for col in zip(*per_scene))
            assert pooled == ev.confusion(all_scores, all_labels, float(t))


class TestThroughput:
    def test_rate_positive_and_stable_definition(self):
        report = ev.throughput(lambda: sum(range(20000)), units=20000, repeats=5)
        assert report["median_rate"] > 0
        assert report["repeats"] == 5
        double = ev.throughput(lambda: sum(range(40000)), units=40000, repeats=5)
        # same per-unit work: rates agree within run-to-run variance (loose)
        ratio = double["median_rate"] / report["median_rate"]
        assert 0.2 < ratio < 5.0

    def test_zero_units_rejected(self):
        with pytest.raises(EmptyEvaluation):
            ev.throughput(lambda: None, units=0)


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
