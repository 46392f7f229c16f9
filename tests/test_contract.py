"""The committed behaviour contract's comparison (tests/contract.py)."""

import json
from types import SimpleNamespace

import contract
import pytest

from peduncle import evaluate as ev


def test_values_are_compared_on_any_platform(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"fingerprint": {"machine": "elsewhere"}, "values": {"a": [[1, 2]]}}))
    contract.assert_matches(path, {"a": [[1, 2]]})
    here = contract.fingerprint()
    with pytest.raises(AssertionError) as failure:
        contract.assert_matches(path, {"a": [[1, 3]]})
    assert str(failure.value) == (
        f"c.json: /a[0][1] stored 2, got 3 (made on {{'machine': 'elsewhere'}}, compared on {here})"
    )


def test_a_difference_on_the_same_platform_says_so(tmp_path):
    path = tmp_path / "c.json"
    contract.write(path, {"a": [[1, 2]], "b": "x"})
    with pytest.raises(AssertionError, match=r"^c\.json: /b stored 'x', got 'y' \(on the platform they were made on\)$"):
        contract.assert_matches(path, {"a": [[1, 2]], "b": "y"})


def test_c7_moves_name_each_changed_file():
    stored = {"a.txt": "1" * 64, "b.txt": "2" * 64, "gone.txt": "3" * 64}
    got = {"a.txt": "1" * 64, "b.txt": "4" * 64, "new.txt": "5" * 64}
    assert contract.c7_moves(stored, got) == [
        f"b.txt: {'2' * 12} -> {'4' * 12}",
        f"gone.txt: {'3' * 12} -> absent",
        f"new.txt: absent -> {'5' * 12}",
    ]


def test_c6_moves_name_each_changed_curve_point():
    def curve(*counts):
        return SimpleNamespace(points=[ev.PrPoint(0.25 * i, *c) for i, c in enumerate(counts)])

    results = {det: {"raw": curve((1, 2, 3, 4), (0, 1, 4, 5)), "filtered": curve((1, 0, 3, 6), (0, 0, 4, 6))}
               for det in ("pfh-svm", "cnn", "cnn-half")}
    stored = contract.c6_counts(results)
    assert contract.c6_moves(stored, results) == []
    stored["cnn"]["filtered"][1] = [1, 0, 3, 6]
    assert contract.c6_moves(stored, results) == ["cnn filtered threshold 0.25: [1, 0, 3, 6] -> [0, 0, 4, 6]"]
