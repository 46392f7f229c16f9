"""The committed behaviour contract's comparison (tests/contract.py)."""

import json

import contract
import pytest


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
