"""ASCII file formats against their per-row oracles.

The writers must produce the per-row writers' bytes exactly. On any file,
valid or mutated, a reader either raises FormatError or returns exactly
what the per-row reader returns: it may reject more, never accept more.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import (
    load_cloud_per_row,
    load_features_per_row,
    load_nb_per_line,
    load_scores_per_row,
    load_svm_per_row,
    save_cloud_per_row,
    save_features_per_row,
    save_scores_per_row,
    save_svm_per_row,
)

from peduncle import _textio
from peduncle import classifiers as cls
from peduncle import cloud as pc
from peduncle import config as cfgmod
from peduncle import evaluate as ev
from peduncle import features as ft
from peduncle import minicnn as mc
from peduncle import pipeline as pl
from peduncle import scenegen as sg
from peduncle.cli import load_scores, main, save_scores
from peduncle.errors import FormatError, InvalidInput

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 1.7976931348623157e308, 0.1]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
INT64 = st.integers(-(2**63), 2**63 - 1)
SETTINGS = settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])


def same(a, b) -> bool:
    """Equal type, dtype, shape and bits, through dataclasses and tuples."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, float):
        return type(b) is float and np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def matrix(draw, rows, cols, elements=FLOATS):
    values = draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=np.float64).reshape(rows, cols)


@st.composite
def clouds(draw):
    n = draw(st.integers(0, 5))
    colors = np.array(draw(st.lists(st.integers(0, 255), min_size=3 * n, max_size=3 * n)), dtype=np.uint8)
    labels = draw(st.none() | st.lists(st.integers(0, 255), min_size=n, max_size=n))
    return pc.PointCloud(
        matrix(draw, n, 3), colors.reshape(n, 3), None if labels is None else np.array(labels, dtype=np.uint8)
    )


@st.composite
def score_dumps(draw):
    """Dumps a detector can write: scores in [0, 1] or the miss score, labels
    POSITIVE / NEGATIVE / IGNORED."""
    n = draw(st.integers(0, 5))
    ends = st.sampled_from([0.0, -0.0, 5e-324, 1.0, ev.MISS_SCORE])
    if draw(st.booleans()):     # the float32 CNN's scores
        scores = matrix(draw, n, 1, ends | st.floats(0.0, 1.0, width=32))
        scores = scores[:, 0].astype(np.float32)
    else:
        scores = matrix(draw, n, 1, ends | st.floats(0.0, 1.0))[:, 0]
    label = st.sampled_from([ev.POSITIVE, ev.NEGATIVE, ev.IGNORED])
    labels = np.array(draw(st.lists(label, min_size=n, max_size=n)), dtype=np.int64)
    return pl.ScoredCloud(pc.PointCloud(matrix(draw, n, 3)), scores), labels


@st.composite
def feature_dumps(draw):
    n = draw(st.integers(0, 3))
    labels = np.array(draw(st.lists(INT64, min_size=n, max_size=n)), dtype=np.int64)
    return matrix(draw, n, ft.FEATURE_DIM), labels


@st.composite
def svm_models(draw):
    n, d = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    gamma, c, bias = draw(st.lists(FLOATS, min_size=3, max_size=3))
    return cls.SvmModel(
        draw(st.sampled_from(["linear", "rbf"])), gamma, c, bias,
        matrix(draw, n, 1)[:, 0], matrix(draw, n, d), matrix(draw, 1, d)[0], matrix(draw, 1, d)[0],
    )


@st.composite
def nb_models(draw):
    return cls.NaiveBayesHsv(matrix(draw, 2, 4), matrix(draw, 2, 4), matrix(draw, 1, 2)[0])


@pytest.fixture(autouse=True, scope="module")
def small_blocks():
    """Two rows per block, so these short files cross the block boundaries
    of the column-wise reader and writer."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_textio, "_BLOCK", 2)
        yield


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


def file_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# writers: byte-identical to the per-row writers; readers: equal to theirs
# ---------------------------------------------------------------------------


@SETTINGS
@given(cloud=clouds())
def test_cloud_file_pinned_to_per_row_oracle(scratch, cloud):
    pc.save_cloud(scratch / "new.cloud", cloud)
    save_cloud_per_row(scratch / "old.cloud", cloud)
    assert file_bytes(scratch / "new.cloud") == file_bytes(scratch / "old.cloud")
    assert same(load_cloud_per_row(scratch / "new.cloud"), cloud)


@SETTINGS
@given(dump=score_dumps())
def test_scores_file_pinned_to_per_row_oracle(scratch, dump):
    save_scores(scratch / "new.scores", *dump)
    save_scores_per_row(scratch / "old.scores", *dump)
    assert file_bytes(scratch / "new.scores") == file_bytes(scratch / "old.scores")
    assert same(load_scores(scratch / "new.scores"), load_scores_per_row(scratch / "new.scores"))


@SETTINGS
@given(dump=feature_dumps())
def test_features_file_pinned_to_per_row_oracle(scratch, dump):
    ft.save_features(scratch / "new.txt", *dump)
    save_features_per_row(scratch / "old.txt", *dump)
    assert file_bytes(scratch / "new.txt") == file_bytes(scratch / "old.txt")
    assert same(ft.load_features(scratch / "new.txt"), load_features_per_row(scratch / "new.txt"))


@SETTINGS
@given(model=svm_models())
def test_svm_file_pinned_to_per_row_oracle(scratch, model):
    cls.save_svm(scratch / "new.model", model)
    save_svm_per_row(scratch / "old.model", model)
    assert file_bytes(scratch / "new.model") == file_bytes(scratch / "old.model")
    assert same(cls.load_svm(scratch / "new.model"), load_svm_per_row(scratch / "new.model"))


# ---------------------------------------------------------------------------
# mutated files: FormatError or exactly the per-row reader's result
# ---------------------------------------------------------------------------

# bytes that turn numbers into other numbers, non-numbers or other lines
NEAR_MISS = list(b"0123456789 .-+eEinfa_x\t\n\r\x00\xff")


@st.composite
def mutations(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "flip", "insert", "duplicate", "drop", "append"]))
        byte = draw(st.sampled_from(NEAR_MISS) | st.integers(0, 255))
        lines = data.splitlines(keepends=True)
        if kind in ("duplicate", "drop") and lines:
            j = draw(st.integers(0, len(lines) - 1))
            lines[j:j + 1] = [lines[j]] * (2 if kind == "duplicate" else 0)
            data = b"".join(lines)
        elif kind == "append":
            data += draw(st.binary(max_size=6) | st.sampled_from([b"\n", b" \n", b"0\n", b"x", b"\n\n0 0\n"]))
        elif data:
            i = draw(st.integers(0, len(data) - 1))
            if kind == "truncate":
                data = data[:i]
            elif kind == "flip":
                data = data[:i] + bytes([byte]) + data[i + 1:]
            else:
                data = data[:i] + bytes([byte]) + data[i:]
    return data


FORMATS = {
    "scores": (score_dumps(), lambda p, d: save_scores_per_row(p, *d), load_scores, load_scores_per_row),
    "features": (feature_dumps(), lambda p, d: save_features_per_row(p, *d), ft.load_features, load_features_per_row),
    "svm": (svm_models(), save_svm_per_row, cls.load_svm, load_svm_per_row),
    "nb": (nb_models(), cls.save_nb, cls.load_nb, load_nb_per_line),
}


def mutated_file(draw, fmt, path) -> None:
    strategy, write, _, _ = FORMATS[fmt]
    write(path, draw(strategy))
    data = draw(mutations(file_bytes(path)))
    with open(path, "wb") as fh:
        fh.write(data)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_file_is_rejected_or_read_as_per_row(scratch, fmt, data):
    path = scratch / f"fuzz.{fmt}"
    mutated_file(data.draw, fmt, path)
    _, _, read, oracle = FORMATS[fmt]
    try:
        got = read(path)
    except FormatError:
        return
    assert same(got, oracle(path))


@SETTINGS
@given(data=st.data())
def test_pr_curve_on_a_rejected_scores_file_exits_2(scratch, data):
    path = scratch / "cli.scores"
    mutated_file(data.draw, "scores", path)
    try:
        load_scores(path)
    except FormatError:
        assert main(["pr-curve", "--scores", str(path), "--out", str(scratch / "cli-out")]) == 2


# ---------------------------------------------------------------------------
# bytes that are not UTF-8
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "read,data",
    [
        (load_scores, b"scores v1 1\n0 0 0 0.5 \xff\n"),
        (ft.load_features, b"features v1 1 36\n" + b"0 " * 36 + b"\xff\n"),
        (cls.load_svm, b"svm v1 rbf 0.5 1.0 0.0 0\n0\xff\n1\n"),
        (cls.load_nb, b"nbhsv v1\n0.5\n0 0 0 \xff\n"),
        (sg.load_manifest, b"train0000 1 \xff_labels.pgm\n"),
        (cfgmod.load_config, b"fx = \xff\n"),
        (mc.load_netspec, b"input 16 16 3\n# \xe9\n"),
    ],
    ids=["scores", "features", "svm", "nb", "manifest", "config", "netspec"],
)
def test_non_utf8_bytes_are_format_error(tmp_path, read, data):
    path = tmp_path / "f"
    path.write_bytes(data)
    with pytest.raises(FormatError):
        read(path)


def test_manifest_with_a_word_seed_is_cli_exit_2(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("train0000 seven train0000_labels.pgm\n")
    assert main(["train-nb", "--scenes", str(manifest), "--out", str(tmp_path / "o")]) == 2


def test_non_utf8_config_is_cli_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"thresholds = 11\n\xff\n")
    scores = tmp_path / "s.scores"
    scores.write_text("scores v1 1\n0.0 0.0 1.0 0.5 1\n")
    assert main(["pr-curve", "--config", str(cfg), "--scores", str(scores), "--out", str(tmp_path / "o")]) == 2
    assert not os.path.exists(tmp_path / "o" / "pr.csv")


# ---------------------------------------------------------------------------
# value and label arrays of different lengths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_labels", [2, 4])
def test_features_with_mismatched_labels_rejected(tmp_path, n_labels):
    path = tmp_path / "f.txt"
    with pytest.raises(InvalidInput):
        ft.save_features(path, np.zeros((3, 36)), np.arange(n_labels))
    assert not path.exists()


@pytest.mark.parametrize("n_labels", [1, 3])
def test_scores_with_mismatched_labels_rejected(tmp_path, n_labels):
    cloud = pc.PointCloud(np.arange(6, dtype=np.float64).reshape(2, 3))
    scored = pl.ScoredCloud(cloud, np.array([0.25, 0.75]), np.zeros((2, 2), dtype=np.intp))
    path = tmp_path / "s.scores"
    with pytest.raises(InvalidInput):
        save_scores(path, scored, np.ones(n_labels, dtype=np.int64))
    assert not path.exists()
