"""The behaviour contract as committed data: C6's per-threshold counts and
the SHA-256 digests of C7's CLI run, each stored with the platform it was
made on.

The contract is byte identity across changes, so the stored values are
compared on every host. Where the platform fingerprint differs from the
stored one, a failure names both, since the numbers may then have moved
with the platform rather than with the code.

A change that moves a count or a digest on purpose regenerates both files
in the same commit, from the repository root:

    PYTHONPATH=src python tests/contract.py

which prints each C7 file whose digest moved and each C6 curve point whose
counts moved, with the stored and the new values.
"""

import hashlib
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from peduncle import workflows as wf
from peduncle.cli import main as cli_main

DATA = Path(__file__).resolve().parent / "data"
C6_COUNTS = DATA / "c6_counts.json"
C7_DIGESTS = DATA / "c7_sha256.json"

C7_CONFIG = (
    "image_width = 160\nimage_height = 120\nfx = 140.0\nfy = 140.0\n"
    "cx = 79.5\ncy = 59.5\npepper_center = 0.0 0.01 0.33\n"
    "svm_max_train = 300\nthresholds = 11\n"
)


def fingerprint() -> dict:
    """numpy, scipy, the BLAS numpy was built against, the machine and the
    SIMD extensions numpy found on it (a DYNAMIC_ARCH OpenBLAS picks its
    kernels by them at run time)."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_kernels": blas.get("openblas configuration"),
        "machine": platform.machine(),
        "simd": config.get("SIMD Extensions", {}).get("found"),
    }


def run_c6():
    """The fixed-seed 200-scene benchmark the acceptance suite runs."""
    return wf.run_benchmark()


def c6_counts(results) -> dict:
    """{detector: {mode: [[tp, fp, fn, tn] per threshold]}} of the six curves."""
    return {
        det: {mode: [[p.tp, p.fp, p.fn, p.tn] for p in results[det][mode].points] for mode in ("raw", "filtered")}
        for det in ("pfh-svm", "cnn", "cnn-half")
    }


def run_c7(out, cfg) -> None:
    """C7's CLI run into directory out: scenes, both colour and margin
    models, features, the filter and the evaluation of pfh-svm."""
    scenes, models, feats = out / "scenes", out / "models", out / "feats"
    assert cli_main(["gen-scene", "--config", str(cfg), "--out", str(scenes),
                     "--count", "3", "--train", "1", "--seed", "29"]) == 0
    manifest = str(scenes / "manifest.txt")
    assert cli_main(["train-nb", "--config", str(cfg), "--scenes", manifest,
                     "--split", "train", "--out", str(models)]) == 0
    assert cli_main(["extract-features", "--config", str(cfg), "--scenes", manifest,
                     "--split", "train", "--out", str(feats)]) == 0
    assert cli_main(["train-svm", "--config", str(cfg),
                     "--features", str(feats / "features.txt"),
                     "--out", str(models)]) == 0
    assert cli_main(["filter", "--config", str(cfg), "--scenes", manifest,
                     "--split", "eval", "--models", str(models),
                     "--detector", "pfh-svm", "--out", str(out / "filt")]) in (0, 3)
    assert cli_main(["eval", "--config", str(cfg), "--scenes", manifest,
                     "--split", "eval", "--models", str(models),
                     "--detector", "pfh-svm", "--mode", "both",
                     "--out", str(out / "eval")]) == 0


def tree_hashes(directory) -> dict:
    """{relative path: SHA-256 hex digest} of every file under directory."""
    out = {}
    for root, _, names in os.walk(directory):
        for name in sorted(names):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def assert_matches(path: Path, got) -> None:
    """Asserts that got equals the values stored in path."""
    stored = json.loads(path.read_text())
    if got == stored["values"]:
        return
    here = fingerprint()
    where = ("on the platform they were made on" if here == stored["fingerprint"] else
             f"made on {stored['fingerprint']}, compared on {here}")
    raise AssertionError(f"{path.name}: {_first_difference(stored['values'], got)} ({where})")


def _first_difference(want, got, at="") -> str:
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                return _first_difference(want.get(key), got.get(key), f"{at}/{key}")
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            if w != g:
                return _first_difference(w, g, f"{at}[{i}]")
    return f"{at or 'values'} stored {want!r}, got {got!r}"


def c7_moves(stored: dict, digests: dict) -> list[str]:
    """One line per file of C7's run whose digest moved, appeared or went:
    its path and the first 12 hex digits of the stored and new digests."""
    return [
        f"{name}: {stored.get(name, 'absent')[:12]} -> {digests.get(name, 'absent')[:12]}"
        for name in sorted(set(stored) | set(digests)) if stored.get(name) != digests.get(name)
    ]


def c6_moves(stored: dict, results) -> list[str]:
    """One line per C6 curve point whose counts moved: the detector, the
    mode and the threshold, and the stored and new [tp, fp, fn, tn]."""
    lines = []
    for det, modes in c6_counts(results).items():
        for mode, rows in modes.items():
            old = stored.get(det, {}).get(mode, [])
            for i, (point, row) in enumerate(zip(results[det][mode].points, rows)):
                was = old[i] if i < len(old) else None
                if was != row:
                    lines.append(f"{det} {mode} threshold {point.threshold:.6g}: {was} -> {row}")
    return lines


def stored_values(path: Path):
    """The values stored in path, or {} when there is no such file."""
    return json.loads(path.read_text())["values"] if path.exists() else {}


def report(path: Path, lines: list[str]) -> None:
    print(f"{path.name}: {len(lines)} moved")
    for line in lines:
        print(f"  {line}")


def write(path: Path, values) -> None:
    """Stores values and this platform's fingerprint in path, one count row
    per line."""
    text = json.dumps({"fingerprint": fingerprint(), "values": values}, indent=1)
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
    path.parent.mkdir(exist_ok=True)
    path.write_text(text + "\n")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.cfg"
        cfg.write_text(C7_CONFIG)
        run_c7(Path(tmp) / "a", cfg)
        digests = tree_hashes(Path(tmp) / "a")
    report(C7_DIGESTS, c7_moves(stored_values(C7_DIGESTS), digests))
    write(C7_DIGESTS, digests)
    results = run_c6()
    report(C6_COUNTS, c6_moves(stored_values(C6_COUNTS), results))
    write(C6_COUNTS, c6_counts(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
