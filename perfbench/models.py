"""Trained models shared by the detect, sweep and cli workloads.

The models are a build product of the library's own training functions
with fixed seeds, like a compiled binary: they are built once per source
tree into ``perfbench/cache/<key>/`` and reloaded by every later run, so a
run's set-up time measures loading and pre-scoring, not training. Training
speed has its own workload (``train``). The key hashes the package sources
and this file, so a changed library never reuses stale models.

Run as a script to build into a directory:

    python3 perfbench/models.py <out_dir>
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import time
from importlib import resources

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, "cache")
BUILD_TIMEOUT_S = 850

# The C6 distribution: the first 40 draws of the master seed are its
# training split, the rest its evaluation split. Models train on the last
# ten training draws so the cli workload (which generates the first draws)
# never scores a scene its models were trained on.
MASTER_SEED = 20240
C6_TRAIN = 40
MODEL_TRAIN = range(30, 40)
TRAIN_SEED = 0
# the C6 benchmark's CNN schedule (workflows.run_benchmark defaults)
CNN_SCHEDULE = dict(epochs=8, lr=0.03, lr_decay=0.85, per_scene=24)

FILES = ("nb.model", "svm.model", "net.spec", "net.weights")


def cache_key() -> str:
    """Digest of the package sources, shipped data and this build recipe."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "peduncle")
    paths = []
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, f) for f in sorted(filenames) if not f.endswith(".pyc")]
    for path in paths + [os.path.abspath(__file__)]:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def shipped_spec():
    from peduncle import minicnn as mc

    return mc.parse_netspec(resources.files("peduncle").joinpath("data/default_net.spec").read_text())


def build(out_dir: str, draws=MODEL_TRAIN, cnn_schedule=None) -> None:
    """Train NB, SVM and CNN on the given C6 training draws; write FILES.

    The tests pass fewer draws and a shorter schedule to get small models.
    """
    from peduncle import classifiers as cls
    from peduncle import minicnn as mc
    from peduncle import scenegen as sg
    from peduncle import workflows as wf

    params = sg.benchmark_params(C6_TRAIN, MASTER_SEED, sg.benchmark_base())
    scenes = [sg.generate(params[i]) for i in draws]
    nb = wf.train_nb_from_scenes(scenes, seed=TRAIN_SEED)
    feats, y = wf.collect_svm_training(scenes, per_scene=300, max_total=2000, seed=TRAIN_SEED)
    svm = cls.svm_train(feats, y, cls.SvmParams(seed=TRAIN_SEED))
    spec = shipped_spec()
    net = wf.train_cnn_from_scenes(scenes, spec, seed=TRAIN_SEED, **(cnn_schedule or CNN_SCHEDULE))
    os.makedirs(out_dir, exist_ok=True)
    cls.save_nb(os.path.join(out_dir, "nb.model"), nb)
    cls.save_svm(os.path.join(out_dir, "svm.model"), svm)
    mc.save_netspec(os.path.join(out_dir, "net.spec"), spec)
    net.save_weights(os.path.join(out_dir, "net.weights"))


def ensure_models() -> tuple[str, float]:
    """Directory holding the models of this source tree, building it in a
    child process when missing (the child's memory stays out of the
    parent's peak RSS). Returns (directory, build seconds or 0.0)."""
    final = os.path.join(CACHE, cache_key())
    if all(os.path.isfile(os.path.join(final, f)) for f in FILES):
        return final, 0.0
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), tmp],
        check=True,
        timeout=BUILD_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    elapsed = time.perf_counter() - start
    try:
        os.rename(tmp, final)
    except OSError:
        # another run finished the same build first
        shutil.rmtree(tmp, ignore_errors=True)
    return final, elapsed


def load(model_dir: str):
    """(nb, svm, net) from a model directory."""
    from peduncle import classifiers as cls
    from peduncle import minicnn as mc

    nb = cls.load_nb(os.path.join(model_dir, "nb.model"))
    svm = cls.load_svm(os.path.join(model_dir, "svm.model"))
    net = mc.Network.from_netspec(mc.load_netspec(os.path.join(model_dir, "net.spec")))
    net.load_weights(os.path.join(model_dir, "net.weights"))
    return nb, svm, net


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    build(sys.argv[1])
