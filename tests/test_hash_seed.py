"""A seeded outcome must not move with the interpreter's hash seed.

One script runs in a fresh interpreter under ``PYTHONHASHSEED`` 0-4.
First half: eight puts on a 4 x 64 MB cluster leave every key's two
backups with equal free bytes, so the master ``migrate_master`` elects
is a tie — once broken by set iteration order.  Second half: fitted
trees and maturation points from seeded streams (``ml`` never leaked).
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import hashlib, json
from repro.bench.datasets import function_dataset
from repro.bench.maturation import run_maturation
from repro.kvcache import CacheCluster
from repro.ml import J48Classifier
from repro.sim import Kernel
from repro.sim.latency import KB, MB
from repro.workloads.functions import ALL_FUNCTIONS

nodes = ["w0", "w1", "w2", "w3"]
kernel = Kernel()
cluster = CacheCluster(kernel, nodes, replication_factor=2)
for node in nodes:
    cluster.server(node).resize(64 * MB)
masters = []

def put_then_migrate():
    for i in range(8):
        yield from cluster.put(f"k{i}", "v", 64 * KB, caller="w0")
    for i in range(8):
        masters.append((yield from cluster.migrate_master(f"k{i}")))

kernel.run_process(put_then_migrate())

fitted = []
for name in ("wand_blur", "sharp_resize", "speech_recognize", "video_transcode"):
    dataset = function_dataset(ALL_FUNCTIONS[name], n=60, seed=0)
    tree = J48Classifier().fit(dataset)
    fitted.append((tree.n_nodes, tree.depth, tree.predict(dataset.rows).tolist()))
matured = run_maturation(
    max_invocations=150, functions=["audio_normalize", "wand_rotate"]
).per_function
digest = hashlib.sha256(json.dumps([fitted, matured], sort_keys=True).encode())
print(" ".join(masters), digest.hexdigest())
"""


def test_seeded_outcomes_do_not_move_with_the_hash_seed():
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = {}
    for hash_seed in "01234":
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs[hash_seed] = done.stdout.strip()
    assert len(outputs["0"].split()) == 9, outputs["0"]
    assert len(set(outputs.values())) == 1, outputs
