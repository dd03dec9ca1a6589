"""HOPE and HOPE+ must run when executors cannot import ``repro``.

The job scripts (``jobs/_session.py``) put ``src`` on the driver's
``sys.path`` only, so Python workers start without it.  A module-level
``repro`` function handed to ``mapInPandas`` is pickled by reference and
fails on the workers with ``ModuleNotFoundError: No module named 'repro'``.
The test suite exports ``PYTHONPATH=src``, which hides that, so this test
runs both algorithms in a subprocess set up like a job script.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = f"""
import sys
sys.path.insert(0, {str(ROOT / "jobs")!r})
from _session import get_spark
from repro.core import hope, hopeplus
from repro.metrics import accuracy
from repro.synth_data import bipartite_sbm
from repro.tables import labels_from_assignment

spark = get_spark("executor-imports")
ds = bipartite_sbm(n_u=60, n_v=40, n_edges=500, k=2, noise=0.05, seed=3)
edges = ds.to_spark(spark)
for algo in (hope, hopeplus):
    lab = labels_from_assignment(algo(edges, ds.k), ds.n_u)
    print(algo.__name__, accuracy(ds.labels_u, lab))
"""


def test_runs_with_src_on_driver_path_only(tmp_path):
    src = (ROOT / "src").resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in env.get("PYTHONPATH", "").split(os.pathsep)
        if p and Path(p).resolve() != src)
    env["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[2] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell")
    env["SPARK_SHUFFLE_PARTITIONS"] = "4"
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stderr[-4000:]
    acc = dict(line.split() for line in proc.stdout.splitlines()
               if line.startswith("hope"))
    assert set(acc) == {"hope", "hopeplus"}
    assert all(float(a) > 0.9 for a in acc.values()), acc
