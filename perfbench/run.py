"""HOPE / HOPE+ benchmark: time to clustering, quality and per-layer Spark cost.

    python3 perfbench/run.py --workload mag-snem --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload's graph is generated from
``--seed`` by ``repro.synth_data.make_dataset``; the pipeline runs through
the public API with library defaults (``hopeplus(edges, k, urt=...)`` or
``hope(edges, k)``, then ``tables.labels_from_assignment``) on a
``local[nproc]`` SparkSession, one run at a time.  Every run's output is
checked.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before
it give the run context in readable form.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import (LayerCost, Tracer, event_log_busy_s, layer_costs,
                   read_event_log)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    dataset: str
    size_factor: float
    method: str  # "snem" -> hopeplus(urt="snem"), "hope" -> hope
    why: str


# Why each workload exists; perfbench/README.md gives the measurements
# behind these choices and why a CORA HOPE+ workload was left out.
WORKLOADS = {
    "mag-snem": Workload(
        "MAG", 0.1, "snem",
        "HOPE+ SNEM, 242K weighted edges: bound by data volume in svd_topk, "
        "so spgemm and shuffle-byte changes show here, rounding ones barely"),
    "corafull-hope": Workload(
        "CORA-F", 0.05, "hope",
        "HOPE, k=70: SVD block width 217 and per-job overhead dominate; "
        "the only workload running kmeans_assign and skipping rounding"),
}

SETUPS = 3  # SparkSession start + ingest, repeated; setup_s is the median


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare_environment() -> dict[str, str]:
    """Point every scratch location of Spark and Python at ``.perfbench``
    under the checkout, and return the session config."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no source tree at {ROOT / 'src'}")
    shutil.rmtree(WORK, ignore_errors=True)
    for d in ("tmp", "local", "events"):
        (WORK / d).mkdir(parents=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    sys.path.insert(0, str(ROOT / "src"))
    conf = {
        "spark.master": f"local[{os.cpu_count()}]",
        "spark.driver.memory": "2g",
        "spark.driver.host": "127.0.0.1",
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={WORK / 'tmp'}",
        "spark.local.dir": str(WORK / "local"),
        "spark.sql.warehouse.dir": str(WORK / "warehouse"),
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        # The repository's own session settings (jobs/_session.py).
        "spark.sql.shuffle.partitions": "32",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
    }
    return conf


# Plain JSON lines: Spark 4 defaults to zstd-compressed rolling logs.
EVENT_LOG = {
    "spark.eventLog.enabled": "true",
    "spark.eventLog.dir": (WORK / "events").as_uri(),
    "spark.eventLog.compress": "false",
    "spark.eventLog.rolling.enabled": "false",
}


def set_up(conf: dict[str, str], ds):
    """Start a SparkSession and ingest the edges; returns (session, edges,
    seconds taken)."""
    from pyspark.sql import SparkSession
    t0 = time.perf_counter()
    b = SparkSession.builder.appName("perfbench")
    for k, v in conf.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    edges = ds.to_spark(spark).localCheckpoint(eager=True)
    return spark, edges, time.perf_counter() - t0


class CapturedFrame:
    """Stands in for the assignment DataFrame handed to
    ``labels_from_assignment`` and keeps the pandas frame it collects, so
    the output check sees every (id, cluster) row without a second run of
    the lazy pipeline.  If the frame is collected some other way, the
    check collects it again, after the timed region."""

    def __init__(self, df):
        self.df = df
        self.pdf = None

    def toPandas(self):
        self.pdf = self.df.toPandas()
        return self.pdf

    def __getattr__(self, name):
        return getattr(self.df, name)


def check_output(pdf, labels, ds) -> list[str]:
    """Every U vertex with an edge gets exactly one label in [0, k)."""
    import numpy as np
    problems = []
    ids = pdf["id"].to_numpy()
    cl = pdf["cluster"]
    want = np.unique(ds.edges["u"].to_numpy())
    if len(np.unique(ids)) != len(ids):
        problems.append(f"{len(ids) - len(np.unique(ids))} duplicate ids")
    if not np.array_equal(np.unique(ids), want):
        problems.append(f"labelled ids differ from the {len(want)} U "
                        "vertices with an edge")
    if cl.isna().any() or not cl.between(0, ds.k - 1).all():
        problems.append(f"a cluster outside [0, {ds.k})")
    if len(labels) != ds.n_u:
        problems.append(f"{len(labels)} labels for {ds.n_u} U vertices")
    return problems


def run_pipeline(edges, ds, method: str):
    """One end-to-end call as a user makes it; returns (seconds, labels,
    captured assignment frame).  Looks the API up at call time so the
    tracer's wrappers are used while they are bound."""
    core = sys.modules["repro.core"]
    tables = sys.modules["repro.tables"]
    t0 = time.perf_counter()
    if method == "snem":
        assign = core.hopeplus(edges, ds.k, urt="snem")
    else:
        assign = core.hope(edges, ds.k)
    cap = CapturedFrame(assign)
    labels = tables.labels_from_assignment(cap, ds.n_u)
    return time.perf_counter() - t0, labels, cap


@dataclass
class Outcome:
    wall: float
    labels: object
    problems: list[str]


def attempt(edges, ds, method: str) -> Outcome:
    try:
        wall, labels, cap = run_pipeline(edges, ds, method)
        pdf = cap.df.toPandas() if cap.pdf is None else cap.pdf
    except Exception:  # a failed run is counted, and the run goes on
        traceback.print_exc()
        return Outcome(float("nan"), None, ["raised"])
    return Outcome(wall, labels, check_output(pdf, labels, ds))


def quality(labels, ds, ref_labels) -> dict[str, float]:
    import numpy as np
    from repro.metrics import accuracy, nmi
    return {
        "acc": accuracy(ds.labels_u, labels),
        "nmi": nmi(ds.labels_u, labels),
        "nmi_vs_ref": nmi(ref_labels, labels),
        "clusters": int(len(np.unique(labels))),
    }


def reference(ds, method: str) -> tuple[object, float]:
    """The numpy reference on the same input, timed (context only)."""
    from repro.core.reference import build_pq, hope_ref, hopeplus_ref
    e = ds.edges
    t0 = time.perf_counter()
    P, Q = build_pq(e["u"].to_numpy(), e["v"].to_numpy(), e["w"].to_numpy(),
                    ds.n_u, ds.n_v)
    if method == "snem":
        lab = hopeplus_ref(P, Q, ds.k, urt="snem")
    else:
        lab = hope_ref(P, Q, ds.k)
    return lab, time.perf_counter() - t0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure(edges, ds, method: str, seconds: float) -> list[Outcome]:
    """Call the pipeline once, then again while one more call of the mean
    length so far would still end within ``seconds``.  A call slightly
    under ``seconds`` therefore never pulls a faster second call into the
    median."""
    outcomes: list[Outcome] = []
    t0 = time.perf_counter()
    while True:
        outcomes.append(attempt(edges, ds, method))
        spent = time.perf_counter() - t0
        if spent * (len(outcomes) + 1) / len(outcomes) > seconds:
            return outcomes


def traced_call(spark, edges, ds, method: str):
    """One call with every boundary wrapped, then the graph layers
    materialised once on their own (inside the pipeline their work is
    fused into later actions).  Also returns the tracing overhead: the
    spans' own time plus the event-log writer's busy time."""
    tracer = Tracer(spark.sparkContext)
    with tracer.instrument():
        with tracer.span("pipeline") as root:
            outcome = attempt(edges, ds, method)
    eventlog_s = event_log_busy_s(spark.sparkContext)
    graph = sys.modules.get("repro.core.graph")
    graph_spans = {}
    for func in ("q_edges", "p_edges"):
        fn = getattr(graph, func, None)
        if fn is None:
            tracer.absent.add(f"core.graph.{func}")
            continue
        with tracer.span(f"core.graph.{func}") as s:
            fn(edges).write.format("noop").mode("overwrite").save()
        graph_spans[func] = s
    return outcome, tracer, root, graph_spans, eventlog_s


def layer_metrics(tracer, root, graph_spans, eventlog_s, jobs, outcome, q,
                  ref_q, ref_s: float, k: int) -> dict:
    costs = layer_costs(root, jobs)
    for func, s in graph_spans.items():
        costs.update(layer_costs(s, jobs))

    def get(name: str) -> LayerCost:
        return costs.get(name, LayerCost())

    svd = get("linalg.svd_topk")
    ortho = get("linalg.orthonormalize")
    hopeplus = get("core.hopeplus.hopeplus")
    updates = (tracer.calls.get("core.hopeplus.snem_update", 0)
               + tracer.calls.get("core.hopeplus.fnem_update", 0))
    pipe = get("pipeline")
    ids = {s.id for s in root.walk()}
    window = [j for j in jobs if root.start <= j.submit <= root.end]
    m = {
        "linalg.svd_topk.wall_s": (svd.wall_s, "s"),
        "linalg.svd_topk.self_s": (svd.self_s, "s"),
        "linalg.svd_topk.jobs": (svd.jobs, "count"),
        "linalg.svd_topk.driver_gap_s": (svd.driver_gap_s, "s"),
        "linalg.svd_topk.exec_run_s": (svd.exec_run_s, "s"),
        "linalg.svd_topk.shuffle_write_mb": (svd.shuffle_write_mb, "MB"),
        "linalg.orthonormalize.calls": (ortho.calls, "count"),
        "linalg.orthonormalize.wall_s": (ortho.wall_s, "s"),
        "linalg.orthonormalize.jobs": (ortho.jobs, "count"),
        "linalg.gram.calls": (get("linalg.gram").calls, "count"),
        "linalg.gram.wall_s": (get("linalg.gram").wall_s, "s"),
        "linalg.spgemm.calls": (tracer.calls.get("linalg.spgemm", 0), "count"),
        "linalg.matmul_small.calls": (
            tracer.calls.get("linalg.matmul_small", 0), "count"),
        "core.hope.hop_embedding.self_s": (
            get("core.hope.hop_embedding").self_s, "s"),
        "core.hope.kmeans_assign.wall_s": (
            get("core.hope.kmeans_assign").wall_s, "s"),
        "core.hope.kmeans_assign.jobs": (
            get("core.hope.kmeans_assign").jobs, "count"),
        "core.hopeplus.truncated_svd_of_skinny.wall_s": (
            get("core.hopeplus.truncated_svd_of_skinny").wall_s, "s"),
        "core.hopeplus.truncated_svd_of_skinny.jobs": (
            get("core.hopeplus.truncated_svd_of_skinny").jobs, "count"),
        "core.hopeplus.rounding.self_s": (hopeplus.self_s, "s"),
        "core.hopeplus.rounding.jobs": (hopeplus.self_jobs, "count"),
        "core.hopeplus.rounding.passes": (
            updates + 1 if hopeplus.calls else 0, "count"),
        "tables.labels_from_assignment.wall_s": (
            get("tables.labels_from_assignment").wall_s, "s"),
        "core.graph.q_edges.wall_s": (get("core.graph.q_edges").wall_s, "s"),
        "core.graph.q_edges.jobs": (get("core.graph.q_edges").jobs, "count"),
        "core.graph.p_edges.wall_s": (get("core.graph.p_edges").wall_s, "s"),
        "core.graph.p_edges.jobs": (get("core.graph.p_edges").jobs, "count"),
        "core.reference.wall_s": (ref_s, "s"),
        "spark.jobs": (len(window), "count"),
        "spark.tasks": (sum(j.tasks for j in window), "count"),
        "spark.failed_tasks": (sum(j.failed_tasks for j in window), "count"),
        "spark.exec_run_s": (sum(j.exec_run_s for j in window), "s"),
        "spark.exec_cpu_s": (sum(j.exec_cpu_s for j in window), "s"),
        "spark.gc_s": (sum(j.gc_s for j in window), "s"),
        "spark.shuffle_write_mb": (
            sum(j.shuffle_write_mb for j in window), "MB"),
        "spark.shuffle_read_mb": (
            sum(j.shuffle_read_mb for j in window), "MB"),
        "spark.peak_exec_mem_mb": (
            max((j.peak_exec_mem_mb for j in window), default=0.0), "MB"),
        "spark.driver_gap_s": (pipe.driver_gap_s, "s"),
        "spark.core_util": (
            sum(j.exec_run_s for j in window)
            / (root.wall * os.cpu_count()), "ratio"),
        "trace.unattributed_jobs": (
            sum(j.group not in ids for j in window), "count"),
        "trace.absent_layers": (len(tracer.absent), "count"),
        "trace.traced_wall_s": (outcome.wall, "s"),
        "trace.eventlog_s": (eventlog_s, "s"),
        "trace.overhead_s": (eventlog_s + tracer.bookkeeping_s, "s"),
        "quality.acc": (q.get("acc", 0.0), "ratio"),
        "quality.nmi": (q.get("nmi", 0.0), "ratio"),
        "quality.nmi_vs_ref": (q.get("nmi_vs_ref", 0.0), "ratio"),
        "quality.clusters_missing": (
            k - q.get("clusters", 0), "count"),
        "quality.ref_acc": (ref_q["acc"], "ratio"),
        "quality.ref_nmi": (ref_q["nmi"], "ratio"),
    }
    return {k: metric(v, u) for k, (v, u) in m.items()}


def print_context(spark, wl: Workload, args, ds) -> None:
    """The run context: environment, session config, input and why."""
    jvm = spark.sparkContext._jvm
    keys = ("spark.master", "spark.sql.shuffle.partitions",
            "spark.sql.adaptive.enabled",
            "spark.sql.autoBroadcastJoinThreshold", "spark.driver.memory")
    sc_conf = spark.sparkContext.getConf()
    cfg = " ".join(
        f"{k}={sc_conf.get(k, None) or spark.conf.get(k)}" for k in keys)
    print(f"# env: nproc={os.cpu_count()} spark={spark.version} "
          f"java={jvm.System.getProperty('java.version')} "
          f"python={sys.version.split()[0]}")
    print(f"# session: {cfg}")
    print(f"# input: {args.workload} = {wl.dataset} x{wl.size_factor} "
          f"seed={args.seed} |U|={ds.n_u} |V|={ds.n_v} |E|={ds.n_edges} "
          f"k={ds.k} beta={5 * ds.k} method={wl.method}")
    print(f"# why: {wl.why}", flush=True)


def run_spark(args, wl: Workload, conf: dict[str, str], ds):
    """Set-up, then the measured calls.  Returns the set-up times, the call
    outcomes and, for a traced run, (tracer, root span, graph spans,
    event-log seconds, jobs).  A traced run sets up once and makes one
    traced call: the first call in a fresh JVM, like the call ``wall_s``
    measures."""
    if args.trace:
        spark, edges, t = set_up(conf | EVENT_LOG, ds)
        print_context(spark, wl, args, ds)
        outcome, *traced = traced_call(spark, edges, ds, wl.method)
        spark.stop()  # closes the event log
        jobs = read_event_log(WORK / "events")
        return [t], [outcome], (*traced, jobs)
    setup_times = []
    for i in range(SETUPS):
        if i:
            spark.stop()
        spark, edges, t = set_up(conf, ds)
        setup_times.append(t)
    print_context(spark, wl, args, ds)
    return setup_times, measure(edges, ds, wl.method, args.seconds), None


def stop_spark() -> None:
    """Stop the SparkContext, then the JVM pyspark launched, and wait for
    the JVM to exit (its Python workers end with it)."""
    from pyspark import SparkContext
    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    gateway.proc.stdin.close()  # the gateway server exits on stdin EOF
    gateway.proc.wait(timeout=60)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    conf = prepare_environment()

    import repro.core  # noqa: F401  (the tracer wraps loaded modules)
    import repro.tables  # noqa: F401
    from repro.synth_data import make_dataset

    ds = make_dataset(wl.dataset, seed=args.seed, size_factor=wl.size_factor)
    ref_labels, ref_s = reference(ds, wl.method)

    try:
        setup_times, outcomes, traced = run_spark(args, wl, conf, ds)
    finally:
        stop_spark()

    ok = [o for o in outcomes if not o.problems]
    for n, o in enumerate(outcomes):
        if o.problems:
            print(f"# call {n} FAILED: {'; '.join(o.problems)}")
    q = quality(ok[-1].labels, ds, ref_labels) if ok else {}
    ref_q = quality(ref_labels, ds, ref_labels)
    print(f"# quality: acc={q.get('acc', float('nan')):.4f} "
          f"nmi={q.get('nmi', float('nan')):.4f} "
          f"nmi_vs_ref={q.get('nmi_vs_ref', float('nan')):.4f} "
          f"clusters={q.get('clusters', 0)} of k={ds.k}; reference "
          f"acc={ref_q['acc']:.4f} nmi={ref_q['nmi']:.4f} "
          f"clusters={ref_q['clusters']} in {ref_s:.2f} s")
    walls = [o.wall for o in ok]
    print(f"# calls: {len(outcomes)} attempted, walls "
          + " ".join(f"{w:.3f}" for w in walls) + " s; setups "
          + " ".join(f"{t:.3f}" for t in setup_times) + " s")
    if len(ok) < len(outcomes):
        metrics = {}
    elif args.trace:
        metrics = layer_metrics(*traced, outcomes[0], q, ref_q, ref_s, ds.k)
    else:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": metric(wall, "s"),
            "edges_per_s": metric(ds.n_edges / wall, "1/s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "acc": metric(q["acc"], "ratio"),
            "nmi": metric(q["nmi"], "ratio"),
            "nmi_vs_ref": metric(q["nmi_vs_ref"], "ratio"),
            "ok_rate": metric(len(ok) / len(outcomes), "ratio"),
        }
    if args.trace:
        print(f"# absent layers: {sorted(traced[0].absent) or 'none'}")
        for k, v in metrics.items():
            print(f"# {k} = {v['value']:.6g} {v['unit']}")
    failed = len(outcomes) - len(ok)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
