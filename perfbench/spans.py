"""Layer spans for the benchmark, recorded from outside the program.

Every layer-boundary function of the pipeline is wrapped where its callers
look it up: the wrapper is bound to each attribute of a loaded ``repro``
module that holds the original function object, so a call made through
any import path goes through it.  A *span* wrapper tags the Spark jobs the
call submits with its own job group (``sc.setJobGroup`` semantics,
restoring the caller's group on exit) and records its interval; a *count*
wrapper only counts calls (used for functions that build lazy plans and
submit no job themselves).  Spark's event log then attributes every job,
task and shuffle byte to the innermost span through
``Properties["spark.jobGroup.id"]``.

A boundary name that no longer exists is reported as absent, never as an
error, so a change that renames or merges a layer does not have to edit
the benchmark.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

GROUP = "spark.jobGroup.id"
DESC = "spark.job.description"

#: (module, function, kind).  Layer names are the module path below
#: ``repro`` plus the function name, e.g. ``linalg.svd_topk``.  The linalg
#: functions are looked up in the package, which re-exports them, so the
#: file that defines one can change.
BOUNDARIES = [
    ("repro.core.hope", "hope", "span"),
    ("repro.core.hope", "hop_embedding", "span"),
    ("repro.core.hope", "kmeans_assign", "span"),
    ("repro.core.hopeplus", "hopeplus", "span"),
    ("repro.core.hopeplus", "truncated_svd_of_skinny", "span"),
    ("repro.core.hopeplus", "snem_update", "count"),
    ("repro.core.hopeplus", "fnem_update", "count"),
    ("repro.linalg", "svd_topk", "span"),
    ("repro.linalg", "orthonormalize", "span"),
    ("repro.linalg", "gram", "span"),
    ("repro.linalg", "spgemm", "count"),
    ("repro.linalg", "matmul_small", "count"),
    ("repro.tables", "labels_from_assignment", "span"),
]


def layer_name(module: str, func: str) -> str:
    """``repro.linalg`` + ``svd_topk`` -> ``linalg.svd_topk``."""
    return f"{module.removeprefix('repro.')}.{func}"


@dataclass
class Span:
    id: str
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.wall - sum(c.wall for c in self.children)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


class Tracer:
    """Records nested spans and call counts for one SparkContext."""

    def __init__(self, sc):
        self.sc = sc
        self.stack: list[Span] = []
        self.bookkeeping_s = 0.0  # time the spans themselves take
        self.calls: dict[str, int] = {}
        self.absent: set[str] = set()
        self._n = 0

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        parent = self.stack[-1] if self.stack else None
        self._n += 1
        s = Span(f"perfbench-{self._n}", name, parent, time.time())
        if parent:
            parent.children.append(s)
        prev = (self.sc.getLocalProperty(GROUP),
                self.sc.getLocalProperty(DESC))
        self.sc.setLocalProperty(GROUP, s.id)
        self.sc.setLocalProperty(DESC, name)
        self.stack.append(s)
        self.bookkeeping_s += time.perf_counter() - t0
        try:
            yield s
        finally:
            t0 = time.perf_counter()
            s.end = time.time()
            self.stack.pop()
            self.sc.setLocalProperty(GROUP, prev[0])
            self.sc.setLocalProperty(DESC, prev[1])
            self.bookkeeping_s += time.perf_counter() - t0

    def _wrap(self, name: str, kind: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            if kind == "count":
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def instrument(self):
        """Bind wrappers over every boundary for the duration of the block,
        then put the original functions back."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "repro" or n.startswith("repro.")) and m is not None]
        patched: list[tuple[object, str, object]] = []
        for mod_name, func, kind in BOUNDARIES:
            name = layer_name(mod_name, func)
            fn = getattr(sys.modules.get(mod_name), func, None)
            if not callable(fn):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, kind, fn)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        patched.append((m, attr, fn))
                        setattr(m, attr, wrapper)
        try:
            yield self
        finally:
            for m, attr, fn in reversed(patched):
                setattr(m, attr, fn)


# -- event log ---------------------------------------------------------------

@dataclass
class Job:
    id: int
    group: str | None
    submit: float
    done: float = 0.0
    stages: list[int] = field(default_factory=list)
    tasks: int = 0
    failed_tasks: int = 0
    exec_run_s: float = 0.0
    exec_cpu_s: float = 0.0
    gc_s: float = 0.0
    shuffle_write_mb: float = 0.0
    shuffle_read_mb: float = 0.0
    peak_exec_mem_mb: float = 0.0


def event_log_busy_s(sc) -> float:
    """Seconds Spark's event-log listener thread has spent writing events,
    from the listener bus's own timer (0 if this Spark has none)."""
    timers = sc._jsc.sc().listenerBus().metrics().metricRegistry().getTimers()
    t = timers.get("queue.eventLog.listenerProcessingTime")
    if t is None:
        return 0.0
    return t.getCount() * t.getSnapshot().getMean() / 1e9


def read_event_log(log_dir: Path) -> list[Job]:
    """Jobs with their task totals from the (plain JSON lines) event log
    of the one finished application in ``log_dir``."""
    files = [p for p in log_dir.iterdir() if p.is_file()]
    if len(files) != 1:
        raise RuntimeError(f"expected one event log in {log_dir}, "
                           f"found {[p.name for p in files]}")
    jobs: dict[int, Job] = {}
    stage_job: dict[int, Job] = {}
    with files[0].open() as fh:
        for line in fh:
            ev = json.loads(line)
            kind = ev.get("Event")
            if kind == "SparkListenerJobStart":
                props = ev.get("Properties") or {}
                job = Job(ev["Job ID"], props.get(GROUP),
                          ev["Submission Time"] / 1e3,
                          stages=list(ev.get("Stage IDs", [])))
                jobs[job.id] = job
                for sid in job.stages:
                    stage_job.setdefault(sid, job)
            elif kind == "SparkListenerJobEnd":
                jobs[ev["Job ID"]].done = ev["Completion Time"] / 1e3
            elif kind == "SparkListenerTaskEnd":
                job = stage_job.get(ev["Stage ID"])
                if job is None:
                    continue
                info = ev.get("Task Info") or {}
                m = ev.get("Task Metrics") or {}
                sw = m.get("Shuffle Write Metrics") or {}
                sr = m.get("Shuffle Read Metrics") or {}
                job.tasks += 1
                job.failed_tasks += bool(info.get("Failed"))
                job.exec_run_s += m.get("Executor Run Time", 0) / 1e3
                job.exec_cpu_s += m.get("Executor CPU Time", 0) / 1e9
                job.gc_s += m.get("JVM GC Time", 0) / 1e3
                job.shuffle_write_mb += sw.get("Shuffle Bytes Written", 0) / 2**20
                job.shuffle_read_mb += (sr.get("Remote Bytes Read", 0)
                                        + sr.get("Local Bytes Read", 0)) / 2**20
                job.peak_exec_mem_mb = max(
                    job.peak_exec_mem_mb,
                    m.get("Peak Execution Memory", 0) / 2**20)
    return sorted(jobs.values(), key=lambda j: j.id)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float
             ) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cur), min(b, hi)
        if b > a:
            total += b - a
            cur = b
    return total


@dataclass
class LayerCost:
    calls: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0
    jobs: int = 0
    self_jobs: int = 0
    exec_run_s: float = 0.0
    shuffle_write_mb: float = 0.0
    driver_gap_s: float = 0.0


def layer_costs(root: Span, jobs: list[Job]) -> dict[str, LayerCost]:
    """Per span name: summed wall and self time, and the Spark cost of the
    jobs it submitted.  Each job belongs to the innermost span whose group
    it carries; the job-derived figures of a name include its descendants'
    jobs, except ``self_jobs``.  ``driver_gap_s`` is span wall time not
    covered by any of those jobs' submit-to-complete intervals."""
    by_group: dict[str, list[Job]] = {}
    for j in jobs:
        by_group.setdefault(j.group, []).append(j)
    out: dict[str, LayerCost] = {}
    for s in root.walk():
        own = by_group.get(s.id, [])
        incl = [j for d in s.walk() for j in by_group.get(d.id, [])]
        c = out.setdefault(s.name, LayerCost())
        c.calls += 1
        c.wall_s += s.wall
        c.self_s += s.self_s
        c.self_jobs += len(own)
        c.jobs += len(incl)
        c.exec_run_s += sum(j.exec_run_s for j in incl)
        c.shuffle_write_mb += sum(j.shuffle_write_mb for j in incl)
        c.driver_gap_s += s.wall - _covered(
            [(j.submit, j.done) for j in incl], s.start, s.end)
    return out
