"""The repository's benchmark: one workload per invocation, in its own
local Ray session, every pass checked against the generator's truth.

    python3 perfbench/run.py --workload hot_ips --seed 1 --seconds 4 --trace 0

Standard output carries two JSON lines: a run report (host facts, fixture
generation time, every pass's wall time and check result, and in traced
mode the spans file) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics. Everything else (Ray's own
logging included) goes to standard error. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

RAY_CPUS = 4
# every run starts this many Ray sessions: each is timed cold for
# setup_s and then runs its share of the timed passes, so that a run's
# median samples the host across the whole run, not one stretch of it
SESSIONS = 3
# untimed passes per session after the cold probe: the workers still read,
# decode and cache what the probe did not touch
WARMUP_PASSES = 1
OBJECT_STORE_BYTES = 768 << 20


@dataclasses.dataclass(frozen=True)
class Workload:
    rows: int
    shards: int
    hot_pool: Optional[int]  # None: addresses uniform over every network
    query: str               # "aggregate" or "write"
    networks: int


WORKLOADS = {
    # the reference's locality assumption: Zipf draws from ~500 addresses
    "hot_ips": Workload(rows=1_048_576, shards=16, hot_pool=500, query="aggregate",
                        networks=100_000),
    # every token distinct within a batch; working set far beyond the LRU
    "many_ips": Workload(rows=65_536, shards=16, hot_pool=None, query="aggregate",
                         networks=100_000),
    # hot traffic, full text and full City struct, resumable routed write
    "routed_write": Workload(rows=65_536, shards=8, hot_pool=500, query="write",
                             networks=100_000),
}


def label(wl: Workload) -> str:
    """Fixture name of a workload's traffic shape."""
    return "%s-%s" % ("hot" if wl.hot_pool else "many", wl.query)


def smoke(wl: Workload) -> Workload:
    """A few-second size of a workload, for the benchmark's own test."""
    return dataclasses.replace(wl, rows=8_192, shards=4, networks=2_000,
                               hot_pool=wl.hot_pool and 50)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory, one per call into a layer: name, start, end,
    parent span and the run's trace id. Disabled, ``span`` costs one branch."""

    def __init__(self, enabled: bool, trace_id: str):
        self.enabled = enabled
        self.trace_id = trace_id
        self.spans: List[dict] = []
        self._open: List[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name, "trace_id": self.trace_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"trace_id": self.trace_id, "spans": self.spans}))


# ---------------------------------------------------------------------------
# host facts and processes
# ---------------------------------------------------------------------------


def host_probes() -> dict:
    """The two single-core calibration probes of ``bench.py`` (sha256 over a
    buffer; allocate and first-touch a buffer), at 64 MiB, best of 3."""
    import numpy as np

    buf = b"\xa5" * (64 << 20)
    sha = touch = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        hashlib.sha256(buf).digest()
        sha = min(sha, time.perf_counter() - t0)
    del buf
    for _ in range(3):
        t0 = time.perf_counter()
        a = np.ones(1 << 23, dtype=np.float64)
        touch = min(touch, time.perf_counter() - t0)
        del a
    return {"sha256_64mb_s": sha, "alloc_touch_64mb_s": touch}


def steal_ticks() -> tuple:
    """(steal, total) CPU ticks of the whole machine so far: the time the
    hypervisor ran other guests on this machine's CPUs."""
    with open("/proc/stat") as f:
        ticks = [int(v) for v in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def _proc_table() -> dict:
    """pid -> (ppid, state) for every process visible in /proc."""
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        table[int(name)] = (int(fields[1]), fields[0])
    return table


def descendants() -> List[int]:
    table = _proc_table()
    out, frontier = [], [os.getpid()]
    while frontier:
        parent = frontier.pop()
        kids = [p for p, (pp, _) in table.items() if pp == parent]
        out += kids
        frontier += kids
    return out


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and all of its descendants."""
    total_kb = 0
    for pid in [os.getpid()] + descendants():
        try:
            with open("/proc/%d/status" % pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def _reap(pids: List[int], timeout: float) -> List[int]:
    """Wait until every pid has ended, and reap those that are this
    process's children; returns those still running or unreaped."""
    deadline = time.monotonic() + timeout
    me = os.getpid()
    while True:
        for pid in pids:
            with contextlib.suppress(ChildProcessError, OSError):
                os.waitpid(pid, os.WNOHANG)
        table = _proc_table()
        alive = [p for p in pids if p in table and (table[p][1] != "Z" or table[p][0] == me)]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


class RaySession:
    """A local Ray session with a fixed CPU count; ``stop`` shuts it down
    and waits until every process it started has ended."""

    def __init__(self, temp_dir: Optional[str]):
        self.temp_dir = temp_dir
        self.up = False

    def start(self) -> None:
        import ray

        self.up = True
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        kwargs = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
        ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES, **kwargs)
        import ray.data

        ctx = ray.data.DataContext.get_current()
        # the program's CLI runs its plans with these two settings
        ctx.enable_progress_bars = False
        ctx.op_resource_reservation_enabled = False

    def stop(self) -> None:
        """Shut Ray down, then end whatever it left behind."""
        started = descendants()
        if self.up:
            import ray

            self.up = False
            ray.shutdown()
        for pid in _reap(started, 30.0):
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
        _reap(started, 10.0)


# ---------------------------------------------------------------------------
# the measured operations
# ---------------------------------------------------------------------------


def read_blocks(shards: int) -> int:
    """The read-block rule of ``build_enriched``: one block per shard file,
    capped at ``max(4 * cpus, 64)``."""
    return min(shards, max(4 * RAY_CPUS, 64))


def aggregate_query(path: str, shards: int, config):
    """The plan ``build_enriched`` builds for aggregate-only consumers,
    composed from the same public stages, then the (country, tool) counts
    of ``sink_counts``.

    ``sink_counts`` gives its partial-count step ``batch_size=65536``; Ray
    fuses that step into the map chain and bundles blocks up to 65,536 rows
    per task, so an input under 65,536 rows per CPU runs on fewer tasks
    than CPUs (many_ips ran as one task). The benchmark calls the
    ``grouped_counts`` that ``sink_counts`` wraps with whole blocks
    instead, so every shard is one task, as at fleet scale."""
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import add_routing_keys
    from logstash_filter_geoip_ray.sources.readers import read_transcripts_parquet
    from logstash_filter_geoip_ray.stages.aggregate import grouped_counts
    from logstash_filter_geoip_ray.stages.enrich import WorkerCachedEnricher
    from logstash_filter_geoip_ray.stages.parse import make_extract_ips

    ds = read_transcripts_parquet(path, columns=["text", "tool"],
                                  override_num_blocks=read_blocks(shards))
    ds = ds.map_batches(make_extract_ips(drop_text=True), batch_format="pyarrow")
    ds = ds.map_batches(WorkerCachedEnricher(config), batch_format="pyarrow")
    ds = ds.map_batches(add_routing_keys(config.resolved_target()), batch_format="pyarrow")
    return grouped_counts(ds, ["country", "tool"], "n", batch_size=None,
                          sort_result=True).to_arrow_refs()


def routed_write(path: str, out_dir: str, config, shard_fn=None):
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        write_routed_bucketed_resumable,
    )

    shutil.rmtree(out_dir, ignore_errors=True)
    return write_routed_bucketed_resumable(path, out_dir, config=config, shard_fn=shard_fn)


@dataclasses.dataclass
class Pass:
    kind: str
    wall: float
    errors: List[str]


class Bench:
    """One workload's fixtures, truth and checked passes."""

    def __init__(self, wl: Workload, seed: int, trace: bool, work: Path):
        from logstash_filter_geoip_ray.functions.config import GeoIPConfig

        from perfbench import check, fixtures

        self.wl, self.work = wl, work
        self.world = fixtures.world(wl.networks)
        self.traffic = fixtures.traffic(
            self.world, fixtures.TrafficSpec(wl.rows, wl.shards, wl.hot_pool), seed, label(wl))
        self.full = (self.traffic.dir, wl.shards,
                     check.Truth(self.world, self.traffic, self.traffic.dir))
        # the first shard per Ray CPU: input of the cold set-up passes, so
        # that every worker starts, imports and opens the database there
        head = work / "first-shards"
        head.mkdir()
        for shard in sorted(Path(self.traffic.dir).glob("*.parquet"))[:RAY_CPUS]:
            shutil.copy(shard, head / shard.name)
        self.head = (str(head), RAY_CPUS, check.Truth(self.world, self.traffic, str(head)))
        self.country_config = GeoIPConfig(source="source_ip", database=self.world.path,
                                          fields=("country_code2",))
        self.full_config = GeoIPConfig(source="source_ip", database=self.world.path)
        self.tracer = Tracer(trace, uuid.uuid4().hex[:16])
        self.passes: List[Pass] = []
        self.sink = None  # (files, bytes) of the last checked routed write

    def aggregate_pass(self, kind: str, source) -> Pass:
        import pyarrow as pa
        import ray

        from perfbench import check

        path, shards, truth = source
        t0 = time.perf_counter()
        with self.tracer.span("pipeline.aggregate_query"):
            result = pa.concat_tables(ray.get(aggregate_query(path, shards, self.country_config)))
        p = Pass(kind, time.perf_counter() - t0, check.check_counts(truth, result))
        self.passes.append(p)
        return p

    def write_pass(self, kind: str, shard_fn=None) -> Pass:
        from perfbench import check

        path, _, truth = self.full
        out = self.work / ("out-%d" % len(self.passes))
        t0 = time.perf_counter()
        with self.tracer.span("write.routed_bucketed_resumable"):
            routed_write(path, str(out), self.full_config, shard_fn)
        wall = time.perf_counter() - t0
        errors, files, size = check.check_routed(truth, str(out))
        shutil.rmtree(out, ignore_errors=True)
        self.sink = (files, size)
        p = Pass(kind, wall, errors)
        self.passes.append(p)
        return p

    def query_pass(self, kind: str) -> Pass:
        if self.wl.query == "aggregate":
            return self.aggregate_pass(kind, self.full)
        return self.write_pass(kind)


def run(args) -> tuple:
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = smoke(wl)
    work = HERE / ".cache" / ("run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Ray binds unix sockets under its temp dir, whose paths may not exceed
    # 107 bytes; a checkout too deep for that uses Ray's default location
    temp_dir = str(HERE / ".cache" / ("r%d" % os.getpid()))
    session = RaySession(temp_dir if len(temp_dir) <= 40 else None)
    report = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
              "host": {"cpu_count": os.cpu_count(), "ray_cpus": RAY_CPUS,
                       "loadavg_before": os.getloadavg()}}
    # seconds since start at which each phase ended: where a run's time goes
    marks = report["timeline_s"] = {}
    t_start = time.perf_counter()

    def mark(name: str) -> None:
        marks[name] = time.perf_counter() - t_start

    try:
        report["fixtures"] = generate_fixtures(args)
        mark("fixtures")
        report["host"].update(host_probes())
        b = Bench(wl, args.seed, args.trace == 1, work)
        mark("truth")
        report["input"] = {"rows": wl.rows, "shards": wl.shards,
                           "distinct_ips": b.traffic.distinct_ips,
                           "networks": wl.networks, "hot_pool": wl.hot_pool}
        setup = []
        timed: List[float] = []
        steal = [0, 0]
        sessions = 1 if args.smoke else SESSIONS
        for k in range(sessions):
            t0 = time.perf_counter()
            with b.tracer.span("setup.ray_init"):
                session.start()
            t1 = time.perf_counter()
            with b.tracer.span("setup.first_pass"):
                first = b.aggregate_pass("setup", b.head)
            setup.append((t1 - t0, first.wall))
            for _ in range(WARMUP_PASSES):
                b.query_pass("warmup")
            steal0 = steal_ticks()
            t_end = time.perf_counter() + args.seconds / sessions
            n = len(timed)
            while len(timed) == n or time.perf_counter() < t_end:
                timed.append(b.query_pass("timed").wall)
            steal1 = steal_ticks()
            steal = [steal[0] + steal1[0] - steal0[0], steal[1] + steal1[1] - steal0[1]]
            mark("session%d" % (k + 1))
            if k < sessions - 1:
                session.stop()
        report["host"]["steal_share_timed"] = steal[0] / max(1, steal[1])
        median_wall = statistics.median(timed)
        metrics = {
            "setup_s": (statistics.median(i + f for i, f in setup), "s"),
            "turns_per_s": (wl.rows / median_wall, "turns/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        if args.trace:
            from perfbench import layers

            with b.tracer.span("pipeline.traced_pass"):
                traced = b.query_pass("traced").wall
            metrics = layers.measure(b, setup, median_wall, RAY_CPUS)
            metrics["trace.overhead_s"] = (traced - median_wall, "s")
            trace_path = HERE / ".cache" / "traces" / ("%s-s%d-%s.json" % (
                args.workload, args.seed, b.tracer.trace_id))
            b.tracer.write(trace_path)
            report["trace_file"] = str(trace_path.relative_to(ROOT))
    finally:
        session.stop()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(temp_dir, ignore_errors=True)
        mark("stopped")
    report["host"]["loadavg_after"] = os.getloadavg()
    report["setup"] = [{"ray_init_s": i, "first_pass_s": f} for i, f in setup]
    report["passes"] = [{"kind": p.kind, "wall_s": p.wall, "errors": p.errors[:5]}
                        for p in b.passes]
    failed = sum(1 for p in b.passes if p.errors)
    result = {"correct": failed == 0, "attempted": len(b.passes), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return report, result


def generate_fixtures(args) -> dict:
    """Builds the fixtures in a child process, so that neither their time
    nor their memory counts towards the run's own figures, then flushes
    them to disk so that their write-back does not overlap the timing."""
    from perfbench import fixtures

    wl = smoke(WORKLOADS[args.workload]) if args.smoke else WORKLOADS[args.workload]
    if fixtures.published(wl.networks, fixtures.TrafficSpec(wl.rows, wl.shards, wl.hot_pool),
                          args.seed, label(wl)):
        return {"cached": True}
    cmd = [sys.executable, str(HERE / "run.py"), "--fixtures-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, timeout=850).stdout
    os.sync()
    return json.loads(out.decode().strip().splitlines()[-1])


def fixtures_only(args) -> dict:
    from perfbench import fixtures

    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = smoke(wl)
    t0 = time.perf_counter()
    w = fixtures.world(wl.networks)
    t1 = time.perf_counter()
    fixtures.traffic(w, fixtures.TrafficSpec(wl.rows, wl.shards, wl.hot_pool), args.seed,
                     label(wl))
    return {"db_s": t1 - t0, "traffic_s": time.perf_counter() - t1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few-second input size")
    ap.add_argument("--fixtures-only", action="store_true",
                    help="build the fixtures for this workload and seed, then exit")
    args = ap.parse_args(argv)
    if not (ROOT / "logstash_filter_geoip_ray").is_dir():
        print("perfbench: the program (logstash_filter_geoip_ray/) is not beside "
              "perfbench/ under %s" % ROOT, file=sys.stderr)
        return 2
    # Ray's workers outlive the raylet that started them by a moment; as a
    # subreaper this process inherits them instead of init, so that stop()
    # reaps every one and a run leaves not even a zombie behind
    if sys.platform.startswith("linux"):
        import ctypes

        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    # a terminated run still shuts its Ray session down (see run's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # keep standard output for the two JSON lines: anything else written
    # to fd 1 (Ray, Arrow, worker output) lands on standard error
    out_fd = os.dup(1)
    os.dup2(2, 1)
    if args.fixtures_only:
        lines = [fixtures_only(args)]
    else:
        lines = list(run(args))
    with os.fdopen(out_fd, "w") as out:
        for line in lines:
            out.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
