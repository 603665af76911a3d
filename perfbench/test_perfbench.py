"""The benchmark's own tests: the checker rejects wrong results, and every
workload runs end to end at smoke size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import check, fixtures
from perfbench.run import WORKLOADS, smoke

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def truth():
    wl = smoke(WORKLOADS["routed_write"])
    w = fixtures.world(wl.networks)
    tr = fixtures.traffic(w, fixtures.TrafficSpec(wl.rows, wl.shards, wl.hot_pool), 7,
                          "hot-write")
    return check.Truth(w, tr, tr.dir)


def _write_sinks(truth, out: Path, rows: np.ndarray, sink_of: np.ndarray) -> None:
    """A routed output holding ``rows`` (input row numbers), each in the
    sink ``sink_of`` names, with the values the truth expects."""
    for sink in sorted(set(sink_of.tolist())):
        idx = rows[sink_of == sink]
        sink = sink.split("/")
        country = truth.country[idx]
        geo = pa.StructArray.from_arrays(
            [pa.array(np.where(country == fixtures.MISS_KEY, None, country), pa.string()),
             pa.array(truth.city[idx], pa.string())],
            names=["country_code2", "city_name"])
        d = out / ("country=%s" % sink[0]) / ("tool=%s" % sink[1])
        d.mkdir(parents=True)
        pq.write_table(pa.table({
            "conv_id": pa.array(["conv-%08d" % (i // fixtures.TURNS_PER_CONV) for i in idx]),
            "turn_idx": pa.array((idx % fixtures.TURNS_PER_CONV).astype(np.int32)),
            "text": truth.text.take(pa.array(idx)),
            "geoip": geo,
        }), d / "part-00000.parquet")


def _sinks(truth) -> np.ndarray:
    """Each row's expected sink, as "<country>/<tool>"."""
    return np.array(["%s/%s" % k for k in zip(truth.country, truth.tool)], dtype=object)


def test_checker_accepts_the_truth(truth, tmp_path):
    rows = np.arange(truth.rows)
    _write_sinks(truth, tmp_path, rows, _sinks(truth))
    errors, files, size = check.check_routed(truth, str(tmp_path))
    assert errors == []
    assert files == len(truth.counts) and size > 0


def test_checker_rejects_a_moved_row(truth, tmp_path):
    sinks = _sinks(truth)
    other = next(s for s in sinks if s != sinks[5])
    sinks[5] = other
    _write_sinks(truth, tmp_path, np.arange(truth.rows), sinks)
    errors, _, _ = check.check_routed(truth, str(tmp_path))
    assert any("another sink" in e for e in errors)


def test_checker_rejects_a_dropped_row(truth, tmp_path):
    keep = np.arange(truth.rows) != 17
    _write_sinks(truth, tmp_path, np.arange(truth.rows)[keep], _sinks(truth)[keep])
    errors, _, _ = check.check_routed(truth, str(tmp_path))
    assert any("lost or duplicated" in e for e in errors)


def test_checker_rejects_a_duplicated_row(truth, tmp_path):
    rows = np.sort(np.concatenate([np.arange(truth.rows), [17]]))
    _write_sinks(truth, tmp_path, rows, _sinks(truth)[rows])
    errors, _, _ = check.check_routed(truth, str(tmp_path))
    assert any("lost or duplicated" in e for e in errors)


def test_checker_rejects_wrong_counts(truth):
    keys = sorted(truth.counts)
    result = pa.table({"country": [k[0] for k in keys], "tool": [k[1] for k in keys],
                       "n": [truth.counts[k] for k in keys]})
    assert check.check_counts(truth, result) == []
    moved = result.to_pydict()
    moved["n"][0] -= 1
    moved["n"][1] += 1
    assert len(check.check_counts(truth, pa.table(moved))) == 2


def _run(*args, cwd=HERE.parent, timeout=120):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_workload(workload):
    # traced on one workload so that both metric sets are exercised
    trace = "1" if workload == "routed_write" else "0"
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2, proc.stdout
    report, result = json.loads(lines[0]), json.loads(lines[1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in names} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "1":
        spans = json.loads((HERE.parent / report["trace_file"]).read_text())["spans"]
        assert {"setup.ray_init", "write.routed_bucketed_resumable"} <= {
            s["name"] for s in spans}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = _run("--workload", "hot_ips", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
