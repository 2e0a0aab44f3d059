"""The four workloads: op lists, timed phases, output checks, metrics.

Each workload function takes a :class:`Run` and returns an
:class:`Outcome`.  The timed phase runs a fixed op list for several
rounds, each op after a host-speed probe (:mod:`calib`); end-to-end
figures come from those untraced rounds.  With ``--trace 1`` one more
round runs with the span wrappers installed in every program process
(its time against an untraced round is the tracing overhead), and the
per-layer metrics come from a traced pass of the workload's pipeline
(plus a cProfile pass on des-cold).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import random
import re
import time

from common import (
    BenchError,
    Http,
    Workspace,
    announced_port,
    median,
)
import calib
import spans

PAPER_MHZ = (600, 800, 1000, 1200, 1400)
PAPER_COUNTS = (1, 2, 4, 8, 16)
GRID = tuple((n, m) for n in PAPER_COUNTS for m in PAPER_MHZ)

#: Fresh program processes per run whose set-up times give ``setup_s``
#: on des-cold and pipeline-warm (the server workloads boot once a round).
CHILD_SETUPS = 9
#: Host seconds of one round of each workload's op list, which set how
#: many rounds fill ``--seconds``.
DES_ROUND_S = 2.0
PIPELINE_ROUND_S = 6.5
SERVICE_ROUND_S = 2.0
FABRIC_ROUND_S = 5.0
#: Ops in service-mix's list (closed loop, one connection, every round).
SERVICE_OPS = 450
#: Host-speed probes before each fabric campaign (the harness is idle
#: while one runs, and probing then would take a core from the worker).
FABRIC_PROBES = 10
#: Coordinator heartbeat (s), which bounds a worker's idle back-off.
HEARTBEAT_S = 0.05

HERE = pathlib.Path(__file__).resolve().parent

#: Every per-layer metric and its unit.  A layer a workload bypasses
#: reports 0, which is the prediction for that workload.
PER_LAYER = {
    "sim.events": "count",
    "sim.processes_spawned": "count",
    "sim.peak_queue_len": "count",
    "sim.host_us_per_event": "us",
    "sim.self_frac": "frac",
    "mpi.self_frac": "frac",
    "cluster.self_frac": "frac",
    "npb.self_frac": "frac",
    "core.self_frac": "frac",
    "runtime.cells_simulated": "count",
    "runtime.execute_cells_s": "s",
    "runtime.pool_busy_frac": "frac",
    "runtime.retries": "count",
    "runtime.crash_recoveries": "count",
    "runtime.diskcache.writes": "count",
    "runtime.diskcache.put_s": "s",
    "runtime.diskcache.reads": "count",
    "runtime.diskcache.hits": "count",
    "runtime.diskcache.get_s": "s",
    "pipeline.planned_cells": "count",
    "pipeline.deduped_cells": "count",
    "pipeline.executed_cells": "count",
    "pipeline.dedup_frac": "frac",
    "pipeline.plan_self_s": "s",
    "pipeline.fit_s": "s",
    "pipeline.analyze_s": "s",
    "governor.runs": "count",
    "governor.run_s": "s",
    "sched.evaluate_s": "s",
    "core.sp_fits": "count",
    "core.sp_fit_s": "s",
    "analytic.cells": "count",
    "analytic.evaluate_s": "s",
    "optimizer.optimize_s": "s",
    "service.response_cache.hit_frac": "frac",
    "service.predict.coalesced": "count",
    "service.batcher.mean_batch": "count",
    "service.requests_4xx": "count",
    "service.parse_ms": "ms",
    "service.predict_compute_ms": "ms",
    "service.jobs.queue_ms": "ms",
    "service.jobs.run_ms": "ms",
    "service.jobs.turnaround_ms": "ms",
    "fabric.leases_issued": "count",
    "fabric.round_trips": "count",
    "fabric.cells_per_lease": "count",
    "fabric.reassignments": "count",
    "fabric.worker_busy_frac": "frac",
    "fabric.lease_wait_ms": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "frac",
}


@dataclasses.dataclass
class Run:
    ws: Workspace
    seed: int
    seconds: int
    trace: bool
    tiny: bool = False
    corrupt: bool = False


@dataclasses.dataclass
class Outcome:
    clock: dict
    #: ``[seconds, probe seconds]`` of each set-up in the run.
    setup_s: list[list[float]]
    rss_kb: int
    attempted: int
    failed: int
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    detail: dict = dataclasses.field(default_factory=dict)


# -- references ---------------------------------------------------------------


def reference_key(name: str, n: int, mhz: float) -> str:
    return f"{name}.A/{n}@{mhz:g}"


def fabric_des_grids():
    """(benchmark, counts, MHz) of fabric-campaign's DES campaigns: cells
    of a few to tens of host ms each, in campaigns of 20-30 cells; EP.A
    N = 2..40 is split in eight, each with the N = 1 base its speedups
    need."""
    ep = [(1,) + tuple(range(lo, min(lo + 5, 41))) for lo in range(2, 41, 5)]
    return tuple(("ep", counts, PAPER_MHZ) for counts in ep) + (
        ("ft", (1, 2, 4, 8), PAPER_MHZ),
        ("mg", PAPER_COUNTS, PAPER_MHZ),
    )


_GOLDEN_CELL = re.compile(
    r'\("(\w+)", (\d+), mhz\((\d+)\)\): \(([-+.\deE]+), ([-+.\deE]+)\)'
)


def load_reference(root: pathlib.Path, corrupt: bool) -> dict[str, list]:
    """Reference cells: the recorded file, with the 12 cells pinned in
    ``tests/runtime/test_golden_cells.py`` taken from that file."""
    cells = json.loads((HERE / "reference_cells.json").read_text())
    golden = (root / "tests" / "runtime" / "test_golden_cells.py").read_text()
    matches = _GOLDEN_CELL.findall(golden)
    if len(matches) != 12:
        raise BenchError("could not read the 12 golden cells")
    for name, n, m, elapsed, energy in matches:
        cells[reference_key(name, int(n), float(m))] = [
            float(elapsed), float(energy)
        ]
    if corrupt:  # a cell every op list, tiny or not, contains
        key = reference_key("ep", 1, 600)
        cells[key] = [cells[key][0] * (1 + 1e-9), cells[key][1]]
    return cells


# -- runtime reductions -------------------------------------------------------


def reduce_runtime(snap: dict) -> dict:
    """What the metrics read from a ``campaign_metrics()`` snapshot."""
    simulated = [r for r in snap["records"] if r["source"] == "simulated"]
    disk = snap["disk_cache"]
    return {
        "cell_wall_s": [w for r in simulated for w in r["cell_wall_s"]
                        if r["analytic_cells"] == 0],
        "cells_simulated": sum(
            r["cells"] - r["analytic_cells"] for r in simulated
        ),
        "jobs": max((r["jobs"] for r in simulated), default=1),
        "retries": snap["retries"],
        "crash_recoveries": snap["crash_recoveries"],
        "events": snap["events_processed"],
        "processes_spawned": snap["processes_spawned"],
        "peak_queue_len": snap["peak_queue_len"],
        "disk_writes": disk.get("writes", 0),
        "disk_reads": disk.get("hits", 0) + disk.get("misses", 0),
        "disk_hits": disk.get("hits", 0),
    }


def merge_spans(files) -> dict[str, dict]:
    """Span summaries of several processes, merged by name."""
    merged: dict[str, dict] = {}
    for path in files:
        path = pathlib.Path(path)
        if not path.is_file():
            continue
        summary = spans.summarize(json.loads(path.read_text())["spans"])
        for name, entry in summary.items():
            into = merged.setdefault(
                name,
                {"count": 0, "total_s": 0.0, "self_s": 0.0, "durations": [],
                 "extra": 0, "extras": []},
            )
            for key in ("count", "total_s", "self_s", "extra"):
                into[key] += entry[key]
            into["durations"] += entry["durations"]
            into["extras"] += entry["extras"]
    return merged


def _total(summary, name, key="total_s") -> float:
    return summary.get(name, {}).get(key, 0)


def _median_ms(values) -> float:
    return median(values) * 1e3 if values else 0.0


def layer_metrics(summary, runtime, *, plan=None, stage_s=None,
                  profile=None) -> dict[str, float]:
    """Per-layer metrics shared by every workload (0 where bypassed)."""
    layers = {name: 0.0 for name in PER_LAYER}
    walls = runtime["cell_wall_s"]
    execute_s = _total(summary, "runtime.execute_cells")
    layers.update({
        "sim.events": runtime["events"],
        "sim.processes_spawned": runtime["processes_spawned"],
        "sim.peak_queue_len": runtime["peak_queue_len"],
        "sim.host_us_per_event": (
            sum(walls) / runtime["events"] * 1e6 if runtime["events"] else 0.0
        ),
        "runtime.cells_simulated": runtime["cells_simulated"],
        "runtime.execute_cells_s": execute_s,
        "runtime.pool_busy_frac": (
            sum(walls) / (runtime["jobs"] * execute_s) if execute_s else 0.0
        ),
        "runtime.retries": runtime["retries"],
        "runtime.crash_recoveries": runtime["crash_recoveries"],
        "runtime.diskcache.writes": runtime["disk_writes"],
        "runtime.diskcache.put_s": _total(summary, "runtime.diskcache.put"),
        "runtime.diskcache.reads": runtime["disk_reads"],
        "runtime.diskcache.hits": runtime["disk_hits"],
        "runtime.diskcache.get_s": _total(summary, "runtime.diskcache.get"),
        "pipeline.plan_self_s": _total(
            summary, "pipeline.execute_plan", "self_s"
        ),
        "governor.runs": _total(summary, "governor.govern_run", "count"),
        "governor.run_s": _total(summary, "governor.govern_run"),
        "sched.evaluate_s": _total(summary, "sched.evaluate_policy"),
        "core.sp_fits": _total(summary, "core.sp_fit", "count"),
        "core.sp_fit_s": _total(summary, "core.sp_fit"),
        "analytic.cells": _total(summary, "analytic.evaluate_cells", "extra"),
        "analytic.evaluate_s": _total(summary, "analytic.evaluate_cells"),
        "optimizer.optimize_s": _total(summary, "optimizer.optimize"),
        "service.parse_ms": _median_ms(
            summary.get("service.parse", {}).get("durations", [])
        ),
        "service.predict_compute_ms": _median_ms(
            summary.get("service.evaluate_points", {}).get("durations", [])
        ),
    })
    if plan is not None:
        layers["pipeline.planned_cells"] = plan["planned_cells"]
        layers["pipeline.deduped_cells"] = plan["deduped_cells"]
        layers["pipeline.executed_cells"] = plan["executed_cells"]
        layers["pipeline.dedup_frac"] = (
            plan["deduped_cells"] / plan["planned_cells"]
            if plan["planned_cells"] else 0.0
        )
    if stage_s is not None:
        for stage in ("fit", "analyze"):
            layers[f"pipeline.{stage}_s"] = sum(
                stages.get(stage, 0.0) for stages in stage_s.values()
            )
    if profile is not None:
        total = sum(profile.values())
        for package in spans.PROFILED_PACKAGES:
            layers[f"{package}.self_frac"] = profile.get(package, 0.0) / total
    return layers


def with_overhead(layers, traced_s, untraced_s) -> dict[str, float]:
    """Traced minus untraced time of the same op list."""
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return layers


# -- des-cold -----------------------------------------------------------------


def child_setups(run: Run, kind: str) -> list[list[float]]:
    """``[launch → ready seconds, probe seconds]`` of fresh program
    processes."""
    args = ["setup", "--kind", kind] + (["--tiny"] if run.tiny else [])
    clock = calib.Clock()
    samples = []
    for _ in range(CHILD_SETUPS):
        probe = clock.probe()
        launched = time.time()
        out = run.ws.run_child(args)
        samples.append([out["ready_epoch"] - launched, probe])
    return samples


def rounds(run: Run, round_s: float) -> int:
    """Rounds that fill ``--seconds`` at ``round_s`` seconds a round."""
    return 2 if run.tiny else max(2, round(run.seconds / round_s))


def work_s(clock: dict) -> float:
    """The op list's time at reference host speed (:func:`calib.scaled`)."""
    return sum(calib.scaled(clock).values())


def cell_failures(cells: dict, reference: dict) -> list:
    """Keys of every repeat whose (elapsed_s, energy_j) is not the
    reference, bit for bit."""
    return [key for key, values in cells.items() for value in values
            if reference.get(key) != value]


def des_cold(run: Run) -> Outcome:
    ws = run.ws
    tiny = ["--tiny"] if run.tiny else []
    reference = load_reference(ws.root, run.corrupt)
    setups = child_setups(run, "des-cold")
    args = ["des-rounds", "--rounds", str(rounds(run, DES_ROUND_S))] + tiny
    out = ws.run_child(args)
    failed = cell_failures(out["cells"], reference)
    attempted = sum(len(values) for values in out["cells"].values())
    outcome = Outcome(
        clock=out["clock"],
        setup_s=setups,
        rss_kb=out["rss_kb"],
        attempted=attempted,
        failed=len(failed),
        detail={"failures": failed[:3],
                "disk_cache": out["runtime"]["disk_cache"]},
    )
    if run.trace:
        traced = ws.run_child(["des-rounds", "--rounds", "1"] + tiny,
                              PERFBENCH_SPANS=str(ws.path("spans.json")))
        span_file = ws.path("spans.json")
        plan = ws.run_child(["des-plan"] + tiny,
                            REPRO_CACHE_DIR=str(ws.path("cache")),
                            PERFBENCH_SPANS=str(span_file))
        plan_failed = cell_failures(
            {key: [value] for key, value in plan["cells"].items()}, reference
        )
        outcome.attempted += len(plan["cells"])
        outcome.failed += len(plan_failed)
        profile = ws.run_child(["profile"] + tiny)["package_self_s"]
        outcome.layers = with_overhead(
            layer_metrics(
                merge_spans([span_file]),
                reduce_runtime(plan["runtime"]),
                plan=plan["plan"],
                profile=profile,
            ),
            work_s(traced["clock"]),
            work_s(calib.first_repeat(out["clock"])),
        )
        outcome.detail.update(
            plan=summary_plan(plan["plan"]),
            plan_wall_s=plan["wall_s"],
            profile_self_s=profile,
        )
    return outcome


def summary_plan(plan: dict) -> dict:
    return {k: plan[k] for k in ("planned_cells", "deduped_cells",
                                 "executed_cells", "cached_campaigns")}


# -- pipeline-warm ------------------------------------------------------------


def pipeline_warm(run: Run) -> Outcome:
    ws = run.ws
    tiny = ["--tiny"] if run.tiny else []
    golden = ws.root / "tests" / "experiments" / "golden_results.json"
    cache = {"REPRO_CACHE_DIR": str(ws.path("cache"))}
    fill = ws.run_child(["fill"] + tiny, **cache)
    setups = child_setups(run, "pipeline-warm")
    args = ["pipeline-rounds", "--golden", str(golden)] + tiny
    # One round per fresh process, so every round reads the disk cache.
    outs = [ws.run_child(args, **cache)
            for _ in range(rounds(run, PIPELINE_ROUND_S))]
    checks = [ok for out in outs for oks in out["checks"].values()
              for ok in oks]
    if run.corrupt:
        checks[0] = False
    outcome = Outcome(
        clock=calib.merge(out["clock"] for out in outs),
        setup_s=setups,
        rss_kb=max(out["rss_kb"] for out in [fill] + outs),
        attempted=len(checks),
        failed=checks.count(False),
        detail={
            "failures": sorted(key for out in outs
                               for key, oks in out["checks"].items()
                               if not all(oks))[:3],
            "fill_plan": summary_plan(fill["plan"]),
            "disk_cache": outs[0]["runtime"]["disk_cache"],
        },
    )
    if run.trace:
        traced = ws.run_child(args, PERFBENCH_SPANS=str(ws.path("spans.json")),
                              **cache)
        span_file = ws.path("spans.json")
        full = ws.run_child(["pipeline", "--golden", str(golden)] + tiny,
                            PERFBENCH_SPANS=str(span_file), **cache)
        outcome.attempted += len(full["checks"])
        outcome.failed += list(full["checks"].values()).count(False)
        outcome.layers = with_overhead(
            layer_metrics(
                merge_spans([span_file]),
                reduce_runtime(full["runtime"]),
                plan=full["plan"],
                stage_s=full["stage_s"],
            ),
            work_s(traced["clock"]),
            work_s(outs[0]["clock"]),
        )
        outcome.detail.update(plan=summary_plan(full["plan"]),
                              pass_wall_s=full["wall_s"])
    return outcome


# -- shared server plumbing ---------------------------------------------------


class Server:
    """A ``repro serve`` subprocess (plus optional fabric worker)."""

    def __init__(self, run: Run, *, warmup: str, traced: bool,
                 worker: bool = False) -> None:
        ws = run.ws
        self.ws = ws
        self.cache = ws.path("cache")
        self.span_files = []
        self.rss_files = [ws.path("serve-rss.json")]
        start = time.perf_counter()
        args = ["--port", "0", "--job-workers", "2"]
        if warmup:
            args += ["--warmup", warmup]
        self.proc, line = ws.start(
            "launch_serve.py", args,
            env=self._env(traced, self.rss_files[0]), announce=True,
        )
        self.port = announced_port(line)
        self.http = Http(self.port)
        self.worker = None
        if worker:
            self.rss_files.append(ws.path("worker-rss.json"))
            self.worker, _ = ws.start(
                "launch_worker.py",
                ["--port", str(self.port), "--procs", "2", "--name", "w1"],
                env=self._env(traced, self.rss_files[1]), announce=False,
            )
            self._await_worker()
        self.setup_s = time.perf_counter() - start

    def _env(self, traced: bool, rss: pathlib.Path) -> dict[str, str]:
        extra = {
            "REPRO_CACHE_DIR": str(self.cache),
            "PERFBENCH_RSS": str(rss),
            # An idle fabric worker sleeps one heartbeat before asking
            # again; the 1 s default would add a uniformly random
            # 0-1 s to every campaign.
            "REPRO_SERVE_HEARTBEAT": str(HEARTBEAT_S),
        }
        if traced:
            span_file = self.ws.path("spans.json")
            self.span_files.append(span_file)
            extra["PERFBENCH_SPANS"] = str(span_file)
        return self.ws.env(**extra)

    def _await_worker(self) -> None:
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            status, doc = self.http.call("GET", "/metrics")
            fabric = doc["service"]["fabric"] or {}
            if fabric.get("workers", {}).get("live", 0) >= 1:
                return
            if self.worker.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError("fabric worker did not register")

    def metrics(self) -> dict:
        return self.http.call("GET", "/metrics")[1]

    def wait_job(self, http: Http, job_id: str, poll_s: float) -> dict:
        deadline = time.perf_counter() + 120
        while time.perf_counter() < deadline:
            status, doc = http.call("GET", f"/jobs/{job_id}")
            if status != 200:
                raise BenchError(f"job {job_id}: HTTP {status} {doc}")
            if doc["status"] not in ("queued", "running"):
                return doc
            time.sleep(poll_s)
        raise BenchError(f"job {job_id} did not finish")

    def stop(self) -> int:
        """Graceful stop; returns the peak RSS (KiB) of its processes."""
        self.http.close()
        if self.worker is not None:
            self.ws.stop(self.worker)
        self.ws.stop(self.proc)
        rss = 0
        for path in self.rss_files:
            if path.is_file():
                doc = json.loads(path.read_text())
                rss = max(rss, doc["self_kb"], doc["children_kb"])
        return rss


def analytic_grid(rng: random.Random, benchmark: str, counts: int,
                  max_count: int, mhz) -> dict:
    """A seeded analytic campaign body: N = 1 (the speedup base) plus
    ``counts`` other counts drawn from 2..``max_count``."""
    return {
        "benchmark": benchmark,
        "class": "A",
        "counts": [1] + sorted(rng.sample(range(2, max_count + 1), counts)),
        "frequencies_mhz": sorted(mhz),
        "backend": "analytic",
    }


# -- service-mix --------------------------------------------------------------

#: Shares of service-mix's op list by kind; predicts make up the rest.
SERVICE_SHARES = {"invalid": 0.02, "campaign": 0.04, "optimize": 0.04}
OBJECTIVES = ("energy", "edp", "time")


def service_ops(seed: int, count: int) -> list[tuple[str, dict]]:
    """The seeded op list.  Its make-up is the same for every seed (the
    seed draws values and order), so seeds do not differ in how much
    work they ask for: 2 % predicts at an N outside the fitted grid,
    4 % analytic campaign jobs (N = 1 plus 3 counts up to 64, 3
    frequencies), 4 % optimize jobs (3 counts, objectives in turn), and
    predicts for the rest — ¾ single grid cells, which repeat, and ¼
    subsets of 2, 3, 4 or 5 cells in turn, which rarely do.  Each kind
    alternates between EP and FT."""
    rng = random.Random(seed)
    kinds = [kind for kind, share in SERVICE_SHARES.items()
             for _ in range(round(share * count))]
    kinds += ["predict"] * (count - len(kinds))
    rng.shuffle(kinds)
    ordinal = dict.fromkeys(kinds, 0)
    ops = []
    for kind in kinds:
        j = ordinal[kind]
        ordinal[kind] += 1
        bench = ("ep", "ft")[j % 2]
        if kind == "invalid":
            n = rng.choice((3, 5, 6, 12, 24))
            cell = f"{n}@{rng.choice(PAPER_MHZ)}MHz"
            ops.append((kind, {"benchmark": bench, "cells": [cell]}))
        elif kind == "campaign":
            ops.append((kind, analytic_grid(
                rng, bench, 3, 64, rng.sample(PAPER_MHZ, 3)
            )))
        elif kind == "optimize":
            ops.append((kind, {
                "benchmark": bench,
                "class": "A",
                "objective": OBJECTIVES[j % 3],
                "counts": sorted(rng.sample((1, 2, 4, 8, 16, 32), 3)),
                "confirm": False,
            }))
        else:
            size = 1 if j % 4 else 2 + (j // 4) % 4
            cells = sorted(rng.sample(GRID, size))
            ops.append((kind, {
                "benchmark": ("ep", "ft")[(j // 4) % 2],
                "cells": [f"{n}@{m}MHz" for n, m in cells],
            }))
    return ops


def drive(server: Server, ops, clock: calib.Clock) -> list:
    """Closed loop on one connection: each op is sent once the previous
    one (for jobs: the job itself) has finished, after one host-speed
    probe.  A request is timed at the client; a job from submission to
    finish on the server's clock, so the poll interval does not
    quantise it.  Returns one ``(kind, status, seconds, doc)`` per op."""
    records = []
    http = server.http
    for i, (kind, body) in enumerate(ops):
        clock.probe()
        start = time.perf_counter()
        if kind in ("predict", "invalid"):
            status, doc = http.call("POST", "/predict", body)
            seconds = time.perf_counter() - start
        else:
            status, doc = http.call("POST", f"/{kind}", body)
            seconds = time.perf_counter() - start
            if status == 202:
                doc = server.wait_job(http, doc["job_id"], 0.002)
                seconds = doc["finished_s"] - doc["submitted_s"]
        clock.record(f"{i:05d}.{kind}", seconds)
        records.append((kind, status, seconds, doc))
    return records


def service_expected(run: Run, cache: pathlib.Path, ops) -> dict:
    """Reference values of every op, keyed like the op list: predicts by
    benchmark and cell, jobs by op index."""
    wanted: dict = {"predict": {}, "campaign": {}, "optimize": {}}
    for i, (kind, body) in enumerate(ops):
        if kind == "predict":
            wanted["predict"].setdefault(body["benchmark"], set()).update(
                body["cells"]
            )
        elif kind in ("campaign", "optimize"):
            wanted[kind][str(i)] = body
    wanted["predict"] = {k: sorted(v) for k, v in wanted["predict"].items()}
    request = run.ws.path("verify-in.json")
    request.write_text(json.dumps(wanted))
    expected = run.ws.run_child(
        ["verify", "--input", str(request)], REPRO_CACHE_DIR=str(cache)
    )
    if run.corrupt:
        table = next(iter(expected["predict"].values()))
        first = sorted(table)[0]
        table[first]["time_s"] *= 1 + 1e-9
    return expected


def check_service(ops, records, expected) -> list:
    """Failed ops: predicts against in-process SP predictions,
    campaign jobs against the analytic model, optimize jobs against an
    in-process search, invalid predicts by status and error type."""
    failures = []
    for i, ((kind, body), (_, status, _, doc)) in enumerate(
        zip(ops, records)
    ):
        if kind == "invalid":
            ok = (status == 400
                  and doc.get("error", {}).get("type") == "MeasurementError")
        elif kind == "predict":
            reference = expected["predict"][body["benchmark"]]
            table = doc.get("predictions", {}) if status == 200 else {}
            ok = len(table) == len(body["cells"]) and all(
                table.get(key) == reference[key] for key in body["cells"]
            )
        elif status != 202 or doc.get("status") != "done":
            ok = False
        elif kind == "campaign":
            reference = expected["campaign"][str(i)]
            data = doc["result"]["data"]
            ok = len(data["times"]) == len(reference) and all(
                [data["times"].get(k + "MHz"), data["energies"].get(k + "MHz")]
                == value
                for k, value in reference.items()
            )
        else:
            ok = doc["result"] == expected["optimize"][str(i)]
        if not ok:
            failures.append([kind, body, status, doc])
    return failures


def job_times(records) -> dict[str, list[float]]:
    """Queue / run / turnaround seconds of each distinct job."""
    seen = {}
    for kind, status, _, doc in records:
        if kind in ("campaign", "optimize") and status == 202:
            seen[doc["job_id"]] = doc
    out = {"queue": [], "run": [], "turnaround": []}
    for doc in seen.values():
        out["queue"].append(doc["started_s"] - doc["submitted_s"])
        out["run"].append(doc["finished_s"] - doc["started_s"])
        out["turnaround"].append(doc["finished_s"] - doc["submitted_s"])
    return out


def service_layers(server: Server, metrics: dict, records) -> dict:
    service = metrics["service"]
    predict = service["predict"]
    layers = layer_metrics(
        merge_spans(server.span_files),
        reduce_runtime(metrics["campaign_runtime"]),
    )
    jobs = job_times(records)
    layers.update({
        "service.response_cache.hit_frac": (
            predict["cache_hits"] / predict["requests"]
            if predict["requests"] else 0.0
        ),
        "service.predict.coalesced": predict["coalesced"],
        "service.batcher.mean_batch": predict["batcher"]["mean_batch"],
        "service.requests_4xx": sum(
            count for status, count in
            service["requests"]["by_status"].items()
            if status.startswith("4")
        ),
        "service.jobs.queue_ms": _median_ms(jobs["queue"]),
        "service.jobs.run_ms": _median_ms(jobs["run"]),
        "service.jobs.turnaround_ms": _median_ms(jobs["turnaround"]),
    })
    return layers


def pin(pid: int, cpu: int) -> None:
    """Confine every thread of process ``pid`` (0: this thread) to
    ``cpu``; threads it starts later inherit that."""
    tids = [0] if pid == 0 else os.listdir(f"/proc/{pid}/task")
    for tid in map(int, tids):
        os.sched_setaffinity(tid, {cpu})


def service_round(run: Run, ops, traced: bool, cpu: int) -> dict:
    """One fresh server (boot and fits are one set-up sample) serving
    the whole op list.  While it serves, the server and this client run
    on one CPU: in a closed loop on one connection they take turns, and
    the probe before each op then sees the state of the CPU the op runs
    on (on two CPUs, a server slowed 1.8x went unseen by the probe)."""
    clock = calib.Clock(probes_per_op=1)
    probe = clock.probe()
    server = Server(run, warmup="ep:A,ft:A", traced=traced)
    allowed = os.sched_getaffinity(0)
    pin(server.proc.pid, cpu)
    pin(0, cpu)
    try:
        records = drive(server, ops, clock)
    finally:
        os.sched_setaffinity(0, allowed)
    metrics = server.metrics()
    rss = server.stop()
    return {"server": server, "clock": clock.as_dict(), "records": records,
            "metrics": metrics, "rss": rss, "setup": [server.setup_s, probe]}


def service_mix(run: Run) -> Outcome:
    ops = service_ops(run.seed, 60 if run.tiny else SERVICE_OPS)
    cpus = sorted(os.sched_getaffinity(0))
    rounds_ = [service_round(run, ops, False, cpus[i % len(cpus)])
               for i in range(rounds(run, SERVICE_ROUND_S))]
    expected = service_expected(run, rounds_[-1]["server"].cache, ops)
    failures = [failure for r in rounds_
                for failure in check_service(ops, r["records"], expected)]
    predict = rounds_[0]["metrics"]["service"]["predict"]
    jobs = job_times(rounds_[0]["records"])
    outcome = Outcome(
        clock=calib.merge(r["clock"] for r in rounds_),
        setup_s=[r["setup"] for r in rounds_],
        rss_kb=max(r["rss"] for r in rounds_),
        attempted=len(ops) * len(rounds_),
        failed=len(failures),
        detail={
            "failures": failures[:3],
            "ops": {k: sum(1 for op in ops if op[0] == k)
                    for k in ("predict", "invalid", "campaign", "optimize")},
            "response_cache_hit_frac": predict["cache_hits"]
            / max(predict["requests"], 1),
            "job_p50_ms": _median_ms(jobs["turnaround"]),
        },
    )
    if run.trace:
        traced = service_round(run, ops, True, min(os.sched_getaffinity(0)))
        outcome.layers = with_overhead(
            service_layers(traced["server"], traced["metrics"],
                           traced["records"]),
            work_s(traced["clock"]),
            work_s(rounds_[0]["clock"]),
        )
    return outcome


# -- fabric-campaign ----------------------------------------------------------


def fabric_jobs(seed: int, tiny: bool) -> list[dict]:
    """DES campaigns fixed by the grids above, then one seeded analytic
    grid.  The order is fixed, so every round and every seed submits
    the same DES work."""
    rng = random.Random(seed)
    bodies = [
        {"benchmark": name, "class": "A", "counts": list(counts),
         "frequencies_mhz": list(mhz), "backend": "des"}
        for name, counts, mhz in fabric_des_grids()
    ]
    if tiny:
        bodies = [{"benchmark": "ep", "class": "A", "counts": [1, 4],
                   "frequencies_mhz": [600, 1400], "backend": "des"}]
    bodies.append(
        analytic_grid(rng, "ep", 7 if tiny else 63, 128, PAPER_MHZ)
    )
    for body in bodies:
        body["fabric"] = True
    return bodies


def fabric_round(run: Run, bodies, traced: bool) -> dict:
    """A fresh coordinator and worker (one set-up sample) running the
    campaigns one after another, each timed from submission to finish
    on the coordinator's clock after a burst of host-speed probes."""
    clock = calib.Clock(probes_per_op=FABRIC_PROBES)
    probe = clock.probe()
    server = Server(run, warmup="", traced=traced, worker=True)
    jobs = []
    for i, body in enumerate(bodies):
        clock.probe()
        status, doc = server.http.call("POST", "/campaign", body)
        if status != 202:
            raise BenchError(f"campaign submit: HTTP {status} {doc}")
        job = server.wait_job(server.http, doc["job_id"], 0.01)
        clock.record(f"{i}.{body['benchmark']}.{body['backend']}",
                     job["finished_s"] - job["submitted_s"])
        jobs.append(job)
    metrics = server.metrics()
    rss = server.stop()
    return {"server": server, "jobs": jobs, "metrics": metrics, "rss": rss,
            "clock": clock.as_dict(), "setup": [server.setup_s, probe]}


def analytic_expected(run: Run, bodies) -> dict[int, dict]:
    """In-process AnalyticCampaignModel values of the analytic campaigns,
    by position in ``bodies``."""
    request = run.ws.path("verify-in.json")
    request.write_text(json.dumps({"campaign": {
        str(i): body for i, body in enumerate(bodies)
        if body["backend"] == "analytic"
    }}))
    expected = run.ws.run_child(["verify", "--input", str(request)])
    return {int(i): cells for i, cells in expected["campaign"].items()}


def check_fabric(bodies, jobs, reference, analytic) -> tuple[int, list]:
    """(attempted, failed cells) over every cell of every campaign."""
    attempted, failed = 0, []
    for i, (body, job) in enumerate(zip(bodies, jobs)):
        cells = [(n, m) for n in body["counts"]
                 for m in body["frequencies_mhz"]]
        attempted += len(cells)
        if job["status"] != "done":
            failed += [[body["benchmark"], n, m, job.get("error", "")]
                       for n, m in cells]
            continue
        data = job["result"]["data"]
        for n, m in cells:
            key = f"{n}@{m:g}"
            got = [data["times"].get(key + "MHz"),
                   data["energies"].get(key + "MHz")]
            if body["backend"] == "analytic":
                want = analytic[i][key]
            else:
                want = reference.get(reference_key(body["benchmark"], n, m))
            if got != want:
                failed.append([body["benchmark"], n, m, got, want])
    return attempted, failed


def des_walls(bodies, jobs) -> list[float]:
    return [
        w for body, job in zip(bodies, jobs) if body["backend"] == "des"
        for w in job["runtime"].get("cell_wall_s", [])
    ]


def fabric_layers(round_: dict, bodies) -> dict:
    server, jobs, metrics = round_["server"], round_["jobs"], round_["metrics"]
    summary = merge_spans(server.span_files)
    layers = layer_metrics(
        summary, reduce_runtime(metrics["campaign_runtime"])
    )
    fabric = metrics["service"]["fabric"]
    http = summary.get("fabric.http", {"durations": [], "extras": []})
    lease_ms = [d * 1e3 for d, path in zip(http["durations"], http["extras"])
                if path == "/fabric/lease"]
    des_jobs = [j for b, j in zip(bodies, jobs) if b["backend"] == "des"]
    busy_s = sum(j["finished_s"] - j["started_s"] for j in des_jobs)
    leases = fabric["leases"]["issued"]
    layers.update({
        "fabric.leases_issued": leases,
        "fabric.round_trips": sum(
            1 for path in http["extras"]
            if path in ("/fabric/lease", "/fabric/complete")
        ),
        "fabric.cells_per_lease": (
            fabric["cells"]["completed"] / leases if leases else 0.0
        ),
        "fabric.reassignments": fabric["cells"]["reassigned"],
        "fabric.worker_busy_frac": (
            sum(des_walls(bodies, jobs)) / (2 * busy_s) if busy_s else 0.0
        ),
        "fabric.lease_wait_ms": median(lease_ms) if lease_ms else 0.0,
    })
    return layers


def fabric_campaign(run: Run) -> Outcome:
    bodies = fabric_jobs(run.seed, run.tiny)
    reference = load_reference(run.ws.root, run.corrupt)
    rounds_ = [fabric_round(run, bodies, False)
               for _ in range(rounds(run, FABRIC_ROUND_S))]
    analytic = analytic_expected(run, bodies)
    attempted, failed = 0, []
    for round_ in rounds_:
        a, f = check_fabric(bodies, round_["jobs"], reference, analytic)
        attempted += a
        failed += f
    outcome = Outcome(
        clock=calib.merge(r["clock"] for r in rounds_),
        setup_s=[r["setup"] for r in rounds_],
        rss_kb=max(r["rss"] for r in rounds_),
        attempted=attempted,
        failed=len(failed),
        detail={
            "failures": failed[:3],
            "leases_issued": [r["metrics"]["service"]["fabric"]["leases"]
                              ["issued"] for r in rounds_],
        },
    )
    if run.trace:
        traced = fabric_round(run, bodies, True)
        outcome.layers = with_overhead(
            fabric_layers(traced, bodies), work_s(traced["clock"]),
            work_s(rounds_[0]["clock"]),
        )
    return outcome


WORKLOADS = {
    "des-cold": des_cold,
    "pipeline-warm": pipeline_warm,
    "service-mix": service_mix,
    "fabric-campaign": fabric_campaign,
}
