"""In-memory span recorder installed around the program's public calls.

A span is ``[name, start_s, end_s, span_id, parent_id, extra]``: the
clock is ``time.perf_counter`` of the recording process, the parent is
the innermost span open in the same context (``contextvars``, so
asyncio tasks and threads keep separate stacks), and ``extra`` holds a
per-span count where one is meaningful (cells in an analytic pass).

Nothing here runs unless a process asks for it: program processes call
:func:`install` only when ``PERFBENCH_SPANS`` names an output file, and
:func:`dump` writes the spans there when the process exits.  Wrapping
replaces the function object everywhere the ``repro`` modules bind it
(``from x import f`` copies included), so call sites inside the program
are traced without touching ``src/``.
"""

from __future__ import annotations

import atexit
import contextvars
import cProfile
import functools
import itertools
import json
import os
import pstats
import resource
import sys
import threading
import time

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=0
)


class Recorder:
    """Collects spans in memory; one per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _open(self) -> tuple[int, contextvars.Token]:
        with self._lock:
            span_id = next(self._ids)
        return span_id, _CURRENT.set(span_id)

    def _close(self, name, start, span_id, token, extra) -> None:
        end = time.perf_counter()
        parent = token.old_value
        if parent is contextvars.Token.MISSING:
            parent = 0
        _CURRENT.reset(token)
        with self._lock:
            self.spans.append([name, start, end, span_id, parent, extra])

    def wrap(self, fn, name: str, count=None):
        """``fn`` wrapped in a span; ``count(args, kwargs)`` fills
        ``extra``."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = count(args, kwargs) if count else None
            span_id, token = recorder._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(name, start, span_id, token, extra)

        return traced


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def patch_function(recorder, module_name, attr, name, count=None) -> None:
    module = __import__(module_name, fromlist=[attr])
    original = getattr(module, attr)
    _rebind(original, recorder.wrap(original, name, count))


def patch_method(recorder, module_name, cls_name, attr, name, count=None):
    module = __import__(module_name, fromlist=[cls_name])
    cls = getattr(module, cls_name)
    setattr(cls, attr, recorder.wrap(getattr(cls, attr), name, count))


def _cells_arg(args, kwargs) -> int:
    cells = kwargs.get("cells", args[1] if len(args) > 1 else ())
    return len(cells)


#: (module, attribute or Class.method, span name, extra counter) for
#: every public call the per-layer metrics read.
TARGETS = (
    ("repro.pipeline.planner", "execute_plan", "pipeline.execute_plan", None),
    ("repro.runtime.runner", "execute_cells", "runtime.execute_cells", None),
    (
        "repro.runtime.diskcache",
        "DiskCache.get",
        "runtime.diskcache.get",
        None,
    ),
    (
        "repro.runtime.diskcache",
        "DiskCache.put",
        "runtime.diskcache.put",
        None,
    ),
    ("repro.governor.loop", "govern_run", "governor.govern_run", None),
    (
        "repro.sched.evaluation",
        "evaluate_policy",
        "sched.evaluate_policy",
        None,
    ),
    (
        "repro.core.params_sp",
        "SimplifiedParameterization.__init__",
        "core.sp_fit",
        None,
    ),
    (
        "repro.analytic.model",
        "AnalyticCampaignModel.evaluate_cells",
        "analytic.evaluate_cells",
        _cells_arg,
    ),
    ("repro.optimizer.search", "optimize", "optimizer.optimize", None),
    ("repro.service.protocol", "Request.json", "service.parse", None),
    (
        "repro.service.coalesce",
        "evaluate_points",
        "service.evaluate_points",
        None,
    ),
)


def _request_path(args, kwargs) -> str:
    return str(kwargs.get("path", args[2] if len(args) > 2 else ""))


#: Extra targets in fabric worker processes: every HTTP round trip to
#: the coordinator, tagged with its path.
WORKER_TARGETS = (
    ("repro.service.client", "ServiceClient.request", "fabric.http",
     _request_path),
)

def install(worker: bool = False) -> Recorder | None:
    """Wrap every target when ``PERFBENCH_SPANS`` is set; dump at exit."""
    out = os.environ.get("PERFBENCH_SPANS", "")
    if not out:
        return None
    # Import every module that may bind a target before rebinding, so
    # ``from x import f`` copies are found.
    import repro.experiments.registry as registry
    import repro.service.server  # noqa: F401
    import repro.fabric.worker  # noqa: F401

    registry.list_experiments()
    recorder = Recorder()
    targets = TARGETS + (WORKER_TARGETS if worker else ())
    for module_name, attr, name, count in targets:
        if "." in attr:
            cls_name, method = attr.split(".")
            patch_method(recorder, module_name, cls_name, method, name, count)
        else:
            patch_function(recorder, module_name, attr, name, count)
    atexit.register(dump, recorder, out)
    return recorder


def dump(recorder: Recorder, path: str) -> None:
    """Write the recorder's spans to ``path`` (JSON)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"pid": os.getpid(), "spans": recorder.spans}, handle)


def write_rss(path: str) -> None:
    """Record this process's and its reaped children's peak RSS (KiB)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "children_kb": resource.getrusage(
                    resource.RUSAGE_CHILDREN
                ).ru_maxrss,
            },
            handle,
        )


#: Packages whose cProfile self time is reported as ``<pkg>.self_frac``.
PROFILED_PACKAGES = ("sim", "mpi", "cluster", "npb", "core")


def package_self_time(profile: cProfile.Profile) -> dict[str, float]:
    """cProfile self time (s) grouped by ``repro.<package>``; everything
    outside those packages lands under ``other``."""
    totals: dict[str, float] = {}
    stats = pstats.Stats(profile).stats
    marker = os.sep + "repro" + os.sep
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in (
        stats.items()
    ):
        package = "other"
        if marker in filename:
            rest = filename.rsplit(marker, 1)[1]
            head = rest.split(os.sep, 1)[0]
            if os.sep in rest:
                package = head
        totals[package] = totals.get(package, 0.0) + tottime
    return totals


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: count, total seconds, durations, extra sum, and
    self seconds (duration minus the part covered by child spans)."""
    child_time: dict[int, float] = {}
    for _name, start, end, _sid, parent, _extra in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict] = {}
    for name, start, end, sid, _parent, extra in spans:
        entry = out.setdefault(
            name,
            {"count": 0, "total_s": 0.0, "self_s": 0.0, "durations": [],
             "extra": 0, "extras": []},
        )
        duration = end - start
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time.get(sid, 0.0)
        entry["durations"].append(duration)
        if isinstance(extra, int):
            entry["extra"] += extra
        entry["extras"].append(extra)
    return out
