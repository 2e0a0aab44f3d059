"""The fabric worker loop (``repro-worker``).

A worker registers with the coordinator, leases a slice of cells,
runs them, and **streams completions back as each cell finishes**, so
the coordinator's straggler and requeue logic always sees fresh
progress, not a silent worker that dumps everything at lease end.

The cells run on the worker's own
:class:`~repro.runtime.runner.CellExecutor`, the executor the local
runner uses, with ``procs`` (``--procs`` / ``REPRO_WORKER_PROCS``,
default ``os.cpu_count()``) pool processes and ``stall_timeout_s`` as
its stall timeout.  The worker ships every wave the executor yields:
one cell at a time in-process, one completion step at a time from the
pool, one vectorized pass for a lease tagged ``backend="analytic"``.
Exceptions and stalled cells are shipped as billed failure reports
(the coordinator owns the retry budget); crashed cells are rerun by the
executor and never reported.  The worker registers ``procs`` as its
*capacity* so the coordinator sizes leases to keep the pool fed.

The worker is also the injection point for the distributed failure
modes (:data:`repro.runtime.faults.WORKER_FAULT_KINDS`): when a fault
plan is armed (``REPRO_FAULTS`` in the worker's environment, or a plan
passed explicitly in tests) and a leased cell draws a distributed
fault, the worker misbehaves *on purpose* — dies mid-lease, stops
heartbeating, completes after its lease expired, corrupts a payload
after checksumming it, or sends the same completion twice.  Draws are
keyed on the cell, so a chaos fleet is reproducible no matter which
worker wins each lease.  The resolved plan is also passed *into* pool
children explicitly (plans are pid-scoped), so in-cell fault kinds
(``crash``/``hang``/``exception``/``corrupt``) fire inside worker
subprocesses exactly as they do in the local runner's pool.

``kill_mode`` selects how ``worker_kill`` dies: ``"exit"`` calls
``os._exit`` (subprocess fleets, the real failure), ``"stop"`` ends
the loop abruptly without completing (in-thread test workers, where
``os._exit`` would take the test process down with it).
"""

from __future__ import annotations

import argparse
import base64
import os
import pickle
import threading
import time
import typing as _t

from repro.fabric.coordinator import result_checksum
from repro.runtime import faults
from repro.runtime.runner import CellAttempt, CellExecutor
from repro.service.client import ServiceClient, ServiceError

__all__ = ["FabricWorker", "main", "resolve_worker_procs"]


def resolve_worker_procs(explicit: int | None = None) -> int:
    """Local simulation processes per worker.

    Precedence: explicit ``--procs`` > ``REPRO_WORKER_PROCS`` >
    ``os.cpu_count()``.
    """
    if explicit is not None:
        return max(1, int(explicit))
    raw = os.environ.get("REPRO_WORKER_PROCS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


class _WorkerKilled(Exception):
    """Internal unwind for ``worker_kill`` in ``kill_mode="stop"``."""


class FabricWorker:
    """One fleet member: lease → simulate → stream completions → repeat."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        *,
        name: str = "",
        kill_mode: str = "exit",
        max_idle_s: float | None = None,
        plan: faults.FaultPlan | None = None,
        timeout_s: float = 30.0,
        procs: int | None = None,
        stall_timeout_s: float | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.name = name or f"pid-{os.getpid()}"
        if kill_mode not in ("exit", "stop"):
            raise ValueError(
                f"kill_mode must be 'exit' or 'stop', not {kill_mode!r}"
            )
        self.kill_mode = kill_mode
        self.max_idle_s = max_idle_s
        self._plan = plan
        # procs defaults to 1 here (in-thread test fleets stay
        # serial); the CLI resolves env/cpu_count via
        # resolve_worker_procs before constructing.
        self.procs = max(1, int(procs or 1))
        self.stall_timeout_s = (
            float(stall_timeout_s)
            if stall_timeout_s and stall_timeout_s > 0
            else None
        )
        self.worker_id: str | None = None
        self.heartbeat_s = 1.0
        self.lease_ttl_s = 5.0
        self.worker_timeout_s = 5.0
        self.cells_done = 0
        self.leases_taken = 0
        self._client = ServiceClient(
            host, port, timeout_s=timeout_s, retries=4
        )
        self._hb_client: ServiceClient | None = None
        self._executor = CellExecutor(self.procs)
        self._stop = threading.Event()
        self._hb_suppressed = threading.Event()
        self._hb_lease: str | None = None
        self._hb_thread: threading.Thread | None = None

    # -- plumbing -----------------------------------------------------------

    @property
    def pool_rebuilds(self) -> int:
        """Pool resets after a crash or a stall, over all leases."""
        return self._executor.rebuilds

    @property
    def reconnects(self) -> int:
        """Keep-alive connections re-established across both HTTP
        clients (lease loop + heartbeat thread)."""
        count = self._client.reconnects
        if self._hb_client is not None:
            count += self._hb_client.reconnects
        return count

    def _post(self, path: str, body: dict[str, _t.Any]) -> _t.Any:
        # Fabric POSTs are all safe to retry: completions deduplicate
        # by cell, a duplicate registration is a harmless extra worker
        # record, and an orphaned lease simply expires.
        return self._client.request("POST", path, body, retry=True)

    def _register(self) -> None:
        doc = self._post(
            "/fabric/register",
            {"name": self.name, "capacity": self.procs},
        )
        self.worker_id = doc["worker_id"]
        self.heartbeat_s = float(doc.get("heartbeat_s", 1.0))
        self.lease_ttl_s = float(doc.get("lease_ttl_s", 5.0))
        self.worker_timeout_s = float(
            doc.get("worker_timeout_s", self.lease_ttl_s)
        )

    def _stall_s(self) -> float:
        """Sleep long enough that the coordinator must act: past both
        the lease TTL and the worker death window, with margin."""
        return 1.5 * max(self.lease_ttl_s, self.worker_timeout_s)

    def _heartbeat_loop(self) -> None:
        # Own client: ServiceClient is not thread-safe.
        self._hb_client = ServiceClient(
            self.host, self.port, timeout_s=10.0, retries=2
        )
        with self._hb_client as client:
            while not self._stop.is_set():
                if self._stop.wait(self.heartbeat_s):
                    return
                if self._hb_suppressed.is_set():
                    continue
                if self.worker_id is None:
                    continue
                try:
                    client.request(
                        "POST",
                        "/fabric/heartbeat",
                        {
                            "worker_id": self.worker_id,
                            "lease_id": self._hb_lease,
                        },
                        retry=True,
                    )
                except (ServiceError, OSError):
                    continue  # the lease loop handles re-registration

    def stop(self) -> None:
        """Ask the worker loop to exit (in-thread fleets)."""
        self._stop.set()

    # -- the loop -----------------------------------------------------------

    def run(self) -> int:
        """Work until drained, stopped, or idle past ``max_idle_s``.

        Returns the number of cells completed (handy for tests and
        for the console script's log line).
        """
        self._register()
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"fabric-hb-{self.name}",
            daemon=True,
        )
        self._hb_thread.start()
        idle_since: float | None = None
        outage_since: float | None = None
        try:
            while not self._stop.is_set():
                try:
                    doc = self._post(
                        "/fabric/lease", {"worker_id": self.worker_id}
                    )
                except ServiceError as error:
                    if error.error_type == "unknown_worker":
                        # Declared dead while we stalled; rejoin.
                        try:
                            self._register()
                        except OSError:
                            pass  # charged as an outage below
                        continue
                    raise
                except OSError:
                    # Coordinator unreachable past the client's retry
                    # budget.  Wait for it to come back — a restart
                    # must not shed the fleet — but charge the outage
                    # against max_idle_s so an orphaned worker still
                    # terminates instead of dying with a traceback.
                    now = time.monotonic()
                    if outage_since is None:
                        outage_since = now
                    if (
                        self.max_idle_s is not None
                        and now - outage_since >= self.max_idle_s
                    ):
                        return self.cells_done
                    self._stop.wait(self.heartbeat_s)
                    continue
                outage_since = None
                if doc.get("drain"):
                    return self.cells_done
                if doc.get("idle"):
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    if (
                        self.max_idle_s is not None
                        and now - idle_since >= self.max_idle_s
                    ):
                        return self.cells_done
                    self._stop.wait(
                        min(
                            float(
                                doc.get("backoff_s", self.heartbeat_s)
                            ),
                            self.heartbeat_s,
                        )
                    )
                    continue
                idle_since = None
                self.leases_taken += 1
                self._process_lease(doc)
        except _WorkerKilled:
            pass
        finally:
            self._stop.set()
            self._executor.shutdown()
        return self.cells_done

    def _die(self) -> None:
        if self.kill_mode == "exit":
            os._exit(86)
        raise _WorkerKilled()

    # -- lease processing ---------------------------------------------------

    def _ship(
        self,
        lease_id: str,
        batch_id: str,
        results: list[dict[str, _t.Any]],
        failures: list[dict[str, _t.Any]],
    ) -> None:
        """Stream one completion wave back to the coordinator."""
        if not results and not failures:
            return
        response = self._post(
            "/fabric/complete",
            {
                "worker_id": self.worker_id,
                "lease_id": lease_id,
                "batch_id": batch_id,
                "results": results,
                "failures": failures,
            },
        )
        self.cells_done += len(results)
        if response.get("reregister"):
            self._register()

    @staticmethod
    def _completion(
        n: int,
        f: float,
        attempt: int,
        time_s: float,
        energy_j: float,
        wall_s: float,
        stats: dict[str, int],
    ) -> dict[str, _t.Any]:
        return {
            "cell": [n, f],
            "attempt": attempt,
            "time_s": time_s,
            "energy_j": energy_j,
            "wall_s": wall_s,
            "engine_stats": stats,
            "checksum": result_checksum(n, f, time_s, energy_j),
        }

    def _apply_worker_fault(
        self,
        kind: str | None,
        completion: dict[str, _t.Any],
        duplicates: list[dict[str, _t.Any]],
        deferred: list[dict[str, _t.Any]],
    ) -> bool:
        """Mutate a completion per its distributed fault draw.

        Returns True when the completion must be *deferred* (the
        lease_race straggler: delivered only after the lease expired)
        instead of streamed now.
        """
        if kind == "corrupt_result":
            # Checksummed first, corrupted second: exactly the
            # bit-flip-in-flight the quarantine exists for.
            completion["energy_j"] = completion["energy_j"] + 1.0
        elif kind == "dup_complete":
            duplicates.append(dict(completion))
        elif kind == "lease_race":
            deferred.append(completion)
            return True
        return False

    def _process_lease(self, doc: dict[str, _t.Any]) -> None:
        benchmark, spec = pickle.loads(
            base64.b64decode(doc["payload"])
        )
        lease_id = doc["lease_id"]
        batch_id = doc["batch_id"]
        backend = str(doc.get("backend", "des"))
        self._hb_lease = lease_id
        plan = (
            self._plan
            if self._plan is not None
            else faults.active_fault_plan()
        )
        cells = [
            (
                (int(item["cell"][0]), float(item["cell"][1])),
                int(item.get("attempt", 0)),
            )
            for item in doc.get("cells", ())
        ]
        try:
            # Distributed fault kinds are evaluated in the parent, in
            # lease order, before any simulation: worker_kill and
            # heartbeat_stall abandon the remainder of the lease (the
            # coordinator reassigns it), the payload faults mutate
            # individual completions below.
            kinds: dict[tuple[int, float], str | None] = {}
            for cell, attempt in cells:
                kind = (
                    plan.worker_fault_for(*cell, attempt)
                    if plan is not None
                    else None
                )
                if kind == "worker_kill":
                    self._die()
                if kind == "heartbeat_stall":
                    # Go silent mid-lease and abandon it: the
                    # coordinator must declare us dead and reassign
                    # every unfinished cell of this lease.
                    self._hb_suppressed.set()
                    self._stop.wait(self._stall_s())
                    return
                kinds[cell] = kind
            if backend == "analytic":
                try:
                    waves = [CellExecutor.evaluate(benchmark, spec, cells)]
                except Exception as error:  # ship it; don't die
                    message = repr(error)
                    waves = [[
                        (CellAttempt(c, a, "exception", message), None)
                        for c, a in cells
                    ]]
            else:
                waves = self._executor.run(
                    benchmark,
                    spec,
                    cells,
                    plan,
                    stall_timeout_s=self.stall_timeout_s,
                )
            duplicates: list[dict[str, _t.Any]] = []
            deferred: list[dict[str, _t.Any]] = []
            for wave in waves:
                # Crashed cells are not reported: the executor reruns
                # them, and the coordinator owns attempt numbering.
                results = []
                failures = []
                for attempt, result in wave:
                    n, f = attempt.cell
                    if result is not None:
                        completion = self._completion(
                            n, f, attempt.attempt, *result
                        )
                        if not self._apply_worker_fault(
                            kinds.get(attempt.cell), completion,
                            duplicates, deferred,
                        ):
                            results.append(completion)
                    elif attempt.outcome != "crash":
                        failures.append({
                            "cell": [n, f],
                            "attempt": attempt.attempt,
                            "error": attempt.error,
                        })
                self._ship(lease_id, batch_id, results, failures)
            if duplicates:
                self._post(
                    "/fabric/complete",
                    {
                        "worker_id": self.worker_id,
                        "lease_id": lease_id,
                        "batch_id": batch_id,
                        "results": duplicates,
                        "failures": [],
                    },
                )
            if deferred:
                # Finish the work but deliver it only after the lease
                # has expired: the straggler double-assignment race.
                self._hb_suppressed.set()
                self._stop.wait(self._stall_s())
                self._ship(lease_id, batch_id, deferred, [])
        finally:
            self._hb_lease = None
            self._hb_suppressed.clear()


def main(argv: _t.Sequence[str] | None = None) -> int:
    """Console entry point: ``repro-worker`` / ``python -m repro worker``."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description=(
            "Join a repro-serve campaign fabric as a worker: lease "
            "grid cells, simulate them across a local process pool, "
            "stream results back."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument(
        "--name", default="", help="worker name shown in /metrics"
    )
    parser.add_argument(
        "--max-idle-s",
        type=float,
        default=None,
        help="exit after this long with no leasable work "
        "(default: run until drained)",
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=None,
        help="local simulation processes (default: "
        "REPRO_WORKER_PROCS or os.cpu_count())",
    )
    parser.add_argument(
        "--stall-timeout-s",
        type=float,
        default=None,
        help="declare a pool round hung after this long without a "
        "completion (default: disabled)",
    )
    args = parser.parse_args(argv)
    worker = FabricWorker(
        args.host,
        args.port,
        name=args.name,
        max_idle_s=args.max_idle_s,
        procs=resolve_worker_procs(args.procs),
        stall_timeout_s=args.stall_timeout_s,
    )
    done = worker.run()
    print(
        f"repro-worker {worker.name}: {done} cells completed "
        f"({worker.leases_taken} leases, {worker.procs} procs, "
        f"{worker.reconnects} reconnects)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
