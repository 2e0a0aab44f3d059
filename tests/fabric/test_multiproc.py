"""Multi-process workers: pool fan-out, streaming, crash recovery.

The worker-side scale path: one lease fanned across a local process
pool must merge bit-identical to clean serial execution — through
distributed chaos (worker kills, heartbeat stalls) and through
in-cell faults that crash pool children (the pid-scoped fault plan is
passed into subprocesses explicitly, so seeded ``crash`` faults fire
*inside* a worker's pool exactly as they do in the local runner's).
"""

import time

from repro import runtime
from repro.cluster import paper_spec
from repro.npb import EPBenchmark, ProblemClass
from repro.runtime.faults import FaultPlan, install_fault_plan
from repro.runtime.runner import (
    _MAX_FRUITLESS_CRASHES,
    DEFAULT_RETRIES,
    CellExecutor,
)
from repro.service.server import ServiceThread

from tests.fabric.fleet import WorkerFleet, fast_config, wait_for_workers

COUNTS = (1, 2, 4)
FREQUENCIES = (600e6, 800e6)
GRID = [(n, f) for n in COUNTS for f in FREQUENCIES]


def _bench():
    return EPBenchmark(ProblemClass.S)


def test_pooled_worker_clean_run_bit_identical():
    spec = paper_spec()
    serial = runtime.execute_campaign(
        _bench(), COUNTS, FREQUENCIES, spec, jobs=1
    )
    with ServiceThread(fast_config()) as service:
        with WorkerFleet(service.port, 1, procs=2) as fleet:
            wait_for_workers(service, 1)
            execution = runtime.execute_campaign(
                _bench(), COUNTS, FREQUENCIES, spec, jobs=1, fabric=True
            )
            worker = fleet.workers[0]
    assert execution.times == serial.times
    assert execution.energies == serial.energies
    assert execution.cell_engine_stats == serial.cell_engine_stats
    assert execution.fabric_cells == len(GRID)
    assert worker.procs == 2
    assert worker.cells_done == len(GRID)


def test_pooled_worker_chaos_bit_identical():
    """worker_kill / heartbeat_stall with ``procs`` pools still merge
    bit-identical: the coordinator reassigns the abandoned leases and
    the survivors' pools finish the grid."""
    spec = paper_spec()
    serial = runtime.execute_campaign(
        _bench(), COUNTS, FREQUENCIES, spec, jobs=1
    )
    for seed in range(1000):
        plan = FaultPlan(
            seed=seed, worker_kill=0.25, heartbeat_stall=0.25
        )
        kinds = [plan.worker_fault_for(n, f, 0) for n, f in GRID]
        down = kinds.count("worker_kill") + kinds.count(
            "heartbeat_stall"
        )
        if (
            {"worker_kill", "heartbeat_stall"} <= set(kinds)
            and down <= 3
        ):
            break
    else:
        raise AssertionError("no chaos seed found in 1000 tries")
    config = fast_config(fabric_max_lease_cells=1)
    with ServiceThread(config) as service:
        with WorkerFleet(service.port, 4, procs=4, plan=plan):
            wait_for_workers(service, 4)
            execution = runtime.execute_campaign(
                _bench(), COUNTS, FREQUENCIES, spec, jobs=1, fabric=True
            )
    assert execution.times == serial.times
    assert execution.energies == serial.energies
    assert execution.cell_engine_stats == serial.cell_engine_stats
    assert execution.failures == ()
    assert execution.fabric_cells == len(GRID)
    assert execution.fabric_reassignments >= 2  # kill + stall
    outcomes = [a.outcome for a in execution.attempts]
    assert "lost" in outcomes
    assert outcomes.count("ok") == len(GRID)


def _seeded_crash_plan() -> FaultPlan:
    """A plan crashing one or two grid cells on their first attempt."""
    for seed in range(1000):
        plan = FaultPlan(seed=seed, crash=0.2)
        fired = [
            plan.fault_for(n, f, 0) == "crash" for n, f in GRID
        ]
        if 1 <= sum(fired) <= 2:
            return plan
    raise AssertionError("no crash seed found in 1000 tries")


def _run_pool_crash_campaign(plan: FaultPlan, retries: int = DEFAULT_RETRIES):
    """Run the grid on one pooled worker under ``plan`` with a retry
    budget of ``retries``; check that the merge is bit-identical to
    serial and that the pool was rebuilt.

    Returns the serial run and the fabric run."""
    spec = paper_spec()
    serial = runtime.execute_campaign(
        _bench(), COUNTS, FREQUENCIES, spec, jobs=1
    )
    # Multi-cell leases so the crashed pool has lease-mates to
    # resubmit; generous TTLs so recovery happens inside the lease.
    config = fast_config(
        fabric_lease_ttl_s=5.0, fabric_heartbeat_s=0.5
    )
    with ServiceThread(config) as service:
        with WorkerFleet(service.port, 1, procs=2, plan=plan) as fleet:
            wait_for_workers(service, 1)
            execution = runtime.execute_campaign(
                _bench(),
                COUNTS,
                FREQUENCIES,
                spec,
                jobs=1,
                fabric=True,
                retries=retries,
            )
            worker = fleet.workers[0]
    assert execution.times == serial.times
    assert execution.energies == serial.energies
    assert execution.failures == ()
    assert execution.fabric_cells == len(GRID)
    assert worker.pool_rebuilds >= 1
    return serial, execution


def test_pool_child_crash_recovered_in_worker():
    """A seeded in-cell ``crash`` fires inside a pool subprocess
    (``os._exit`` → BrokenProcessPool); the worker rebuilds its pool,
    re-runs the cell at a bumped attempt, and the merge is clean."""
    _run_pool_crash_campaign(_seeded_crash_plan())


def test_pool_child_crash_every_early_attempt_falls_back_in_process():
    """When every cell crashes on its early attempts, every pool break
    is fruitless: the worker falls back to in-process execution after
    as many breaks as the local runner, and the next injected crash
    degrades there to a billed exception at the same attempt."""
    plan = FaultPlan(crash=1.0, times=_MAX_FRUITLESS_CRASHES + 1)
    # A re-leased cell that lands in a lease alone runs in-process,
    # where each early attempt is billed: give it the budget to reach
    # its first clean attempt.
    serial, execution = _run_pool_crash_campaign(
        plan, retries=_MAX_FRUITLESS_CRASHES + 1
    )
    install_fault_plan(plan)
    try:
        local = runtime.execute_campaign(
            _bench(),
            COUNTS,
            FREQUENCIES,
            paper_spec(),
            jobs=2,
            backoff_s=0.0,
        )
    finally:
        install_fault_plan(None)
    assert local.times == serial.times
    assert local.crash_recoveries == _MAX_FRUITLESS_CRASHES
    # The whole grid is the worker's first lease; the runner and the
    # worker both leave the pool at the same attempt.
    fallback = f"attempt {_MAX_FRUITLESS_CRASHES} (simulated in-process)"
    for attempts in (local.attempts, execution.attempts):
        for cell in GRID:
            first_billed = next(
                (
                    a
                    for a in attempts
                    if a.cell == cell and a.outcome == "exception"
                ),
                None,
            )
            assert first_billed is not None, cell
            assert fallback in first_billed.error


def test_stalled_pool_children_terminated_and_cell_retried(monkeypatch):
    """A seeded ``hang`` far past ``stall_timeout_s`` stalls the pool:
    the worker bills the hung cell, terminates the old pool's children
    instead of leaving them running beside the new pool, and the
    coordinator's retry merges bit-identical to serial."""
    spec = paper_spec()
    serial = runtime.execute_campaign(
        _bench(), COUNTS, FREQUENCIES, spec, jobs=1
    )
    hung = (2, 600e6)
    plan = FaultPlan(hang=1.0, hang_s=60.0, cells=(hung,))
    survivors: list[list[int]] = []
    shutdown = CellExecutor.shutdown

    def watched_shutdown(self, wait=False, *, terminate=False):
        pool = self._pool
        children = list((pool and pool._processes or {}).values())
        shutdown(self, wait, terminate=terminate)
        if terminate:
            survivors.append([p.pid for p in children if p.is_alive()])

    monkeypatch.setattr(CellExecutor, "shutdown", watched_shutdown)
    config = fast_config(
        fabric_lease_ttl_s=5.0, fabric_heartbeat_s=0.5
    )
    start = time.perf_counter()
    with ServiceThread(config) as service:
        with WorkerFleet(
            service.port, 1, procs=2, plan=plan, stall_timeout_s=1.0
        ) as fleet:
            wait_for_workers(service, 1)
            execution = runtime.execute_campaign(
                _bench(), COUNTS, FREQUENCIES, spec, jobs=1, fabric=True
            )
            worker = fleet.workers[0]
    assert time.perf_counter() - start < 30.0  # far less than the hang
    assert execution.times == serial.times
    assert execution.energies == serial.energies
    assert execution.failures == ()
    stalled = [
        a
        for a in execution.attempts
        if a.cell == hung and a.outcome == "exception"
    ]
    assert stalled and "no completion within 1.0s" in stalled[0].error
    assert execution.cell_attempts()[hung] >= 2
    assert worker.pool_rebuilds >= 1
    assert survivors and survivors == [[]] * len(survivors)


def test_streamed_completions_arrive_before_lease_end(monkeypatch):
    """Completions stream per wave: with one slow multi-cell lease in
    flight, the batch's results grow before the lease finishes.

    Each completion call the coordinator ingests is recorded with the
    number of results it accepted, so streaming shows however the test
    threads are scheduled."""
    from repro.fabric.dispatch import (
        collect_fabric_batch,
        submit_fabric_cells,
    )

    spec = paper_spec()
    config = fast_config(
        fabric_lease_ttl_s=10.0,
        fabric_heartbeat_s=0.5,
        # One giant lease: the whole grid in a single round trip.
        fabric_target_lease_s=0,
    )
    with ServiceThread(config) as service:
        with WorkerFleet(service.port, 1, procs=2):
            wait_for_workers(service, 1)
            coordinator = service.service.coordinator
            accepted: list[int] = []
            complete = coordinator.complete

            def recorded_complete(*args, **kwargs):
                response = complete(*args, **kwargs)
                accepted.append(response["accepted"])
                return response

            monkeypatch.setattr(coordinator, "complete", recorded_complete)
            pending = submit_fabric_cells(
                _bench(),
                GRID,
                spec,
                retries=2,
                backoff_s=0.0,
                coordinator=coordinator,
            )
            assert pending is not None
            outcome = collect_fabric_batch(pending)
    assert len(outcome.results) == len(GRID)
    assert sum(accepted) == len(GRID)
    # Streaming: results landed incrementally, not all at lease end.
    waves = [count for count in accepted if count]
    assert len(waves) >= 2, f"no partial results observed mid-lease: {waves}"
