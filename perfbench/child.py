"""Program-side process of the des-cold and pipeline-warm workloads.

Run by ``run.py`` with ``src/`` on ``PYTHONPATH``; one mode per call,
results written as JSON to ``--out``:

* ``setup``: import the package and resolve the workload's requests,
  then stop (the set-up the ``setup_s`` metric times);
* ``des-rounds``: the short cells of the paper's EP/FT/LU validation
  grids, each simulated cold through ``repro.runtime.execute_cells``
  once per round (the timed phase of des-cold);
* ``des-plan``: the whole 75-cell grid through
  ``repro.pipeline.execute_plan`` into an empty disk cache (traced run);
* ``fill``: the campaigns of the experiments whose campaigns hold no LU
  cells, through ``execute_plan`` into an empty disk cache (set-up of
  pipeline-warm);
* ``pipeline-rounds``: each of those experiments regenerated from the
  warm cache by ``run_pipeline`` and each governed run of
  ``governor_comparison`` by ``govern_run``, once per round, checked
  against the golden results (the timed phase of pipeline-warm);
* ``pipeline``: one warm ``run_pipeline`` over all of those experiments
  as a single plan (traced run);
* ``profile``: a few DES cells run serially under cProfile, for the
  self-time split by package;
* ``verify``: reference values the service workloads are checked
  against, computed in-process from the program's public models.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import calib
import spans

#: The five Table 2 frequencies (MHz) and the validation counts.
PAPER_MHZ = (600, 800, 1000, 1200, 1400)
PAPER_COUNTS = (1, 2, 4, 8, 16)

#: Cells of the validation grids short enough to repeat within a run
#: (LU.A at 4-16 ranks takes 0.6-3 s a cell; the traced run covers it).
ROUND_COUNTS = {"ep": PAPER_COUNTS, "ft": PAPER_COUNTS, "lu": (1, 2)}
#: Back-to-back runs per timed sample of the sub-millisecond to few-ms
#: cells, so each sample spans several ms of host time.
CELL_NUMBER = {("ep", 1): 16, ("ep", 2): 6, ("ep", 4): 2, ("ft", 1): 16,
               ("ft", 2): 2}

#: Registered experiments whose campaigns contain no LU cells.
WARM_EXPERIMENTS = (
    "ablation_decomposition",
    "ablation_onoff",
    "ablation_overhead",
    "dvfs_savings",
    "figure1",
    "figure2",
    "governor_comparison",
    "optimizer_search",
    "predictive_scheduling",
    "slack_savings",
    "table1",
    "table3",
    "table5",
    "table6",
)

#: Tiny variants for the benchmark's self-test.
TINY_EXPERIMENTS = ("table1", "table5")
TINY_ROUND_COUNTS = {"ep": (1, 2)}
TINY_MHZ = (600, 1400)


def des_requests(tiny: bool):
    from repro.pipeline import CampaignRequest
    from repro.units import mhz

    if tiny:
        return [CampaignRequest("ep", "A", (1, 2), (mhz(600), mhz(1400)))]
    frequencies = tuple(mhz(m) for m in PAPER_MHZ)
    return [
        CampaignRequest(name, "A", PAPER_COUNTS, frequencies)
        for name in ("ep", "ft", "lu")
    ]


def experiment_specs(tiny: bool):
    from repro.experiments.registry import get_experiment

    ids = TINY_EXPERIMENTS if tiny else WARM_EXPERIMENTS
    return [get_experiment(exp_id) for exp_id in ids]


def runtime_snapshot() -> dict:
    from repro.runtime import campaign_metrics

    return campaign_metrics()


def peak_rss_kb() -> int:
    import resource

    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def cell_key(benchmark: str, n: int, f: float) -> str:
    return f"{benchmark}.A/{n}@{f / 1e6:g}"


def run_des_rounds(args) -> dict:
    from repro.npb import BENCHMARKS
    from repro.runtime import execute_cells
    from repro.units import mhz

    counts = TINY_ROUND_COUNTS if args.tiny else ROUND_COUNTS
    frequencies = TINY_MHZ if args.tiny else PAPER_MHZ
    benchmarks = {name: BENCHMARKS[name]() for name in counts}
    cells = [(name, n, mhz(m)) for name, ns in counts.items() for n in ns
             for m in frequencies]

    def simulate(benchmark, n, f):
        return execute_cells(benchmark, [(n, f)], jobs=1, backend="des")

    clock = calib.Clock()
    results: dict[str, list] = {}
    for _ in range(args.rounds):
        for name, n, f in cells:
            key = cell_key(name, n, f)
            executions = clock.time(
                key, simulate, benchmarks[name], n, f,
                number=CELL_NUMBER.get((name, n), 1),
            )
            results.setdefault(key, []).extend(
                [ex.times.get((n, f)), ex.energies.get((n, f))]
                for ex in executions
            )
    return {
        "clock": clock.as_dict(),
        "cells": results,
        "runtime": runtime_snapshot(),
        "rss_kb": peak_rss_kb(),
    }


def run_des_plan(args) -> dict:
    from repro import runtime
    from repro.pipeline import ArtifactStore, execute_plan

    requests = des_requests(args.tiny)
    store = ArtifactStore()
    start = time.perf_counter()
    report = execute_plan(requests, store, jobs=2)
    wall = time.perf_counter() - start
    runtime.shutdown_executor(wait=True)
    cells = {}
    for request in requests:
        campaign = store.campaign(request).value
        for (n, f), seconds in campaign.times.items():
            key = cell_key(request.benchmark, n, f)
            cells[key] = [seconds, campaign.energies[(n, f)]]
    return {
        "wall_s": wall,
        "cells": cells,
        "plan": report.as_dict(),
        "runtime": runtime_snapshot(),
        "rss_kb": peak_rss_kb(),
    }


def run_fill(args) -> dict:
    from repro import runtime
    from repro.pipeline import ArtifactStore, execute_plan

    requests = [
        request
        for spec in experiment_specs(args.tiny)
        for request in spec.resolve_requests({})
    ]
    report = execute_plan(requests, ArtifactStore(), jobs=2)
    runtime.shutdown_executor(wait=True)
    return {"plan": report.as_dict(), "rss_kb": peak_rss_kb()}


def experiment_check(result, expected) -> bool:
    from repro.reporting import jsonify

    return (
        result.title == expected["title"]
        and result.text == expected["text"]
        and jsonify(result.data) == expected["data"]
    )


def governed_runs(tiny: bool):
    """(key, call) of each governed run of governor_comparison, with the
    experiment's default parameters."""
    from repro.experiments import governor_comparison as gc
    from repro.governor import govern_run, power_cap_scenarios
    from repro.npb import BENCHMARKS, ProblemClass

    caps = power_cap_scenarios(4)
    names = ("ep",) if tiny else gc.DEFAULT_BENCHMARKS
    policies = gc.POLICY_ORDER[:1] if tiny else gc.POLICY_ORDER
    runs = []
    for name in names:
        bench = BENCHMARKS[name](ProblemClass.parse("A"))
        for label in gc.DEFAULT_SCENARIOS:
            for policy in policies:
                def call(bench=bench, policy=policy, cap=caps[label]):
                    return govern_run(bench, 4, policy, cap, epoch_phases=4,
                                      safety=0.9, seed=0)

                runs.append(((name, label, policy), call))
    return runs


def governed_check(governed, expected) -> bool:
    from repro.experiments.governor_comparison import count_cap_violations

    return expected == {
        "cap_violations": count_cap_violations(governed.trace),
        "edp_j_s": governed.edp,
        "elapsed_s": governed.elapsed_s,
        "energy_j": governed.energy_j,
        "epochs": governed.trace.n_epochs,
        "trace_digest": governed.trace.digest(),
        "transitions": governed.trace.transitions,
    }


def run_pipeline_rounds(args) -> dict:
    from repro.pipeline import ArtifactStore, run_pipeline

    golden = json.loads(pathlib.Path(args.golden).read_text())
    specs = [spec for spec in experiment_specs(args.tiny)
             if spec.experiment_id != "governor_comparison"]
    governed = governed_runs(args.tiny)

    def regenerate(spec):
        # A fresh store: each campaign comes from the disk cache the
        # first time this process needs it, from memory after that.
        results, _report = run_pipeline([spec], store=ArtifactStore(),
                                        jobs=2)
        return results[spec.experiment_id]

    clock = calib.Clock()
    checks: dict[str, list[bool]] = {}
    gov_golden = golden["governor_comparison"]["data"]["results"]
    for _ in range(args.rounds):
        for spec in specs:
            key = spec.experiment_id
            (result,) = clock.time(key, regenerate, spec)
            checks.setdefault(key, []).append(
                experiment_check(result, golden[key])
            )
        for (name, label, policy), call in governed:
            key = f"govern/{name}/{label}/{policy}"
            (run,) = clock.time(key, call)
            checks.setdefault(key, []).append(
                governed_check(run, gov_golden[name][label][policy])
            )
    return {
        "clock": clock.as_dict(),
        "checks": checks,
        "runtime": runtime_snapshot(),
        "rss_kb": peak_rss_kb(),
    }


def run_pipeline_pass(args) -> dict:
    from repro import runtime
    from repro.pipeline import ArtifactStore, run_pipeline

    specs = experiment_specs(args.tiny)
    store = ArtifactStore()
    start = time.perf_counter()
    results, report = run_pipeline(specs, store=store, jobs=2)
    wall = time.perf_counter() - start
    runtime.shutdown_executor(wait=True)

    golden = json.loads(pathlib.Path(args.golden).read_text())
    checks = {
        exp_id: experiment_check(result, golden[exp_id])
        for exp_id, result in results.items()
    }
    stage_s: dict[str, dict[str, float]] = {}
    for name in store.names():
        provenance = store.get(name).provenance
        if provenance.experiment_id and provenance.stage:
            stage_s.setdefault(provenance.experiment_id, {})[
                provenance.stage
            ] = provenance.wall_s
    return {
        "wall_s": wall,
        "checks": checks,
        "stage_s": stage_s,
        "plan": report.as_dict(),
        "runtime": runtime_snapshot(),
        "rss_kb": peak_rss_kb(),
    }


def run_setup(args) -> dict:
    if args.kind == "des-cold":
        des_requests(args.tiny)
    else:
        for spec in experiment_specs(args.tiny):
            spec.resolve_requests({})
    return {"ready_epoch": time.time()}


#: Cells profiled for the package split: one per benchmark and size
#: class, at one frequency (host cost depends on events, not on f).
PROFILE_CELLS = (("ep", 16), ("ft", 4), ("ft", 16), ("lu", 4), ("lu", 16))


def run_profile(args) -> dict:
    import cProfile

    from repro.cluster import Cluster, paper_spec
    from repro.npb import BENCHMARKS
    from repro.units import mhz

    cells = PROFILE_CELLS[:1] if args.tiny else PROFILE_CELLS
    spec = paper_spec()
    profile = cProfile.Profile()
    for name, n in cells:
        cluster = Cluster(spec.with_nodes(n), frequency_hz=mhz(1400))
        benchmark = BENCHMARKS[name]()
        profile.runcall(benchmark.run, cluster)
    return {"package_self_s": spans.package_self_time(profile)}


def run_verify(args) -> dict:
    """Reference values for service-mix and fabric-campaign checks."""
    request = json.loads(pathlib.Path(args.input).read_text())
    out: dict = {"predict": {}, "campaign": {}, "optimize": {}}
    if request.get("predict"):
        from repro.core.energy import EnergyModel
        from repro.core.params_sp import SimplifiedParameterization
        from repro.experiments.platform import (
            PAPER_COUNTS as COUNTS,
            PAPER_FREQUENCIES,
            measure_campaign,
        )
        from repro.npb import BENCHMARKS
        from repro.platforms import get_platform

        platform = get_platform("paper")
        energy = EnergyModel(platform.power, platform.cpu.operating_points)
        for name, keys in request["predict"].items():
            campaign = measure_campaign(
                BENCHMARKS[name](), COUNTS, PAPER_FREQUENCIES
            )
            sp = SimplifiedParameterization(campaign)
            table = {}
            for key in keys:
                n, f = parse_key(key)
                t = sp.predict_time(n, f)
                overhead = max(sp.overhead(n), 0.0) if n > 1 else 0.0
                joules = energy.predict(n, f, t, overhead).energy_j
                table[key] = {
                    "time_s": t,
                    "speedup": sp.predict_speedup(n, f),
                    "energy_j": joules,
                    "edp": joules * t,
                }
            out["predict"][name] = table
    if request.get("campaign"):
        from repro.analytic import AnalyticCampaignModel
        from repro.cluster.machine import paper_spec
        from repro.npb import BENCHMARKS
        from repro.units import mhz

        for job_key, grid in request["campaign"].items():
            cells = [
                (int(n), mhz(float(m)))
                for n in grid["counts"]
                for m in grid["frequencies_mhz"]
            ]
            model = AnalyticCampaignModel(
                BENCHMARKS[grid["benchmark"]](), paper_spec()
            )
            evaluation = model.evaluate_cells(cells)
            times = evaluation.times_by_cell()
            energies = evaluation.energies_by_cell()
            out["campaign"][job_key] = {
                f"{n}@{f / 1e6:g}": [times[(n, f)], energies[(n, f)]]
                for n, f in cells
            }
    if request.get("optimize"):
        from repro.optimizer import optimize
        from repro.reporting import jsonify

        for job_key, params in request["optimize"].items():
            result = optimize(
                params["benchmark"],
                params["class"],
                objective=params["objective"],
                counts=tuple(params["counts"]),
                confirm=False,
            )
            out["optimize"][job_key] = json.loads(
                json.dumps(jsonify(result.as_dict()))
            )
    return out


def parse_key(key: str) -> tuple[int, float]:
    """``"4@600MHz"`` or ``"4@600"`` → ``(4, 600e6)``."""
    n_text, _, f_text = key.removesuffix("MHz").partition("@")
    return int(n_text), float(f_text) * 1e6


MODES = {
    "setup": run_setup,
    "des-rounds": run_des_rounds,
    "des-plan": run_des_plan,
    "fill": run_fill,
    "pipeline-rounds": run_pipeline_rounds,
    "pipeline": run_pipeline_pass,
    "profile": run_profile,
    "verify": run_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--out", required=True)
    parser.add_argument("--kind", default="des-cold")
    parser.add_argument("--golden", default="")
    parser.add_argument("--input", default="")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    spans.install()
    result = MODES[args.mode](args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
