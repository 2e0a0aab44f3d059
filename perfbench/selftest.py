"""Self-test of the benchmark on tiny op lists.

    python3 perfbench/selftest.py

From the root of a checkout.  For every workload it runs ``run.py
--tiny`` with ``--trace 0`` and ``--trace 1`` and checks that the last
line names every metric of BENCHMARK.json with its unit and that
``ok_frac`` is 1; then it runs ``--tiny --corrupt`` (one expected value
perturbed) and checks that ``ok_frac`` drops below 1.  Exits non-zero on
the first mismatch.  Takes under a minute on two cores.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def run(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra],
        capture_output=True, text=True, timeout=300, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: keys {sorted(result)}")
    return result


def expect_metrics(result: dict, declared: list[dict], where: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{where}: metrics {got} != declared {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{where}: {name} = {m['value']!r}")


def main() -> int:
    spec = json.loads((pathlib.Path.cwd() / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            result = run(workload, trace)
            where = f"{workload} trace={trace}"
            expect_metrics(result, declared, where)
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{where}: outputs failed their checks")
        bad = run(workload, 0, "--corrupt")
        if bad["correct"] or bad["metrics"]["ok_frac"]["value"] >= 1.0:
            raise AssertionError(f"{workload}: a wrong expected value did "
                                 "not lower ok_frac")
        print(f"{workload}: ok", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
