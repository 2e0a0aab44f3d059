"""Record the reference (elapsed_s, energy_j) of every DES cell the
des-cold and fabric-campaign workloads check.

Run once, from the repository root, at the commit whose outputs are the
reference::

    PYTHONPATH=src python3 perfbench/record_reference.py

Cells run through the public simulator API (a fresh ``Cluster`` per
cell, ``benchmark.run``), exactly what every execution path runs per
cell.  Values are stored at full float precision; the checks compare
them bit for bit.
"""

from __future__ import annotations

import concurrent.futures
import json
import pathlib

from workloads import fabric_des_grids, reference_key

DES_COLD = (("ep", (1, 2, 4, 8, 16)), ("ft", (1, 2, 4, 8, 16)),
            ("lu", (1, 2, 4, 8, 16)))
MHZ = (600, 800, 1000, 1200, 1400)

OUT = pathlib.Path(__file__).with_name("reference_cells.json")


def simulate(cell):
    from repro.cluster import Cluster, paper_spec
    from repro.npb import BENCHMARKS
    from repro.units import mhz

    name, n, m = cell
    cluster = Cluster(paper_spec().with_nodes(n), frequency_hz=mhz(m))
    result = BENCHMARKS[name]().run(cluster)
    return cell, [result.elapsed_s, result.energy_j]


def main() -> None:
    cells = {(name, n, m) for name, counts in DES_COLD for n in counts
             for m in MHZ}
    for name, counts, mhz_list in fabric_des_grids():
        cells.update((name, n, m) for n in counts for m in mhz_list)
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        values = dict(pool.map(simulate, sorted(cells)))
    document = {
        reference_key(name, n, m): values[(name, n, m)]
        for name, n, m in sorted(values)
    }
    OUT.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(document)} cells to {OUT}")


if __name__ == "__main__":
    main()
