"""Start ``repro-serve`` (``repro.service.server.main``) for a workload.

With ``PERFBENCH_SPANS`` set, the benchmark's span wrappers are
installed first; with ``PERFBENCH_RSS`` set, the peak RSS of the server
and its reaped children is written there after a graceful stop.
Arguments are passed to the server unchanged.
"""

import os
import sys

import spans


def main() -> int:
    spans.install()
    from repro.service.server import main as serve

    code = serve(sys.argv[1:])
    if os.environ.get("PERFBENCH_RSS"):
        spans.write_rss(os.environ["PERFBENCH_RSS"])
    return code


if __name__ == "__main__":
    sys.exit(main())
