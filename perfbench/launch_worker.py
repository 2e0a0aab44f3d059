"""Start ``repro-worker`` (``repro.fabric.worker.main``) for a workload.

Same switches as ``launch_serve.py``; traced workers also record every
HTTP round trip to the coordinator.  SIGTERM ends the worker through
``SystemExit``, so its pool is shut down and its spans are written.
Arguments are passed through.
"""

import os
import signal
import sys

import spans


def _exit(_signum, _frame) -> None:
    raise SystemExit(0)


def main() -> int:
    signal.signal(signal.SIGTERM, _exit)
    spans.install(worker=True)
    from repro.fabric.worker import main as work

    code = work(sys.argv[1:])
    if os.environ.get("PERFBENCH_RSS"):
        spans.write_rss(os.environ["PERFBENCH_RSS"])
    return code


if __name__ == "__main__":
    sys.exit(main())
