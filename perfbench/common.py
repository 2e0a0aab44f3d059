"""Harness-side helpers: program processes, HTTP, statistics, run record.

The harness never imports ``repro``: every program process is started
with ``src/`` of the checkout on ``PYTHONPATH`` and talks back through
JSON files or HTTP.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import pathlib
import platform
import queue
import signal
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent

#: Longest a program process may take; the whole run must end within
#: 180 s.
CHILD_TIMEOUT_S = 170.0

#: Environment switches of the program that would change what a run
#: measures; the benchmark pins or clears them.
_PROGRAM_ENV = ("REPRO_",)


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, failed process)."""


class Workspace:
    """Paths of one run inside the checkout, and its program processes."""

    def __init__(self, root: pathlib.Path, name: str) -> None:
        self.root = root
        self.src = root / "src"
        if not (self.src / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program sources under {self.src}")
        self.dir = root / ".perfbench_work" / f"{name}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self._serial = 0
        self.processes: list[subprocess.Popen] = []

    def path(self, stem: str) -> pathlib.Path:
        """A fresh file or directory name in the run's work dir."""
        self._serial += 1
        return self.dir / f"{self._serial:03d}-{stem}"

    def env(self, **extra: str) -> dict[str, str]:
        env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith(_PROGRAM_ENV) and k != "PERFBENCH_SPANS"
        }
        env["PYTHONPATH"] = str(self.src)
        env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        # Same set and dict iteration order in every program process.
        env["PYTHONHASHSEED"] = "0"
        env.update(extra)
        return env

    def script(self, name: str) -> list[str]:
        return [sys.executable, str(HERE / name)]

    def run_child(self, args: list[str], **env: str) -> dict:
        """Run ``child.py`` to completion and return its JSON result."""
        out = self.path("out.json")
        log = self.path("child.log")
        with open(log, "w", encoding="utf-8") as handle:
            proc = subprocess.run(
                self.script("child.py") + args + ["--out", str(out)],
                cwd=self.dir,
                env=self.env(**env),
                stdout=handle,
                stderr=subprocess.STDOUT,
                timeout=CHILD_TIMEOUT_S,
                check=False,
            )
        if proc.returncode != 0:
            raise BenchError(
                f"child {args[0]} exited {proc.returncode}:\n"
                + log.read_text()[-3000:]
            )
        return json.loads(out.read_text())

    def start(self, script: str, args: list[str], *, env: dict[str, str],
              announce: bool) -> tuple:
        """Start a launcher; with ``announce``, wait for its first
        stdout line.  Returns ``(process, first line or "")``."""
        log = open(self.path(script + ".log"), "w", encoding="utf-8")
        proc = subprocess.Popen(
            self.script(script) + args,
            cwd=self.dir,
            env=env,
            stdout=subprocess.PIPE if announce else subprocess.DEVNULL,
            stderr=log,
            text=True,
        )
        log.close()
        self.processes.append(proc)
        if not announce:
            return proc, ""
        lines: queue.Queue = queue.Queue()

        def pump() -> None:
            for line in proc.stdout:
                lines.put(line)
            lines.put("")

        threading.Thread(target=pump, daemon=True).start()
        try:
            line = lines.get(timeout=120)
        except queue.Empty:
            line = ""
        if not line:
            raise BenchError(f"{script} did not announce itself")
        return proc, line

    def stop(self, proc: subprocess.Popen, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL past ``timeout``."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        return proc.returncode

    def close(self) -> None:
        """Stop every process still running and remove the work dir."""
        for proc in self.processes:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        import shutil

        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


class Http:
    """One keep-alive JSON connection (not thread-safe)."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body=None) -> tuple[int, dict]:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, payload, headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")

    def close(self) -> None:
        self.conn.close()


def announced_port(line: str) -> int:
    """Port from ``repro-serve listening on http://127.0.0.1:PORT ...``."""
    return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])


# -- statistics ------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("quantile of no samples")
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values) -> float:
    return quantile(values, 0.5)


def geomean(values) -> float:
    """Geometric mean: every op weighs the same in relative terms, so
    the figure does not jump when a median would fall between two
    clusters of very different op sizes (as on des-cold's grid)."""
    values = list(values)
    if not values or min(values) <= 0:
        raise BenchError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- run record ------------------------------------------------------------


def steal_ticks() -> int:
    """Host steal time (USER_HZ ticks) summed over CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def source_identity(root: pathlib.Path) -> dict[str, str]:
    """Git commit when the checkout is a repository, and always a digest
    of the program sources (the checkout the benchmark runs in is not)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    sha = "none"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = root / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else ref
        else:
            sha = ref
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def host_record(root: pathlib.Path) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        **source_identity(root),
    }
