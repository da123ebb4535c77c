"""Helpers for the end-to-end benchmark: statistics, metric names, report
checks, corpus accounting and timed child processes.

Everything here is plain standard-library Python so that the unit tests
in ``test_benchlib.py`` run without building anything.
"""

import collections
import os
import re
import signal
import statistics
import subprocess
import threading
import time

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# The simulator's output files, in the pipeline's source order.
SOURCE_FILES = ("messages.log", "hwerr.log", "apsys.log", "torque.log", "netwatch.log")


def quartiles(values):
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return UNIT_RE.fullmatch(unit) is not None


def reports_match(got, want, exact=True):
    """Whether two reports agree. ``exact`` compares bytes; otherwise the
    trailing newlines a wire frame drops are ignored."""
    if exact:
        return got == want
    return got.rstrip("\n") == want.rstrip("\n")


def corrupt_lines(report):
    """The corrupt-line total from a report's T5 pipeline table."""
    for line in report.splitlines():
        cells = [c for c in re.split(r"[\s|│]+", line) if c]
        if cells and cells[0] == "TOTAL" and len(cells) >= 3:
            return int(cells[2])
    raise ValueError("report has no T5 TOTAL row")


def corpus_mix(directory):
    """Lines and bytes per source file of a simulated corpus, the totals,
    and each source's share of the lines. Absent sources count as empty."""
    per_file = {}
    for name in SOURCE_FILES:
        path = os.path.join(directory, name)
        lines = size = 0
        if os.path.exists(path):
            with open(path, "rb") as f:
                while True:
                    block = f.read(1 << 20)
                    if not block:
                        break
                    lines += block.count(b"\n")
                    size += len(block)
        per_file[name] = {"lines": lines, "bytes": size}
    total_lines = sum(v["lines"] for v in per_file.values())
    total_bytes = sum(v["bytes"] for v in per_file.values())
    for v in per_file.values():
        v["share"] = round(v["lines"] / total_lines, 4) if total_lines else 0.0
    return {"lines": total_lines, "bytes": total_bytes, "files": per_file}


def filesystem_of(path):
    """``(mount point, type)`` of the filesystem holding ``path``."""
    path = os.path.realpath(path)
    best = ("/", "unknown")
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[0]):
                    best = (mount, fields[2])
    except OSError:
        pass
    return best


def stream_progress(stderr_text):
    """The counters of the last ``[stream] lines=...`` progress line."""
    last = None
    for line in stderr_text.splitlines():
        if line.startswith("[stream] lines="):
            last = line
    if last is None:
        raise ValueError("no [stream] progress line")
    return {k: v for k, v in re.findall(r"(\w+)=(\S+)", last)}


# The outcome of one timed child process.
Timed = collections.namedtuple("Timed", "wall_s rss_mb code")


def run_timed(cmd, stdout_path, stderr_path, timeout_s, cwd=None):
    """Runs ``cmd`` to completion and returns its wall time (spawn to
    exit), peak RSS in MiB and exit code. A child still running after
    ``timeout_s`` is killed, and the run raises."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=cwd)
        killer = threading.Timer(timeout_s, _kill, (child.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode == -signal.SIGKILL:
        raise RuntimeError(f"{cmd[0]} killed after {timeout_s}s")
    return Timed(wall, usage.ru_maxrss / 1024.0, child.returncode)


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
