#!/usr/bin/env python3
"""End-to-end benchmark for the three paths users run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the release binaries (into
``$CARGO_TARGET_DIR``, default ``.bench_build``), simulates the
workload's corpus from ``--seed``, and then:

* ``--trace 0`` times the workload's release binaries from outside for
  ``--seconds`` seconds, checks every output against the batch
  reference, and reports the end-to-end metrics;
* ``--trace 1`` runs the traced in-process model (``perfbench/inproc``) of all three paths
  (each on its own workload's corpus) plus one push-fleet run over TCP,
  and reports the per-layer metrics.

Human-readable lines go to stdout first; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Work files
go under ``.bench_work/``. Why each workload exists, and which end-to-end
metric each per-layer metric should move, is in ``WORKLOADS.md``.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Stream and serve settings shared by the measured and the traced runs.
LATENESS_S = 600  # covers the simulator's disorder, so stream == batch
STREAM_CKPT_EVERY = 50_000  # the CLI default
STREAM_CHUNK = 1024  # the CLI default
NO_TIME_CHECKPOINTS_S = 3600  # above any run: checkpoints by line count only
SERVE_CKPT_EVERY = 10_000  # the daemon default
FLEET_TENANTS = 8
# Reference `analyze --threads 1` runs per corpus: at least REF_MIN_RUNS,
# and until REF_SECONDS, shared among the workload's corpora, are spent.
REF_MIN_RUNS = 5
REF_SECONDS = 5.0
SETUPS = 3  # set-ups per run; setup_s is their median

# name -> (corpora as (divisor, days), why). Corpus i uses seed + i.
WORKLOADS = {
    "batch-quarter": (
        [(4, 120)],
        "quarter machine, 120 days, 1.07M lines: analyze at all cores and at 1 thread; "
        "parse, reconstruct and classify threads dominate",
    ),
    "stream-ckpt": (
        [(8, 60)],
        "1/8 machine, 60 days: logdiver stream with line-count checkpoints, "
        "which take about three quarters of the wall time",
    ),
    "push-fleet": (
        [(64, 30), (64, 30)],
        "8 tenants over 2 lockstep connections into a fresh daemon: "
        "one round trip per line plus fleet checkpoints of idle tenants",
    ),
}

# lines_per_s and serial_lines_per_s are medians over the run's timed
# operations. peak_rss_mb is the highest peak RSS over them: the daemon's
# peak moves between allocator states from one start to the next, and
# the highest is what a host has to provision.
END_TO_END = {
    "lines_per_s": "lines/s",
    "serial_lines_per_s": "lines/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "input.load_s": "s",
    "input.bytes": "bytes",
    "craylog.parse_s.t1": "s",
    "craylog.parse_s.tn": "s",
    "craylog.lines": "count",
    "craylog.quarantined": "count",
    "core.filter_s.t1": "s",
    "core.filter_s.tn": "s",
    "core.entries_kept": "count",
    "core.reconstruct_s": "s",
    "core.runs": "count",
    "core.coverage_s": "s",
    "core.coalesce_s": "s",
    "core.events": "count",
    "core.metrics_s": "s",
    "core.classify_s.t1": "s",
    "core.classify_s.tn": "s",
    "core.free_s": "s",
    "core.stage_cover": "ratio",
    "core.unexplained_s": "s",
    "stream.read_s": "s",
    "stream.accept_s": "s",
    "stream.drain_s": "s",
    "stream.late_dropped": "count",
    "stream.quarantined": "count",
    "stream.ckpt_capture_s": "s",
    "stream.ckpt_serialize_s": "s",
    "stream.ckpt_write_s": "s",
    "stream.ckpts": "count",
    "stream.ckpt_bytes": "bytes",
    "stream.ckpt_last_bytes": "bytes",
    "stream.unexplained_s": "s",
    "client.round_trips": "count",
    "client.retries": "count",
    "client.slept_ms": "ms",
    "serve.feed_s": "s",
    "serve.ckpt_s": "s",
    "store.write_s": "s",
    "store.writes": "count",
    "store.bytes": "bytes",
    "serve.ckpt_useful_ratio": "ratio",
    "serve.report_s": "s",
    "serve.shed": "count",
    "serve.dups": "count",
    "serve.gaps": "count",
    "serve.unexplained_s": "s",
    "wire.share": "ratio",
    "trace.overhead.batch": "ratio",
    "trace.overhead.stream": "ratio",
    "trace.overhead.serve": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Env:
    """Binaries, work directory and host facts for one run."""

    def __init__(self, workload, seed, trace):
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = os.path.join(ROOT, target)
        release = os.path.join(self.target, "release")
        self.logdiver = os.path.join(release, "logdiver")
        self.serve = os.path.join(release, "logdiver-serve")
        self.inproc = os.path.join(release, "perfbench-inproc")
        self.work = os.path.join(ROOT, ".bench_work", f"{workload}-seed{seed}-trace{trace}")
        self.host_cpus = len(os.sched_getaffinity(0))

    def path(self, *parts):
        return os.path.join(self.work, *parts)


def build(env):
    for needed in ("Cargo.toml", "Cargo.lock", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SystemExit(f"run.py: {needed} missing; run from a logdiver checkout")
    cargo_env = dict(os.environ, CARGO_TARGET_DIR=env.target)
    for args in (
        ["-p", "logdiver-cli", "-p", "logdiver-serve"],
        ["--manifest-path", os.path.join("perfbench", "inproc", "Cargo.toml")],
    ):
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--locked", *args],
            cwd=ROOT,
            env=cargo_env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            check=True,
            timeout=850,
        )


def run(env, name, cmd, timeout_s=120):
    """Runs a child to completion; its output lands in ``<name>.out`` and
    ``<name>.err`` under the work directory. A non-zero exit raises."""
    out, err = env.path(name + ".out"), env.path(name + ".err")
    timed = bl.run_timed(cmd, out, err, timeout_s, cwd=ROOT)
    if timed.code != 0:
        with open(err, errors="replace") as f:
            tail = f.read()[-2000:]
        raise RuntimeError(f"{name} exited {timed.code}: {tail}")
    return timed


def read(path):
    with open(path, errors="replace") as f:
        return f.read()


def simulate(env, workload, seed, setups):
    """Simulates the workload's corpora ``setups`` times over, each time
    into the same directories, and returns the directories and the wall
    time of each set-up."""
    corpora, _ = WORKLOADS[workload]
    dirs = [env.path(f"{workload}-corpus{i}") for i in range(len(corpora))]
    times = []
    for _ in range(setups):
        total = 0.0
        for i, ((divisor, days), d) in enumerate(zip(corpora, dirs)):
            cmd = [env.logdiver, "simulate", "--out", d, "--divisor", str(divisor),
                   "--days", str(days), "--seed", str(seed + i)]
            total += run(env, "simulate", cmd).wall_s
        times.append(total)
    os.sync()  # no writeback of the fresh corpus during the measurements
    return dirs, times


def reference(env, corpus, min_runs=1, min_seconds=0.0):
    """``analyze --threads 1`` on ``corpus``, at least ``min_runs`` times
    and until ``min_seconds`` have been spent: the report every other path
    must reproduce, and the wall time of each run."""
    times, report = [], None
    while len(times) < min_runs or sum(times) < min_seconds:
        timed = run(env, "reference", [env.logdiver, "analyze", "--logs", corpus, "--threads", "1"])
        times.append(timed.wall_s)
        text = read(env.path("reference.out"))
        if report is not None and text != report:
            raise RuntimeError(f"analyze of {corpus} is not deterministic")
        report = text
    return report, times


def fleet_layout(env, dirs):
    """``--conn DIR=T1,...`` arguments and the tenant-config text: the
    tenants are split over min(2, host_cpus) connections, and connection
    c pushes corpus c mod 2."""
    conns = min(2, env.host_cpus)
    per_conn = FLEET_TENANTS // conns
    specs, config, corpus_of = [], [], {}
    for c in range(conns):
        tenants = [f"c{c}t{k}" for k in range(per_conn)]
        specs += ["--conn", f"{dirs[c % len(dirs)]}={','.join(tenants)}"]
        for t in tenants:
            config.append(f"{t} lateness={LATENESS_S}")
            corpus_of[t] = c % len(dirs)
    return specs, "\n".join(config) + "\n", corpus_of


class Daemon:
    """A fresh ``logdiver-serve`` on an ephemeral port with an empty
    state directory."""

    def __init__(self, env, state, tenant_config):
        shutil.rmtree(state, ignore_errors=True)
        os.makedirs(state)
        start = time.perf_counter()
        with open(env.path("serve.err"), "ab") as err:
            self.proc = subprocess.Popen(
                [env.serve, "--listen", "127.0.0.1:0", "--tenants-dir", state, "--shards", "1",
                 "--tenant-config", tenant_config],
                stdout=subprocess.PIPE,
                stderr=err,
                cwd=ROOT,
            )
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline().decode() if ready else ""
        self.start_s = time.perf_counter() - start
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"logdiver-serve did not start: {line!r}")
        self.addr = line.split()[-1]

    def wait(self, timeout_s=60):
        """Waits for the daemon to exit after ``SHUTDOWN``; returns its
        peak RSS in MiB."""
        killer = threading.Timer(timeout_s, self.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            killer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"logdiver-serve exited {self.proc.returncode}")
        return usage.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass

    def stop(self):
        """Kills the daemon if it has not exited, and reaps it."""
        if self.proc.returncode is None:
            self.kill()
            self.proc.wait()
            self.proc.stdout.close()


def push_fleet_once(env, conn_specs, tenant_config, corpus_of, refs):
    """One measured push-fleet run against a fresh daemon. Returns the
    TCP wall time, daemon start time, daemon peak RSS, whether every
    REPORT matched, PUSH frames attempted and failed."""
    daemon = Daemon(env, env.path("serve-state"), tenant_config)
    try:
        out_dir = env.path("push-reports")
        shutil.rmtree(out_dir, ignore_errors=True)
        run(env, "push", [env.inproc, "push", "--addr", daemon.addr, *conn_specs, "--out", out_dir])
        rss = daemon.wait()
    finally:
        daemon.stop()
    result = json.loads(read(env.path("push.out")).splitlines()[-1])
    ok, failed, attempted = True, 0, 0
    for s in result["summaries"]:
        attempted += s["pushed"] + s["dups"] + s["retries"] + s["rejected"]
        failed += s["retries"] + s["rejected"]
        if not s["complete"]:
            ok = False
    failed += result["snapshot"]["stats"]["gaps"]
    for tenant, corpus in corpus_of.items():
        served = read(os.path.join(out_dir, f"{tenant}.report"))
        if not bl.reports_match(served, refs[corpus], exact=False):
            log(f"push-fleet: REPORT of {tenant} differs from batch analyze")
            ok = False
        failed += bl.corrupt_lines(served)
    return result["wall_s"], daemon.start_s, rss, ok, attempted, failed


def measure(seconds, step):
    """Calls ``step(i)`` until ``seconds`` have passed (at least once)."""
    start, i = time.perf_counter(), 0
    while True:
        step(i)
        i += 1
        if time.perf_counter() - start >= seconds:
            return i


def run_batch_quarter(env, seed, seconds):
    dirs, setups = simulate(env, "batch-quarter", seed, SETUPS)
    corpus = dirs[0]
    mix = bl.corpus_mix(corpus)
    times = {"all": [], "t1": []}
    rss, state = [], {"ok": True, "runs": 0, "failed": 0, "report": None}

    def step(i):
        kinds = ("all", "t1") if i % 2 == 0 else ("t1", "all")
        for kind in kinds:
            cmd = [env.logdiver, "analyze", "--logs", corpus]
            if kind == "t1":
                cmd += ["--threads", "1"]
            timed = run(env, "analyze", cmd)
            times[kind].append(timed.wall_s)
            if kind == "all":
                rss.append(timed.rss_mb)
            text = read(env.path("analyze.out"))
            if state["report"] is None:
                state["report"] = text
            elif not bl.reports_match(text, state["report"]):
                log(f"batch-quarter: {kind} report differs from the first report")
                state["ok"] = False
            state["runs"] += 1
            state["failed"] += bl.corrupt_lines(text)

    iterations = measure(seconds, step)
    metrics = {
        "lines_per_s": mix["lines"] / statistics.median(times["all"]),
        "serial_lines_per_s": mix["lines"] / statistics.median(times["t1"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
    }
    info = {"corpus": mix, "iterations": iterations, "samples": times, "rss_mb": rss,
            "setups": setups}
    attempted = mix["lines"] * state["runs"]
    return metrics, state["ok"], attempted, state["failed"], info, corpus


def run_stream_ckpt(env, seed, seconds):
    dirs, setups = simulate(env, "stream-ckpt", seed, SETUPS)
    corpus = dirs[0]
    mix = bl.corpus_mix(corpus)
    report, ref_times = reference(env, corpus, REF_MIN_RUNS, REF_SECONDS)
    ckpt = env.path("stream-state", "stream.ckpt")
    shards = min(2, env.host_cpus)
    times, rss, state = [], [], {"ok": True, "runs": 0, "failed": 0}

    def step(_):
        shutil.rmtree(env.path("stream-state"), ignore_errors=True)
        os.makedirs(env.path("stream-state"))
        cmd = [env.logdiver, "stream", "--logs", corpus, "--shards", str(shards),
               "--lateness", str(LATENESS_S), "--checkpoint", ckpt,
               "--checkpoint-every", str(STREAM_CKPT_EVERY),
               "--checkpoint-secs", str(NO_TIME_CHECKPOINTS_S)]
        timed = run(env, "stream", cmd)
        times.append(timed.wall_s)
        rss.append(timed.rss_mb)
        if not bl.reports_match(read(env.path("stream.out")), report):
            log("stream-ckpt: stream report differs from batch analyze")
            state["ok"] = False
        progress = bl.stream_progress(read(env.path("stream.err")))
        state["failed"] += int(progress["bad"]) + int(progress["late_dropped"])
        state["runs"] += 1

    iterations = measure(seconds, step)
    metrics = {
        "lines_per_s": mix["lines"] / statistics.median(times),
        "serial_lines_per_s": mix["lines"] / statistics.median(ref_times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
    }
    info = {"corpus": mix, "iterations": iterations, "samples": times, "rss_mb": rss,
            "reference_s": ref_times, "setups": setups, "shards": shards,
            "final_ckpt_bytes": os.path.getsize(ckpt)}
    attempted = mix["lines"] * state["runs"]
    return metrics, state["ok"], attempted, state["failed"], info, env.path("stream-state")


def run_push_fleet(env, seed, seconds):
    dirs, setups = simulate(env, "push-fleet", seed, SETUPS)
    mixes = [bl.corpus_mix(d) for d in dirs]
    refs, ref_times = [], []
    for d in dirs:
        report, times = reference(env, d, REF_MIN_RUNS, REF_SECONDS / len(dirs))
        refs.append(report)
        ref_times.append(times)
    conn_specs, config_text, corpus_of = fleet_layout(env, dirs)
    config = env.path("tenants.conf")
    with open(config, "w") as f:
        f.write(config_text)
    fleet_lines = sum(mixes[c]["lines"] for c in corpus_of.values())
    walls, starts, rss = [], [], []
    state = {"ok": True, "attempted": 0, "failed": 0}

    def step(_):
        wall, start, peak, ok, attempted, failed = push_fleet_once(
            env, conn_specs, config, corpus_of, refs)
        walls.append(wall)
        starts.append(start)
        rss.append(peak)
        state["ok"] &= ok
        state["attempted"] += attempted
        state["failed"] += failed

    iterations = measure(seconds, step)
    metrics = {
        "lines_per_s": fleet_lines / statistics.median(walls),
        "serial_lines_per_s": (sum(m["lines"] for m in mixes)
                               / sum(statistics.median(t) for t in ref_times)),
        "setup_s": statistics.median(setups) + statistics.median(starts),
        "peak_rss_mb": max(rss),
    }
    info = {"corpora": mixes, "fleet_lines": fleet_lines, "iterations": iterations,
            "samples": walls, "rss_mb": rss, "reference_s": ref_times, "setups": setups,
            "daemon_start_s": starts,
            "connections": len(conn_specs) // 2, "tenants": FLEET_TENANTS}
    return metrics, state["ok"], state["attempted"], state["failed"], info, env.path("serve-state")


def run_trace(env, seed):
    """One traced run over all three paths, plus one TCP push-fleet run
    for the wire share."""
    corpora = {w: simulate(env, w, seed, 1)[0] for w in WORKLOADS}
    refs = {w: [reference(env, d)[0] for d in dirs] for w, dirs in corpora.items()}
    conn_specs, config_text, corpus_of = fleet_layout(env, corpora["push-fleet"])
    config = env.path("tenants.conf")
    with open(config, "w") as f:
        f.write(config_text)
    out_dir = env.path("trace")
    cmd = [env.inproc, "trace", "--batch", corpora["batch-quarter"][0],
           "--threads", str(env.host_cpus),
           "--stream", corpora["stream-ckpt"][0], "--shards", str(min(2, env.host_cpus)),
           "--lateness", str(LATENESS_S), "--chunk", str(STREAM_CHUNK),
           "--every", str(STREAM_CKPT_EVERY), *conn_specs, "--tenant-config", config,
           "--serve-every", str(SERVE_CKPT_EVERY), "--out", out_dir]
    run(env, "trace", cmd, timeout_s=150)
    traced = json.loads(read(env.path("trace.out")).splitlines()[-1])
    m = traced["metrics"]

    ok = True
    checks = [
        ("batch-t1.report", refs["batch-quarter"][0], True),
        ("batch-tn.report", refs["batch-quarter"][0], True),
        ("stream.report", refs["stream-ckpt"][0], True),
    ] + [
        (os.path.join("serve-reports", f"{t}.report"), refs["push-fleet"][c], False)
        for t, c in corpus_of.items()
    ]
    for name, want, exact in checks:
        if not bl.reports_match(read(os.path.join(out_dir, name)), want, exact):
            log(f"trace: {name} differs from batch analyze")
            ok = False
    for cover in ("core.stage_cover", "core.stage_cover.tn"):
        if m[cover] < 0.95:
            log(f"trace: batch stage spans cover {m[cover]:.3f} of analyze wall time (< 0.95)")
            ok = False

    tcp_wall, _, _, tcp_ok, tcp_attempted, tcp_failed = push_fleet_once(
        env, conn_specs, config, corpus_of, refs["push-fleet"])
    ok &= tcp_ok and m["client.incomplete"] == 0
    m["wire.share"] = 1.0 - m["serve.wall_s"] / tcp_wall
    metrics = {name: m[name] for name in PER_LAYER}
    attempted = (2 * m["craylog.lines"] + m["stream.lines"] + m["client.round_trips"]
                 + tcp_attempted)
    failed = (2 * m["craylog.quarantined"] + m["stream.quarantined"] + m["stream.late_dropped"]
              + m["client.retries"] + m["serve.gaps"] + m["serve.shed"] + tcp_failed)
    info = {"spans": traced["spans"], "tcp_wall_s": tcp_wall, "stream_wall_s": m["stream.wall_s"],
            "serve_wall_s": m["serve.wall_s"], "stage_cover_tn": m["core.stage_cover.tn"],
            "corpora": {w: [bl.corpus_mix(d) for d in dirs] for w, dirs in corpora.items()}}
    return metrics, ok, int(attempted), int(failed), info, out_dir


def print_spans(spans):
    print("self time by span (traced run; unexplained time is each root's self time):")
    for path, rows in spans.items():
        print(f"  [{path}]")
        for name, (count, total, self_s) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
            print(f"    {name:24s} n={count:<7d} total={total:9.4f}s self={self_s:9.4f}s")


def run_workload(workload, seed, seconds, trace):
    """One run: builds, measures (or traces), prints the metrics by name
    with their units, records the run, and returns the result object."""
    env = Env(workload, seed, trace)
    build(env)
    shutil.rmtree(env.work, ignore_errors=True)
    os.makedirs(env.work)

    if trace:
        metrics, ok, attempted, failed, info, state = run_trace(env, seed)
        units = PER_LAYER
    else:
        runner = {"batch-quarter": run_batch_quarter, "stream-ckpt": run_stream_ckpt,
                  "push-fleet": run_push_fleet}[workload]
        metrics, ok, attempted, failed, info, state = runner(env, seed, seconds)
        units = END_TO_END
    if not ok:
        failed = attempted

    mount, fstype = bl.filesystem_of(state)
    record = {
        "workload": workload,
        "why": WORKLOADS[workload][1],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host_cpus": env.host_cpus,
        "state_fs": {"mount": mount, "type": fstype},
        "info": info,
    }
    print(f"workload {workload} (seed {seed}): {record['why']}")
    print(f"host_cpus {env.host_cpus}; state on {fstype} at {mount}")
    for key in ("corpus", "corpora"):
        if key in info:
            print(f"{key}: {json.dumps(info[key])}")
    if trace:
        print_spans(info["spans"])
    for name, value in metrics.items():
        print(f"{name:28s} {value:16.6f} {units[name]}")
    print(f"correct {ok}; operations attempted {attempted}, failed {failed}")

    result = {
        "correct": bool(ok),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }
    record["result"] = result
    results = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)
    if trace:
        for spans in os.listdir(state):
            if spans.startswith("spans-"):
                shutil.copy(os.path.join(state, spans),
                            os.path.join(results, name[:-len(".json")] + "-" + spans))
    shutil.rmtree(env.work, ignore_errors=True)
    return result


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        # The traced run already covers every path, so it runs once.
        names = list(WORKLOADS)[:1] if args.trace else list(WORKLOADS)
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
