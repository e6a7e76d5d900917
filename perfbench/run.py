#!/usr/bin/env python3
"""ppdp benchmark: the Ch.3 Fig 3.5 sweep plus ppdp_serve under its recorded traffic.

    python3 perfbench/run.py --workload sanitize|serve|serve_traced \
        --seed N --seconds S --trace 0|1

Run from the root of a ppdp source tree. The first run builds ppdp_serve and
perfbench/driver.cc with CMake (Release) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs reuse the build.

Workloads (each runs 1 s of warm-up, then --seconds measured):
  sanitize      bench_fig3_5's computation in process, on up to 4 worker
                threads with single-threaded kernels, over 3 MIT-like graphs
                (scale 0.05) from bench_fig3_5's default seed, walked in an
                order drawn from --seed: each operation masks 0-4
                privacy-dependent attributes on a copy of one graph, then
                walks 0-250 removed links in steps of 50, bootstrapping and
                removing before each step and running ICA-KNN or ICA-NB at
                every level.
  serve         ppdp_serve as the CI perf gate runs bench_serve (graph scale
                0.15, --threads 2, seed 7) under bench_serve's 8 closed-loop
                clients and mix: 12% genome publishes, 78% histogram and
                range-count aggregates at epsilon 0.05, 10% audits.
  serve_traced  the same traffic against ppdp_serve with the serve-smoke CI
                job's tracing flags: access log, alert log, slow-request
                capture at 1 ms and SLO evaluation on every request.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics: median and p95 operation
latency and operations per second, and set-up time (median of several
set-ups: corpus generation and ranking for the sweep, daemon start to ready
for serving). The sweep takes each walk's fastest run over the passes, and its
throughput is its fastest full pass. Serving takes the median of each metric
over tenths of the measured time.
--trace 1 reports per-layer metrics from spans the driver records around
each call into a layer and, for serving, the daemon's own per-stage access
log joined to the client spans by trace id. Layers a workload never enters
read 0.
"""

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

SWEEP_SCALE = 0.05
SWEEP_GRAPHS = 3
SWEEP_WALKS = 10  # per graph: 2 local classifiers x 5 attribute levels
# Walks run side by side on every core (up to 4): a single thread's speed
# swings with whatever shares its core, and over a run's passes each walk
# gets its turn on a quiet one.
SWEEP_WORKERS = min(4, os.cpu_count() or 1)
DAEMON_STARTS = 15
WARMUP_S = 1
WINDOWS = 10
# bench_serve's defaults and the CI perf gate's invocation of it: 8 clients,
# graph scale 0.15, --threads 2, seed 7 (the daemon's corpus is fixed, so
# --seed varies the traffic only), a budget no tenant exhausts, and queue,
# tenant and connection limits sized from the client count as bench_serve
# sizes them.
CLIENTS = 8
BUDGET = 1e9
DAEMON_FLAGS = ["--port", "0", "--graph_scale", "0.15", "--threads", "2", "--seed", "7",
                "--tenant_budget", str(int(BUDGET)), "--max_tenants", str(CLIENTS + 4),
                "--max_pending", str(CLIENTS * 8), "--http_max_conns", str(CLIENTS + 4),
                "--log_level", "warn"]
# The serve-smoke CI job's tracing flags. The access log gets room for a
# whole run, so no record rotates away before the benchmark counts them.
TRACED_FLAGS = ["--slow_request_ms", "1", "--slo_eval_period_s", "0",
                "--access_log_max_mb", "1024"]

# Per-layer metrics. Sweep layers are ms per operation, from the driver's
# spans; serving layers are µs per request, from client spans and the
# daemon's ppdp.access.v1 stages.
SWEEP_LAYERS = {
    "graph.copy_ms": "graph.copy",
    "classify.bootstrap_ms": "classify.bootstrap",
    "sanitize.remove_links_ms": "sanitize.remove_links",
    "classify.ica_knn_ms": "classify.ica_knn",
    "classify.ica_nb_ms": "classify.ica_nb",
}
SERVE_STAGES = {
    "serve.parse_us": "serve.parse",
    "serve.admission_us": "serve.admission.queue",
    "serve.ledger_us": "serve.ledger.spend",
    "serve.coalesce_wait_us": "serve.coalesce.wait",
    "serve.compute_us": "serve.publish",
    "serve.write_us": "serve.write",
}
# Unstaged time is the request's total less its stages: routing, JSON, the
# aggregate queries and the SLO engine's RecordSpend and evaluation.
SERVE_OTHER = ["client.transport_us", "serve.unstaged_us"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile(os.path.join("perfbench", "CMakeLists.txt"))):
        fail("run from the root of a ppdp source tree")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(["cmake", "--build", build_dir, "--target", "ppdp_serve",
                           "perf_driver", "-j", jobs], stdout=sys.stderr)
    if made.returncode != 0:
        fail("build failed")


def run_driver(command):
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=150)
    if done.returncode != 0 or not done.stdout.strip():
        fail("driver exited with %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


class Daemon:
    """One ppdp_serve process; construction blocks until it serves."""

    def __init__(self, exe, flags):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen([exe] + flags, stdout=subprocess.PIPE)
        self.port = None
        # Raw reads: a buffered readline could hold the serving line back
        # from select().
        output = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            deadline = self.started + 60
            while self.port is None and time.perf_counter() < deadline:
                if not selector.select(timeout=deadline - time.perf_counter()):
                    break
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                output += chunk
                for line in output.decode(errors="replace").splitlines():
                    if line.startswith("(serving: http://127.0.0.1:"):
                        self.port = int(line.split(":")[-1].strip().rstrip(")/"))
        self.ready_s = time.perf_counter() - self.started
        if self.port is None:
            self.stop()
            fail("ppdp_serve did not start")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def sweep_end_to_end(result):
    # Every full pass repeats the same walks, and interference from elsewhere
    # on the machine only adds time, so each walk counts with its fastest
    # run; the last, unfinished pass is dropped.
    passes = {}
    for pass_index, start, latency, walk in result["ops"]:
        passes.setdefault(int(pass_index), []).append((start, latency, walk))
    full = [ops for ops in passes.values() if len(ops) == SWEEP_GRAPHS * SWEEP_WALKS]
    if len(full) < 2:
        fail("fewer than 2 full passes; raise --seconds")
    best = {}
    for ops in full:
        for _, latency, walk in ops:
            best[walk] = min(best.get(walk, latency), latency)
    latencies = list(best.values())
    # Throughput: walks per second of the fastest full pass, first start to
    # last end, for the same reason.
    spans = [max(start + latency / 1e6 for start, latency, _ in ops)
             - min(start for start, _, _ in ops) for ops in full]
    return {
        "latency_p50_ms": (statistics.median(latencies) / 1e3, "ms"),
        "latency_p95_ms": (statistics.quantiles(latencies, n=20)[18] / 1e3, "ms"),
        "throughput_ops_s": (max(len(ops) / span for ops, span in zip(full, spans)), "1/s"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
    }


def serve_end_to_end(result, seconds):
    # Each metric is the median over tenths of the measured time, so a burst
    # of interference from elsewhere on the machine moves a few windows, not
    # the result.
    windows = [[] for _ in range(WINDOWS)]
    for _, start, latency, _ in result["ops"]:
        windows[min(int(start * WINDOWS / seconds), WINDOWS - 1)].append(latency)
    measured = [lat for lat in windows if len(lat) >= 20]
    if len(measured) < 2:
        fail("fewer than 2 measured windows; raise --seconds")
    return {
        "latency_p50_ms": (statistics.median(
            statistics.median(lat) / 1e3 for lat in measured), "ms"),
        "latency_p95_ms": (statistics.median(
            statistics.quantiles(lat, n=20)[18] / 1e3 for lat in measured), "ms"),
        "throughput_ops_s": (statistics.median(
            len(lat) / (seconds / WINDOWS) for lat in measured), "1/s"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
    }


def read_jsonl(*paths):
    records = []
    for path in paths:
        if os.path.exists(path):
            with open(path) as lines:
                records += [json.loads(line) for line in lines if line.strip()]
    return records


def check_logs(result, access_log, alert_log):
    """The daemon logs every request exactly once, and only valid alerts."""
    if any(r.get("schema") != "ppdp.access.v1" for r in access_log):
        result["errors"].append("access log record without ppdp.access.v1 schema")
        result["correct"] = False
    if len(access_log) != result["requests"]:
        result["errors"].append("access log holds %d records for %d requests"
                                % (len(access_log), result["requests"]))
        result["correct"] = False
    if any(r.get("schema") != "ppdp.alertlog.v1" for r in alert_log):
        result["errors"].append("alert log record without ppdp.alertlog.v1 schema")
        result["correct"] = False


def per_layer(result, spans, access_log):
    """Per-layer means; `access_log` is None for the in-process sweep."""
    metrics = {name: (0.0, "ms") for name in ["sanitize.rank_ms"] + list(SWEEP_LAYERS)}
    metrics.update({name: (0.0, "us") for name in list(SERVE_STAGES) + SERVE_OTHER})
    metrics["serve.coalesced_share"] = (0.0, "ratio")
    if access_log is None:
        # Ranking runs once per graph, in set-up.
        metrics["sanitize.rank_ms"] = (statistics.median(result["rank_ms"]), "ms")
        # Only walks whose root span is measured; one may straddle the warm-up.
        walks = {span["trace"] for span in spans if span["name"] == "sweep.walk"}
        ops = max(1, len(walks))
        for metric, layer in SWEEP_LAYERS.items():
            total = sum(span["dur_us"] for span in spans
                        if span["name"] == layer and span["trace"] in walks)
            metrics[metric] = (total / ops / 1e3, "ms")
        return metrics
    client = {span["trace"]: span["dur_us"] for span in spans}
    records = [r for r in access_log if r.get("request_id") in client]
    if not records:
        fail("no access-log record matches a client span")
    for metric, stage in SERVE_STAGES.items():
        total = sum(r.get("stages", {}).get(stage, 0.0) for r in records)
        metrics[metric] = (total / len(records), "us")
    transport = sum(client[r["request_id"]] - r["total_micros"] for r in records)
    unstaged = sum(r["total_micros"] - sum(r.get("stages", {}).values()) for r in records)
    metrics["client.transport_us"] = (transport / len(records), "us")
    metrics["serve.unstaged_us"] = (unstaged / len(records), "us")
    # Coalescing saves publisher runs: the share of publishes served by
    # another request's run.
    leaders = sum(1 for r in records if r.get("coalesce") == "leader")
    waiters = sum(1 for r in records if r.get("coalesce") == "waiter")
    metrics["serve.coalesced_share"] = (waiters / max(1, leaders + waiters), "ratio")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sanitize", "serve", "serve_traced"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    build(build_dir)
    run_dir = os.path.join(build_dir, "runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(run_dir)
    spans_path = os.path.join(run_dir, "spans.jsonl")
    common = ["--seed", str(args.seed), "--warmup", str(WARMUP_S), "--seconds", str(args.seconds)]
    if args.trace:
        common += ["--spans", spans_path]
    try:
        access_log = None
        if args.workload == "sanitize":
            result = run_driver([os.path.join(build_dir, "perf_driver"), "sweep", "--scale",
                                 str(SWEEP_SCALE), "--graphs", str(SWEEP_GRAPHS), "--workers",
                                 str(SWEEP_WORKERS)] + common)
        else:
            traced = args.workload == "serve_traced"
            access_path = os.path.join(run_dir, "access.jsonl")
            alert_path = os.path.join(run_dir, "alerts.jsonl")
            flags = list(DAEMON_FLAGS)
            if traced:
                flags += TRACED_FLAGS + ["--alert_log", alert_path]
            if traced or args.trace:
                flags += ["--access_log", access_path]
            exe = os.path.join(build_dir, "ppdp", "tools", "ppdp_serve")
            setup_s = []
            for _ in range(DAEMON_STARTS - 1):
                daemon = Daemon(exe, flags)
                setup_s.append(daemon.ready_s)
                daemon.stop()
                for path in (access_path, alert_path):
                    if os.path.exists(path):
                        os.remove(path)
            daemon = Daemon(exe, flags)
            setup_s.append(daemon.ready_s)
            try:
                result = run_driver([os.path.join(build_dir, "perf_driver"), "load", "--port",
                                     str(daemon.port), "--clients", str(CLIENTS), "--budget",
                                     str(BUDGET)] + common)
            finally:
                daemon.stop()
            result["setup_s"] = setup_s
            if traced or args.trace:
                access_log = read_jsonl(access_path, access_path + ".1")
                check_logs(result, access_log,
                           read_jsonl(alert_path, alert_path + ".1") if traced else [])
        if args.trace:
            metrics = per_layer(result, read_jsonl(spans_path), access_log)
        elif args.workload == "sanitize":
            metrics = sweep_end_to_end(result)
        else:
            metrics = serve_end_to_end(result, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for error in result["errors"]:
        print("perfbench: " + error, file=sys.stderr)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
