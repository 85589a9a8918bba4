#!/usr/bin/env python3
"""sdnav performance benchmark.

Builds sdnavd and the measuring harness from the checkout's sources,
runs one workload, checks its outputs, and prints one JSON result as
the last line of standard output:

    python3 perfbench/run.py --workload hot_query --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md):
  hot_query     sdnavd, 4 connections, every line a cache hit
  cold_compile  sdnavd --cache 1, 4 connections, every line a compile
  exact_sweep   in process: sweepGrid over a seeded grid, 4 threads;
                its check and probe also run the replicated simulation

The measured seconds are split into segments of about one second, each
served by a fresh process, and pooled. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 reports its per-layer
metrics: every other segment runs traced (sdnavd's --request-log on),
and serial layer probes follow the segments.
"""

import argparse
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("hot_query", "cold_compile", "exact_sweep")
SERVER_WORKLOADS = ("hot_query", "cold_compile")
SERVER_WORKERS = 4
SEGMENT_S = 1.0
HOT_PRIME = {"catalog": "opencontrail", "topology": "large", "nodes": 3,
             "policy": "required", "plane": "cp"}

# Per-layer metrics of layers a workload never enters. They read 0 there.
INAPPLICABLE = {
    "server": ("server.queue_wait_p50_share", "server.queue_wait_p99_share",
               "server.compile_p50_share", "server.eval_p50_share",
               "server.residual_p50_share", "server.reply_bytes",
               "cache.hit_share", "cache.coalesced"),
    "sweep": ("sweep.points_per_s_1t", "sweep.scaling", "sweep.imbalance"),
    "sim": ("sim.events", "sim.events_per_s", "sim.queue_high_water",
            "sim.halfwidth_min_per_year", "sim.time_to_precision_s",
            "replication.imbalance"),
}
USES = {"hot_query": ("server",), "cold_compile": ("server",),
        "exact_sweep": ("sweep", "sim")}


class BenchError(Exception):
    pass


def build():
    """Configure once, then (re)build sdnavd and the harness."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no sdnav sources under {ROOT}; run from a "
                         "checkout of the repository")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD.parent / "build.log"
    with open(build_log, "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                         str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"cmake configure failed, see {build_log}")
        jobs = str(os.cpu_count() or 2)
        if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=out, stderr=subprocess.STDOUT).returncode:
            raise BenchError(f"build failed, see {build_log}")


class Server:
    """One sdnavd process on an ephemeral loopback port."""

    def __init__(self, workdir, cache, request_log=None):
        self.port_file = workdir / f"port-{time.monotonic_ns()}"
        cmd = [str(BUILD / "sdnavd"), "--port", "0",
               "--port-file", str(self.port_file),
               "--workers", str(SERVER_WORKERS), "--cache", str(cache)]
        if request_log:
            cmd += ["--request-log", str(request_log)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while True:
            text = (self.port_file.read_text()
                    if self.port_file.exists() else "")
            if text.endswith("\n"):
                self.port = int(text)
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise BenchError("sdnavd did not start")
            time.sleep(0.0005)

    def request(self, doc):
        with socket.create_connection(("127.0.0.1", self.port)) as sock:
            sock.sendall((json.dumps(doc) + "\n").encode())
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    raise BenchError("sdnavd closed the connection")
                reply += chunk
        doc = json.loads(reply)
        if not doc.get("ok"):
            raise BenchError(f"sdnavd refused a request: {doc}")
        return doc

    def stop(self):
        try:
            self.request({"cmd": "shutdown"})
            self.proc.wait(timeout=30)
        finally:
            self.kill()
        self.port_file.unlink(missing_ok=True)
        if self.proc.returncode != 0:
            raise BenchError(f"sdnavd exited with {self.proc.returncode}")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def start_server(workload, workdir, request_log=None):
    """Start sdnavd and make it ready for the first timed line."""
    cache = 16 if workload == "hot_query" else 1
    t0 = time.perf_counter()
    server = Server(workdir, cache, request_log)
    try:
        if workload == "hot_query":
            server.request(dict(HOT_PRIME, id=0))
        else:
            server.request({"cmd": "ping"})
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - t0


def harness(args, timeout, ready=None):
    """Run the harness; return its last stdout line as JSON.

    With `ready`, the seconds from launch to the harness's "ready" line
    are appended to it.
    """
    cmd = [str(BUILD / "perfbench_harness")] + [str(a) for a in args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        if ready is not None:
            for line in proc.stdout:
                if line.strip() == "ready":
                    ready.append(time.perf_counter() - t0)
                    break
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"perfbench_harness {args[0]} exited with "
                         f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_segment(workload, seed, index, seconds, workdir, traced, setups):
    """One segment in a fresh serving process; appends its set-up time."""
    args = ["run", "--workload", workload, "--seed", seed,
            "--segment", index, "--seconds", seconds]
    timeout = seconds + 120
    if workload not in SERVER_WORKLOADS:
        return harness(args, timeout, ready=setups)
    request_log = workdir / f"requests-{index}.jsonl" if traced else None
    server, setup_s = start_server(workload, workdir, request_log)
    setups.append(setup_s)
    try:
        args += ["--port", server.port, "--server-pid", server.proc.pid]
        if request_log:
            args += ["--request-log", request_log]
        segment = harness(args, timeout)
    except BaseException:
        server.kill()
        raise
    server.stop()
    return segment


def quantile(ordered, q):
    """Nearest-rank quantile of a sorted sample."""
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def segment_quantile(segments, q):
    """Mean over segments of each segment's latency quantile.

    One serving process can be 1.5x faster than the next for its whole
    life, so a quantile of the pooled sample jumps between the modes as
    their mix changes; the mean over processes moves smoothly.
    """
    return statistics.fmean(quantile(sorted(s["latencies_ms"]), q)
                            for s in segments)


def end_to_end(segments):
    """Pool segments into the end-to-end metrics."""
    ops = sum(s["ops"] for s in segments)
    window = sum(s["window_s"] for s in segments)
    return {
        "ops_per_s": ops / window,
        "latency_p50_ms": segment_quantile(segments, 0.50),
        "latency_p90_ms": segment_quantile(segments, 0.90),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in segments),
    }


def per_layer(workload, untraced, traced, check, probe):
    """Per-layer metrics: traced segments, the oracle's reruns, probes."""
    values = dict(probe["layers"], **check["layers"])
    for name in traced[0]["layers"]:
        values[name] = statistics.median(s["layers"][name] for s in traced)
    ops = sum(s["ops"] for s in traced)
    values["proc.cpu_ms_per_op"] = sum(s["cpu_ms"] for s in traced) / ops
    values["proc.minor_faults_per_op"] = (
        sum(s["minor_faults"] for s in traced) / ops)
    plain, with_trace = end_to_end(untraced), end_to_end(traced)
    if workload == "exact_sweep":
        values["sweep.scaling"] = (with_trace["ops_per_s"]
                                   / values["sweep.points_per_s_1t"])
    for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms"):
        values[f"trace.overhead_{name}"] = (
            with_trace[name] - plain[name]) / plain[name]
    for group, names in INAPPLICABLE.items():
        if group not in USES[workload]:
            values.update({name: 0.0 for name in names})
    return values


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def metrics_doc(kind, values):
    missing = [name for name, _ in declared(kind) if name not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared(kind)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-oracle", action="store_true",
                        help="nudge every expected value (self-check)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build()
    workdir = BUILD.parent / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        count = max(2, round(args.seconds / SEGMENT_S))
        segments, setups = [], []
        for index in range(count):
            traced = bool(args.trace) and index % 2 == 1
            segment = run_segment(args.workload, args.seed, index,
                                  args.seconds / count, workdir, traced,
                                  setups)
            segment["traced"] = traced
            segments.append(segment)
        segments_file = workdir / "segments.json"
        segments_file.write_text(json.dumps(segments))
        check_args = ["check", "--workload", args.workload,
                      "--seed", args.seed, "--segments", segments_file]
        if args.perturb_oracle:
            check_args.append("--perturb-oracle")
        check = harness(check_args, 300)
        if args.trace:
            probe = harness(["probe", "--workload", args.workload,
                             "--seed", args.seed], 300)
            values = per_layer(
                args.workload, [s for s in segments if not s["traced"]],
                [s for s in segments if s["traced"]], check, probe)
            metrics = metrics_doc("per_layer", values)
        else:
            values = end_to_end(segments)
            values["setup_s"] = statistics.median(setups)
            metrics = metrics_doc("end_to_end", values)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(int(s["failed"]) for s in segments)
    errors = [s["error"] for s in segments if s["error"]]
    correct = check["correct"] and failed == 0
    stamp = dict(check["stamp"], workload=args.workload, seed=args.seed,
                 trace=args.trace, transport="loopback TCP 127.0.0.1",
                 server_workers=(SERVER_WORKERS
                                 if args.workload in SERVER_WORKLOADS
                                 else 0),
                 segments=count, setup_samples=len(setups),
                 latency_samples=sum(len(s["latencies_ms"])
                                     for s in segments),
                 oracle=check["oracle"], oracle_checks=check["checked"],
                 first_error=errors[0] if errors else "")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(sum(s["ops"] for s in segments)),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
