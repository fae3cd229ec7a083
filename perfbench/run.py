"""End-to-end benchmark of the qudit compile/simulate/verify service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        --slo-ms compile-cold=MS,warm-simulate-verify=MS,serve-mixed=MS

Workloads (see ``NOTES.md`` for why each exists):

* ``compile-cold``: one in-process client, closed loop, calling
  ``execute_request``; every request a distinct ``synthesize`` key on an
  empty on-disk cache, with lowering templates warm from setup;
* ``warm-simulate-verify``: one in-process client, closed loop, on a fresh
  ``CompileCache`` over a directory filled during setup: simulates,
  ``"verify": "standard"`` synthesizes and a minority of dense/sparse
  non-permutation simulates over a hot set;
* ``serve-mixed``: ``python -m repro serve --jobs 2`` driven by two
  closed-loop client threads with seeded 1..8-request submits.

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer split from a traced run, plus the tracing overhead
measured against an untraced run of the same requests.  Every output is
checked outside the timed region.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import OUT_DIR, WORKLOADS, child_env, load_catalog, src_available  # noqa: E402

#: Setups per trace-0 run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Every child process must finish before this many seconds of the run.
RUN_DEADLINE_S = 170.0
_STARTED = time.monotonic()
TIERS = ("structural", "index-propagation", "sampled-columns", "dense")


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------
def host_calibration() -> float:
    """Median seconds of a fixed pure-Python plus numpy loop (3 repeats)."""
    import numpy as np

    def once() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        a = np.arange(1 << 18, dtype=np.int64)
        for _ in range(40):
            a = (a * 1103515245 + 12345) & 0x7FFFFFFF
            a = a[np.argsort(a & 0xFF, kind="stable")]
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(3))


def host_record() -> Dict[str, object]:
    import numpy as np

    return {
        "calib_s": host_calibration(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ----------------------------------------------------------------------
# Spec generation
# ----------------------------------------------------------------------
def generate(workload: str, catalog, seed: int) -> Dict[str, object]:
    import workloads

    if workload == "compile-cold":
        requests = workloads.compile_cold(catalog, seed)
        workloads.check_requests_bounded(catalog, requests)
        return {"workload": workload, "seed": seed, "requests": requests}
    if workload == "warm-simulate-verify":
        requests = workloads.warm_simulate_verify(catalog, seed, rounds=60)
        workloads.check_requests_bounded(catalog, requests)
        return {"workload": workload, "seed": seed, "hot_keys": workloads.w2_hot_keys(),
                "requests": requests}
    submits = workloads.serve_mixed(catalog, seed, submits=3000)
    for batch in submits:
        workloads.check_requests_bounded(catalog, batch)
    return {"workload": workload, "seed": seed, "warmup": workloads.w3_warmup(),
            "submits": submits}


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def run_client(workload: str, spec_path: Path, workdir: Path, tag: str, *,
               seconds: Optional[float] = None, count: Optional[int] = None,
               trace: bool = False, setup_only: bool = False) -> Dict[str, object]:
    out = workdir / f"{tag}.json"
    command = [sys.executable, str(BENCH / "client.py"), "--workload", workload,
               "--spec", str(spec_path), "--out", str(out), "--workdir", str(workdir / tag)]
    if seconds is not None:
        command += ["--seconds", repr(seconds)]
    if count is not None:
        command += ["--count", str(count)]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    command += ["--t0", repr(time.monotonic())]
    remaining = RUN_DEADLINE_S - (time.monotonic() - _STARTED)
    process = subprocess.Popen(command, env=child_env())
    try:
        code = process.wait(timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        process.terminate()  # the client stops its daemon on SIGTERM
        try:
            process.wait(timeout=8)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        raise RuntimeError(f"client {tag} did not finish within the run deadline") from None
    if code != 0 or not out.is_file():
        raise RuntimeError(f"client {tag} exited with code {code}")
    return json.loads(out.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def outcome_counts(result) -> Dict[str, int]:
    records = result["records"]
    failed = sum(1 for r in records if not r["ok"])
    wrong = sum(1 for r in records if r["ok"] and r["problem"])
    refused = 0
    if "submits" in result:  # a non-200 submit refuses all its requests
        refused = sum(1 for s in result["submits"] if s["problem"] and "status" in s["problem"])
    return {"attempted": len(records), "failed": failed, "wrong": wrong, "refused": refused,
            "bad": failed + wrong}


def end_to_end(workload: str, result, setups: List[float], slo_ms: float):
    latencies_ms = [1e3 * x for x in result["latencies_s"]]
    counts = outcome_counts(result)
    good = sum(1 for r in result["records"] if r["ok"] and not r["problem"])
    wall = result["wall_s"]
    if "submits" in result:
        units = [(1e3 * s["latency_s"], s["ok"]) for s in result["submits"]]
    else:
        units = [(ms, r["ok"] and not r["problem"])
                 for ms, r in zip(latencies_ms, result["records"])]
    p95 = percentile(latencies_ms, 95)
    samples = len(latencies_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "latency_p50_ms": (percentile(latencies_ms, 50), "ms", samples),
        "latency_p95_ms": (p95, "ms", samples),
        "throughput_rps": (good / wall, "1/s", good),
        "gates_per_s": (sum(r["gates"] for r in result["records"]) / wall, "1/s", good),
        "slo_met_frac": (sum(1 for ms, ok in units if ok and ms <= slo_ms) / len(units),
                         "frac", len(units)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }
    extra = {
        "error_frac": counts["bad"] / max(1, counts["attempted"]),
        "beyond_p95": sum(1 for ms in latencies_ms if ms > p95),
        "wall_s": wall,
        "slo_ms": slo_ms,
    }
    return metrics, counts, extra


def _histogram_quantile(before, after, q: float) -> float:
    """Upper bound (ms) of the histogram bucket holding quantile ``q``."""
    b = (before.get("queue_wait") or {}).get("buckets", {})
    a = (after.get("queue_wait") or {}).get("buckets", {})
    total = a.get("+Inf", 0) - b.get("+Inf", 0)
    if total <= 0:
        return 0.0
    for bound, cumulative in a.items():
        if cumulative - b.get(bound, 0) >= q * total:
            return float("inf") if bound == "+Inf" else 1e3 * float(bound)
    return 0.0


def per_layer(workload: str, traced, untraced, host) -> Dict[str, tuple]:
    trace = traced["trace"]
    self_s = trace["self_s"]
    incl = trace["incl_s"]
    calls = trace["calls"]
    counters = trace["counters"]
    root_s = trace["root_s"] or 1e-12

    def s(name):
        return self_s.get(name, 0.0)

    def c(name):
        return counters.get(name, 0.0)

    lookups = c("exec.cache.lookups")
    hits = c("exec.cache.memo_hits") + c("exec.cache.disk_hits")
    rows_in = c("ir.cancel.rows_in")
    lowering = incl.get("ir.lower", 0.0)
    metrics = {
        "synth.calls": (calls.get("synth", 0), "count"),
        "synth.s": (s("synth"), "s"),
        "passes.s": (s("passes"), "s"),
        "ir.lower.s": (s("ir.lower"), "s"),
        "ir.expand.s": (s("ir.expand"), "s"),
        "ir.expand.rows": (c("ir.expand.rows"), "count"),
        "ir.cancel.s": (s("ir.cancel"), "s"),
        "ir.cancel.removed_frac": ((rows_in - c("ir.cancel.rows_out")) / rows_in
                                   if rows_in else 0.0, "frac"),
        "ir.cancel.lowering_share": (incl.get("ir.cancel", 0.0) / lowering
                                     if lowering else 0.0, "frac"),
        "ir.drop.s": (s("ir.drop"), "s"),
        "ir.apply_indices.s": (s("ir.apply_indices"), "s"),
        "ir.apply_indices.row_visits": (c("ir.apply_indices.row_visits"), "count"),
        "ir.apply_indices.request_share": (incl.get("ir.apply_indices", 0.0) / root_s, "frac"),
        "ir.compose.s": (s("ir.compose"), "s"),
        "exec.cache.get_s": (s("exec.cache.get"), "s"),
        "exec.cache.hit_frac": (hits / lookups if lookups else 0.0, "frac"),
        "exec.cache.disk_hits": (c("exec.cache.disk_hits"), "count"),
        "exec.cache.put_s": (s("exec.cache.put"), "s"),
        "exec.rehydrate_s": (s("exec.rehydrate"), "s"),
        "sim.apply_s": (s("sim.apply"), "s"),
        "sim.state_bytes": (trace["maxima"].get("sim.state_bytes", 0.0), "bytes"),
        "verify.s": (s("verify"), "s"),
        "verify.undecided": (c("verify.undecided"), "count"),
        "verify.propagate_s": (s("verify.propagate"), "s"),
        "verify.exhaustive_s": (s("verify.exhaustive"), "s"),
        "verify.columns_s": (s("verify.columns"), "s"),
        "resources.estimate_s": (s("resources.estimate"), "s"),
        "resources.materialisations": (c("resources.materialisations"), "count"),
        "dse.auto_select_s": (s("dse.auto_select"), "s"),
    }
    for tier in TIERS:
        metrics[f"verify.decided.{tier}"] = (c(f"verify.decided.{tier}"), "count")

    # Daemon counters come from the untraced run (no wrapper cost in them).
    serve = {"serve.queue_wait_p50_ms": 0.0, "serve.queue_wait_p95_ms": 0.0,
             "serve.exec_s": 0.0, "serve.overhead_ms": 0.0, "serve.cache_hit_frac": 0.0,
             "serve.rejected": 0.0}
    if "submits" in untraced:
        before, after = untraced["metrics_before"], untraced["metrics_after"]
        cb, ca = before.get("cache", {}), after.get("cache", {})
        d_hits = sum(ca.get(f, 0) - cb.get(f, 0) for f in ("memo_hits", "disk_hits"))
        d_lookups = d_hits + ca.get("misses", 0) - cb.get("misses", 0)
        rb = (before.get("requests") or {}).get("rejected", {})
        ra = (after.get("requests") or {}).get("rejected", {})
        serve.update({
            "serve.queue_wait_p50_ms": _histogram_quantile(before, after, 0.50),
            "serve.queue_wait_p95_ms": _histogram_quantile(before, after, 0.95),
            "serve.exec_s": sum(r.get("seconds", 0.0) for r in untraced["records"]),
            "serve.overhead_ms": statistics.median(
                1e3 * (s_["latency_s"] - s_["server_s"]) for s_ in untraced["submits"]),
            "serve.cache_hit_frac": d_hits / d_lookups if d_lookups else 0.0,
            "serve.rejected": float(sum(ra.get(k, 0) - rb.get(k, 0) for k in ra)),
        })
    units = {"serve.exec_s": "s", "serve.cache_hit_frac": "frac", "serve.rejected": "count"}
    for name, value in serve.items():
        metrics[name] = (value, units.get(name, "ms"))

    n = len(traced["latencies_s"])
    traced_wall = traced["wall_s"]
    untraced_wall = untraced["wall_s"]
    if "submits" not in untraced:  # same first n requests, one client
        untraced_wall = sum(untraced["latencies_s"][:n])
    metrics["trace.unattributed_frac"] = (s("request") / root_s, "frac")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    metrics["trace.requests"] = (trace["roots"], "count")
    metrics["host.calib_s"] = (host["calib_s"], "s")
    return metrics


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slo-ms", required=True,
                        help="latency limit of slo_met_frac per workload (per request; "
                        "per submit on serve-mixed), e.g. compile-cold=250,serve-mixed=125")
    args = parser.parse_args(argv)
    if not src_available():
        print("error: the program's sources (src/repro) are not in this checkout",
              file=sys.stderr)
        return 2
    slo = {}
    for item in args.slo_ms.split(","):
        name, _, value = item.partition("=")
        slo[name.strip()] = float(value)
    if args.workload not in slo:
        parser.error(f"--slo-ms gives no limit for {args.workload}")

    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    catalog = load_catalog()
    host = host_record()
    spec = generate(args.workload, catalog, args.seed)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    if args.trace == 0:
        setups = [
            run_client(args.workload, spec_path, workdir, f"setup{i}", setup_only=True)["setup_s"]
            for i in range(SETUP_REPS - 1)
        ]
        result = run_client(args.workload, spec_path, workdir, "main", seconds=args.seconds)
        setups.append(result["setup_s"])
        measured, counts, extra = end_to_end(args.workload, result, setups,
                                             slo[args.workload])
        report = {name: {"value": v, "unit": u} for name, (v, u, _) in measured.items()}
        print(f"# workload={args.workload} seed={args.seed} host={json.dumps(host)}")
        for name, (value, unit, samples) in measured.items():
            print(f"# {name:18s} {value:14.6g} {unit:5s} samples={samples}")
        print(f"# error_frac={extra['error_frac']:.6g} attempted={counts['attempted']} "
              f"failed={counts['failed']} refused={counts['refused']} wrong={counts['wrong']} "
              f"beyond_p95={extra['beyond_p95']} slo_ms={extra['slo_ms']:g}")
        summary = {"end_to_end": measured, "counts": counts, "extra": extra, "host": host}
    else:
        untraced = run_client(args.workload, spec_path, workdir, "untraced",
                              seconds=args.seconds / 2)
        count = len(untraced["latencies_s"])
        result = run_client(args.workload, spec_path, workdir, "traced", count=count,
                            trace=True)
        measured = per_layer(args.workload, result, untraced, host)
        counts = outcome_counts(result)
        for key, value in outcome_counts(untraced).items():
            counts[key] += value
        report = {name: {"value": v, "unit": u} for name, (v, u) in measured.items()}
        print(f"# workload={args.workload} seed={args.seed} traced requests={count} "
              f"host={json.dumps(host)}")
        for name, (value, unit) in measured.items():
            print(f"# {name:32s} {value:14.6g} {unit}")
        summary = {"per_layer": measured, "counts": counts, "host": host}
    problems = sorted({r["problem"] for r in result["records"] if r["problem"]})
    for problem in problems[:10]:
        print(f"# wrong/failed: {problem}")
    (workdir / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    for path in workdir.iterdir():  # keep the spec and the result only
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)
    print(json.dumps({
        "correct": counts["bad"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["bad"],
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
