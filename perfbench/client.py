"""One measurement process of the benchmark (started by ``run.py``).

    python3 perfbench/client.py --workload NAME --spec SPEC --out RESULT
        --workdir DIR --t0 MONOTONIC [--seconds S | --count N] [--trace]
        [--setup-only]

It sets the workload up, reports ``setup_s`` (from ``--t0``, taken by the
parent just before it started this process, or just before the daemon
started for serve-mixed), runs the timed closed loop, then checks every
output *outside* the timed region and writes a JSON result for
``run.py`` to turn into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    BENCH_DIR,
    SpecCache,
    child_env,
    ensure_src_on_path,
    expected_simulate_output,
    key_name,
    load_catalog,
    table_digest,
)

ensure_src_on_path()

# A closed-loop serve-mixed client waits at most this long for one submit.
SUBMIT_TIMEOUT_S = 120.0
DAEMON_READY_S = 120.0


# ----------------------------------------------------------------------
# Output checking (never inside the timed region)
# ----------------------------------------------------------------------
class Checker:
    """Compares rows with the catalogue and the hand-written specs."""

    def __init__(self, catalog):
        self.compile = {key_name(e["strategy"], e["d"], e["k"]): e for e in catalog["compile"]}
        self.estimates = {key_name(e["strategy"], e["d"], e["k"]): e for e in catalog["estimate"]}
        self.specs = SpecCache()
        self.digest_ok: Dict[str, bool] = {}

    def entry(self, request) -> Dict[str, object]:
        return self.compile[key_name(request["strategy"], request["d"], request["k"])]

    def check_digest(self, request, table) -> Optional[str]:
        entry = self.entry(request)
        name = key_name(entry["resolved"], entry["d"], entry["k"])
        if name not in self.digest_ok:
            self.digest_ok[name] = table is not None and table_digest(table) == entry["digest"]
        return None if self.digest_ok[name] else f"table digest differs for {name}"

    def check_row(self, request, row) -> Optional[str]:
        """``None`` when the row is right; otherwise what is wrong."""
        if not row.get("ok"):
            return f"failed: {row.get('error')}"
        if request["kind"] == "estimate":
            pinned = self.estimates[key_name(request["strategy"], request["d"], request["k"])]
            for field in ("g_gates", "two_qudit_gates", "num_wires"):
                if int(row[field]) != int(pinned[field]):
                    return f"estimate {field}={row[field]}, expected {pinned[field]}"
            return None
        entry = self.entry(request)
        if row.get("strategy") != entry["resolved"]:
            return f"resolved to {row.get('strategy')}, expected {entry['resolved']}"
        if int(row.get("gates", -1)) != int(entry["rows"]):
            return f"gates={row.get('gates')}, expected {entry['rows']}"
        if request["kind"] == "simulate":
            expected = [expected_simulate_output(self.specs, entry, s) for s in request["states"]]
            if row.get("outputs") != expected:
                return "simulate outputs differ from the semantic spec"
        if request.get("verify"):
            status = (row.get("verify_result") or {}).get("status")
            if status != "verified":
                return f"verify status {status!r}"
        return None


def _lowered_key(entry, salt):
    from repro.exec.service import lowered_key

    return lowered_key(entry["resolved"], int(entry["d"]), int(entry["k"]), salt=salt)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# In-process workloads (compile-cold, warm-simulate-verify)
# ----------------------------------------------------------------------
def _warm_templates(catalog) -> None:
    """Fill process-level lowering templates and estimator memos.

    For each (strategy, d) of the compile pool, lower the largest k just
    below the pool (so no timed key is touched) and resolve ``auto`` at
    both parities, as a long-lived caller would have done already.
    """
    from repro.exec.service import compile_lowered
    from repro.synth import registry

    lowest: Dict[tuple, int] = {}
    for e in catalog["compile"]:
        if e.get("pool"):
            pair = (e["strategy"], e["d"])
            lowest[pair] = min(lowest.get(pair, 10**9), int(e["k"]))
    for (strategy, dim), k in sorted(lowest.items()):
        if strategy == "auto":
            for probe in (k - 2, k - 1):
                registry.auto_select(dim, probe)
        compile_lowered(strategy, dim, k - 1)


def _setup_in_process(name: str, catalog, spec, workdir: Path):
    from repro.exec import workload  # noqa: F401 - its import cost is part of setup
    from repro.exec.cache import CompileCache
    from repro.exec.service import compile_lowered

    cache_dir = workdir / "cache"
    if name == "compile-cold":
        _warm_templates(catalog)
        return CompileCache(cache_dir)
    # warm-simulate-verify: fill the directory, then a fresh cache on it.
    filler = CompileCache(cache_dir)
    for strategy, dim, k in spec["hot_keys"]:
        compile_lowered(strategy, dim, k, cache=filler)
    return CompileCache(cache_dir)


def run_in_process(args, catalog, spec) -> Dict[str, object]:
    workdir = Path(args.workdir)
    cache = _setup_in_process(args.workload, catalog, spec, workdir)
    setup_s = time.monotonic() - args.t0
    result: Dict[str, object] = {"setup_s": setup_s}
    if args.setup_only:
        return result

    from repro.exec import workload

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)  # wraps workload.execute_request as the root span

    checker = Checker(catalog)
    requests = spec["requests"]
    limit = args.count if args.count is not None else len(requests)
    latencies: List[float] = []
    records = []
    busy = 0.0
    for index, raw in enumerate(requests[:limit]):
        if args.count is None and busy >= args.seconds:
            break
        request = workload.WorkloadRequest.from_dict(raw, index)
        start = time.perf_counter()
        row = workload.execute_request(request, cache, index=index)
        elapsed = time.perf_counter() - start
        busy += elapsed
        latencies.append(elapsed)
        # Checked right away but outside the timed interval: compile-cold's
        # tables are only in the memo until the LRU drops them.  Every
        # request here is compile-bearing.
        entry = checker.entry(raw)
        problem = checker.check_row(raw, row)
        if problem is None:
            cached = cache.get(_lowered_key(entry, cache.salt))
            problem = checker.check_digest(raw, cached.table if cached else None)
        gates = int(row["gates"]) if row.get("ok") and not entry.get("nonperm") else 0
        records.append({"kind": raw["kind"], "ok": bool(row.get("ok")),
                        "problem": problem, "gates": gates})
    result.update(
        latencies_s=latencies,
        records=records,
        wall_s=busy,
        peak_rss_mb=_peak_rss_mb(),
    )
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    shutil.rmtree(workdir / "cache", ignore_errors=True)
    return result


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Daemon:
    """A ``python -m repro serve`` process on an ephemeral port."""

    def __init__(self, workdir: Path, warmup: Path, trace_dir: Optional[Path]):
        self.cache_dir = workdir / "cache"
        command = [sys.executable]
        if trace_dir is not None:
            command += [str(BENCH_DIR / "serve_traced.py"), str(trace_dir)]
        else:
            command += ["-m", "repro"]
        command += ["serve", "--host", "127.0.0.1", "--port", "0", "--jobs", "2",
                    "--cache-dir", str(self.cache_dir), "--warmup", str(warmup)]
        self.t0 = time.monotonic()
        self.process = subprocess.Popen(
            command, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        self.address = self._read_address()
        from repro.serve.client import ServeClient

        self.client = ServeClient(self.address, timeout=SUBMIT_TIMEOUT_S)
        self.client.wait_ready(deadline=DAEMON_READY_S)
        self.setup_s = time.monotonic() - self.t0

    def _read_address(self) -> str:
        deadline = time.monotonic() + DAEMON_READY_S
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(f"daemon exited early (code {self.process.poll()})")
            if line.startswith("serving on "):
                return line[len("serving on "):].strip()
        raise RuntimeError("daemon did not report its address")

    def tree_peak_rss_mb(self) -> float:
        """Sum of VmHWM over the daemon and its worker processes."""
        pids = [self.process.pid]
        try:
            children = Path(f"/proc/{self.process.pid}/task/{self.process.pid}/children")
            pids += [int(p) for p in children.read_text().split()]
        except OSError:
            pass
        total_kb = 0
        for pid in pids:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait(timeout=30)
        self.process.stdout.close()


def _metrics(daemon: Daemon) -> Dict[str, object]:
    status, payload = daemon.client.metrics()
    return payload if status == 200 else {}


def run_serve(args, catalog, spec) -> Dict[str, object]:
    workdir = Path(args.workdir)
    warmup = workdir / "warmup.json"
    warmup.write_text(json.dumps(spec["warmup"]), encoding="utf-8")
    trace_dir = workdir / "spans" if args.trace else None
    daemon = Daemon(workdir, warmup, trace_dir)
    result: Dict[str, object] = {"setup_s": daemon.setup_s}
    try:
        if args.setup_only:
            return result
        import spans

        before_spans = spans.read_dumps(trace_dir) if trace_dir else {}
        before = _metrics(daemon)
        submits = spec["submits"]
        limit = args.count if args.count is not None else len(submits)
        outcomes: List[Optional[dict]] = [None] * limit
        lock = threading.Lock()
        cursor = [0]
        start = time.perf_counter()

        def drive():
            from repro.serve.client import ServeClient

            client = ServeClient(daemon.address, timeout=SUBMIT_TIMEOUT_S)
            while True:
                with lock:
                    i = cursor[0]
                    if i >= limit or (args.count is None
                                      and time.perf_counter() - start >= args.seconds):
                        return
                    cursor[0] += 1
                t = time.perf_counter()
                try:
                    status, payload = client.submit({"requests": submits[i]})
                except Exception as error:  # noqa: BLE001 - a lost submit is a failure
                    status, payload = 0, {"error": f"{type(error).__name__}: {error}"}
                outcomes[i] = {"latency_s": time.perf_counter() - t, "status": status,
                               "payload": payload}

        threads = [threading.Thread(target=drive, daemon=True) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        after = _metrics(daemon)
        peak = daemon.tree_peak_rss_mb()
        after_spans = spans.read_dumps(trace_dir) if trace_dir else {}
    finally:
        daemon.stop()

    checker = Checker(catalog)
    from repro.exec.cache import CompileCache

    disk = CompileCache(daemon.cache_dir, mmap_mode=None)
    submit_records = []
    records = []
    for i, outcome in enumerate(outcomes):
        if outcome is None:  # never sent: the run ended first
            continue
        batch = submits[i]
        rows = outcome["payload"].get("rows") or []
        problems = []
        if outcome["status"] != 200 or len(rows) != len(batch):
            problems.append(f"status {outcome['status']}: {outcome['payload'].get('error')}")
        for raw, row in zip(batch, rows):
            problem = checker.check_row(raw, row)
            if problem is None and raw["kind"] != "estimate":
                cached = disk.get(_lowered_key(checker.entry(raw), disk.salt))
                problem = checker.check_digest(raw, cached.table if cached else None)
            if problem:
                problems.append(problem)
            compiled = row.get("ok") and raw["kind"] != "estimate"
            records.append({
                "kind": raw["kind"], "ok": bool(row.get("ok")), "problem": problem,
                "gates": int(row["gates"]) if compiled else 0,
                "seconds": float(row.get("seconds") or 0.0),
            })
        records.extend({"kind": r["kind"], "ok": False, "problem": "no row", "gates": 0}
                       for r in batch[len(rows):])
        server_s = float(outcome["payload"].get("seconds", 0.0) or 0.0)
        submit_records.append({
            "latency_s": outcome["latency_s"], "ok": not problems,
            "problem": "; ".join(problems) or None, "server_s": server_s,
            "requests": len(batch),
        })
    shutil.rmtree(daemon.cache_dir, ignore_errors=True)
    result.update(
        latencies_s=[s["latency_s"] for s in submit_records],
        submits=submit_records,
        records=records,
        wall_s=wall,
        peak_rss_mb=peak,
        metrics_before=before,
        metrics_after=after,
    )
    if trace_dir is not None:
        snap_after = spans.merge_snapshots(after_spans.values())
        snap_before = spans.merge_snapshots(
            before_spans.get(name, {}) for name in after_spans
        )
        result["trace"] = spans.diff_snapshots(snap_after, snap_before)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a started daemon is always stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.t0 is None:
        args.t0 = time.monotonic()
    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    catalog = load_catalog()
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    if args.workload == "serve-mixed":
        result = run_serve(args, catalog, spec)
    else:
        result = run_in_process(args, catalog, spec)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
