"""Rebuild ``catalog.json``: the keys the workloads draw from, with expected outputs.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_catalog.py

For every compile key it records the predicted size (``registry.estimate``,
taken before compiling), the wire roles, the lowered row count and the
gate-for-gate digest of the lowered table (:func:`common.table_digest`).
For every estimate key it pins the estimator's answer; keys small enough to
lower are also cross-checked against the materialised table's row count.

Rerun it only when the compiler's output is *meant* to change (a new
``CODE_VERSION``); a benchmark run whose digests disagree with the
catalogue reports the mismatching requests as wrong outputs.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from common import CATALOG_PATH, MAX_ROWS, MIN_ROWS, ensure_src_on_path, key_name, table_digest

ensure_src_on_path()

import workloads  # noqa: E402
from repro.exec.keys import CODE_VERSION  # noqa: E402
from repro.exec.service import compile_lowered  # noqa: E402
from repro.synth import registry  # noqa: E402


def _predicted(strategy: str, dim: int, k: int):
    """(resolved strategy, predicted rows) or ``None`` if unsupported."""
    if strategy == "auto":
        resolved = registry.auto_select(dim, k).strategy.name
    else:
        resolved = strategy
        if not registry.get(strategy).supports(dim, k):
            return None
    try:
        resources = registry.estimate(resolved, dim, k)
    except Exception:  # noqa: BLE001 - an unsupported corner is simply not drawn
        return None
    # Circuits with dense payloads stay at the macro level: count macro ops.
    return resolved, int(resources.g_gates or resources.macro_ops)


def pool_keys():
    """Up to KEYS_PER_BUCKET evenly spaced ks per (strategy, d, size bucket)."""
    keys = []
    taken = set()  # resolved keys already drawn: ``auto`` must not alias them
    for strategy in workloads.COMPILE_STRATEGIES:
        for dim in workloads.DIMS:
            by_bucket = {}
            for k in range(1, workloads.MAX_POOL_K + 1):
                found = _predicted(strategy, dim, k)
                if found is None:
                    continue
                resolved, rows = found
                if rows > MAX_ROWS:
                    break
                if rows >= MIN_ROWS and (resolved, dim, k) not in taken:
                    by_bucket.setdefault(workloads.bucket_of(rows), []).append(k)
            for bucket, ks in sorted(by_bucket.items()):
                picks = np.unique(
                    np.linspace(0, len(ks) - 1, min(len(ks), workloads.KEYS_PER_BUCKET))
                    .round().astype(int)
                )
                keys += [(strategy, dim, ks[i]) for i in picks]
                taken.update((strategy, dim, ks[i]) for i in picks)
    return keys


def compile_entry(strategy: str, dim: int, k: int, pool: bool):
    resolved, predicted = _predicted(strategy, dim, k) or (strategy, None)
    outcome = compile_lowered(strategy, dim, k)
    table = outcome.circuit.to_table()
    meta = outcome.meta
    entry = {
        "strategy": strategy,
        "d": dim,
        "k": k,
        "resolved": outcome.strategy,
        "predicted_rows": predicted if predicted is not None else len(table),
        "rows": len(table),
        "num_wires": int(table.num_wires),
        "controls": list(meta["controls"]),
        "target": meta["target"],
        "ancillas": dict(meta["ancillas"]),
        "digest": table_digest(table),
        "pool": pool,
    }
    if not table.is_permutation:
        entry["nonperm"] = True
    assert outcome.strategy == resolved, (strategy, dim, k, outcome.strategy, resolved)
    return entry


def main() -> int:
    start = time.perf_counter()
    entries = {}
    for strategy, dim, k in pool_keys():
        entries[key_name(strategy, dim, k)] = compile_entry(strategy, dim, k, True)
        print(f"{time.perf_counter() - start:7.1f}s pool {strategy} d={dim} k={k}", flush=True)
    for strategy, dim, k in workloads.all_extra_compile_keys():
        name = key_name(strategy, dim, k)
        if name not in entries:
            entries[name] = compile_entry(strategy, dim, k, False)
    rows_by_key = {
        key_name(e["resolved"], e["d"], e["k"]): e["rows"] for e in entries.values()
    }
    estimates = []
    for strategy, dim, k in workloads.all_estimate_keys():
        resources = registry.estimate(strategy, dim, k)
        record = {
            "strategy": strategy, "d": dim, "k": k,
            "g_gates": int(resources.g_gates),
            "two_qudit_gates": int(resources.two_qudit_gates),
            "num_wires": int(resources.num_wires),
        }
        if k <= workloads.MAX_POOL_K:
            lowered = rows_by_key.get(key_name(strategy, dim, k))
            if lowered is None:
                lowered = len(compile_lowered(strategy, dim, k).circuit.to_table())
            if resources.exact and lowered != record["g_gates"]:
                raise SystemExit(f"estimate {strategy} d={dim} k={k} != lowered rows")
            record["lowered_rows"] = lowered
        estimates.append(record)
    catalog = {
        "code_version": CODE_VERSION,
        "compile": sorted(entries.values(), key=lambda e: (e["strategy"], e["d"], e["k"])),
        "estimate": estimates,
    }
    CATALOG_PATH.write_text(json.dumps(catalog, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} compile keys, {len(estimates)} estimates to {CATALOG_PATH.name} "
          f"in {time.perf_counter() - start:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
