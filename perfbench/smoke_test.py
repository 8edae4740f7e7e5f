#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py .bench_build/perfbench/sb_perfbench

Runs every workload untraced and traced at minimum input size and checks
that each run passes its correctness gates, prints exactly the metrics
BENCHMARK.json names, and reports non-zero per-layer numbers exactly on the
workloads whose layers it drives. Also checks that bad arguments, and a
directory without the library sources, fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

COMMON = {"data.generate_s", "encode.fit_transform_s", "encode.transform_s",
          "parallel.support_s", "parallel.support_calls",
          "parallel.softmax_s", "parallel.softmax_calls"}
RECOMPUTE = {"parallel.recompute_weights_s", "parallel.recompute_weights_calls"}
# Per-layer metrics that must be non-zero on each workload; every other one
# must be zero. The distributed trainer builds its own trace statistics, so
# update_traces runs only in train-higgs; serving never writes traces.
NONZERO = {
    "train-higgs": COMMON | RECOMPUTE | {
        "parallel.update_traces_s", "parallel.update_traces_calls",
        "core.unsupervised_s", "core.head_s", "core.hidden_other_s",
        "core.fit_other_s"},
    "serve-closed": COMMON | {
        "serve.requests", "serve.batches", "serve.mean_batch_rows",
        "serve.stage_close_ms", "serve.stage_dispatch_ms",
        "serve.stage_compute_ms", "serve.stage_fulfill_ms",
        "serve.queue_wait_ms"},
    "dist-tcp": COMMON | RECOMPUTE | {
        "core.dist_other_s", "core.one_rank_fit_s", "comm.bytes_per_rank",
        "comm.wire_bytes_per_rank", "comm.syncs", "comm.allreduce_gbps",
        "comm.shm_allreduce_gbps", "comm.shm_fit_s"},
}
# Signed, or split in a way that depends on timing.
UNCHECKED = {"bench.trace_overhead_share", "serve.full_closes",
             "serve.adaptive_closes", "serve.deadline_closes"}


def run(command, cwd=None):
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=300, cwd=cwd, check=False)
    return done.returncode, done.stdout, done.stderr


def check_run(binary, workload, trace, errors):
    label = f"{workload} --trace {trace}"
    code, out, err = run([binary, "--workload", workload, "--seed", "7",
                          "--seconds", "0.2", "--trace", str(trace),
                          "--smoke", "1"])
    if code != 0:
        errors.append(f"{label}: exit {code}\n{err}")
        return
    result = json.loads(out.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: gates failed: {result}")
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in specs]:
        errors.append(f"{label}: metric names {list(metrics)}")
        return
    for spec in specs:
        name = spec["name"]
        value = metrics[name]["value"]
        if metrics[name]["unit"] != spec["unit"]:
            errors.append(f"{label}: {name} unit {metrics[name]['unit']}")
        if not trace:
            if not value > 0:
                errors.append(f"{label}: {name} = {value}, must be > 0")
        elif name not in UNCHECKED:
            expected = name in NONZERO[workload]
            if (value != 0) != expected:
                errors.append(f"{label}: {name} = {value}, expected "
                              f"{'non-zero' if expected else 'zero'}")


def check_failures(binary, errors):
    code, out, _ = run([binary, "--workload", "no-such-workload"])
    if code == 0 or out.strip().endswith("}"):
        errors.append("an unknown workload did not fail cleanly")
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out, _ = run([sys.executable, "perfbench/run.py", "--workload",
                            "train-higgs", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare)
        if code == 0 or out.strip():
            errors.append("run.py without the library sources did not fail")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = sys.argv[1]
    errors = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            check_run(binary, workload, trace, errors)
    check_failures(binary, errors)
    for error in errors:
        print("FAIL", error)
    print("perfbench smoke test:", "FAILED" if errors else "passed")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
