#!/usr/bin/env python3
"""Compare a fresh benchmark JSON against a committed baseline.

Usage:
  check_bench_regression.py --baseline bench/baselines/BENCH_kernels.json \
      --current build/bench/BENCH_kernels.json [--warn-pct 10] [--fail-pct 25]

Records are matched on (name, threads) and compared on `seconds`.
Kernel-style records carry a `name`; serving records carry a `scenario`
(used as the name) and no `threads` (keyed as threads=0). Pairs where
either side lacks `seconds` are skipped with a note. Slowdowns above
--warn-pct print a warning; slowdowns above --fail-pct (and any record
with bitwise_equal_to_serial == false) fail the run with exit code 1.
Records present in only one file are reported but do not fail the run,
so the baseline can trail the benchmark by one PR.

Thread-scaling gates (--min-speedup name:threads:factor, repeatable;
default matmul_fwd:4:2.5) fail the run when the current file has a
matching record whose speedup_vs_1 falls below the factor. A gate is
skipped, with a note, when the record is absent (e.g. the smoke sweep
stops at 2 threads) or when the recorded allowed_cpus — the CPUs the
process could run on, what `nproc` reports — is below the thread count:
a 1-core CI box or a `taskset -c 0` run cannot exhibit real scaling, and
oversubscribed numbers would only gate on noise (hardware_concurrency
counts every CPU of the machine and would not skip them). Records without
allowed_cpus predate it and are skipped too. Pass --min-speedup none to
disable.

With --quant, both files are quantization summaries
(BENCH_serving_quant.json: a top-level object whose per-precision
timing records live under "records", keyed on "precision"). On top of
the usual seconds comparison, the current summary is gated on hard
quality floors mirroring the bench binary's own exit gates: int8
link-prediction AUC within 0.01 of fp32, probe cosine >= 0.99, int8
never slower than fp32, and — only when the run reports AVX-VNNI
hardware (avx_vnni == true) — int8 embed throughput >= 2x fp32.

Stdlib only — runs on a bare CI python3.
"""

import argparse
import json
import sys


def load_records(path, quant=False):
    with open(path, "r", encoding="utf-8") as f:
        records = json.load(f)
    if quant:
        if not isinstance(records, dict) or "records" not in records:
            raise ValueError(f"{path}: expected a quant summary object "
                             f"with a 'records' array")
        records = records["records"]
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    out = {}
    for r in records:
        name = r.get("name", r.get("scenario", r.get("precision")))
        if name is None:
            raise ValueError(f"{path}: record with neither name, scenario, "
                             f"nor precision")
        key = (name, int(r.get("threads", 0)))
        if key in out:
            raise ValueError(f"{path}: duplicate record for {key}")
        out[key] = r
    return out


def quant_quality_failures(path):
    """Hard quality gates on a current quant summary; list of failures."""
    with open(path, "r", encoding="utf-8") as f:
        summary = json.load(f)
    failures = []
    auc_delta = float(summary.get("auc_delta", float("inf")))
    if auc_delta > 0.01:
        failures.append(f"quant: int8 AUC delta {auc_delta:.4f} exceeds "
                        f"the 0.01 accuracy tolerance")
    cosine = float(summary.get("min_probe_cosine", 0.0))
    if cosine < 0.99:
        failures.append(f"quant: min probe cosine {cosine:.5f} below 0.99")
    speedup = float(summary.get("speedup_vs_fp32", 0.0))
    if speedup < 1.0:
        failures.append(f"quant: int8 embed throughput {speedup:.2f}x fp32 "
                        f"— slower than the path it replaces")
    elif summary.get("avx_vnni"):
        if speedup < 2.0:
            failures.append(f"quant: int8 speedup {speedup:.2f}x below the "
                            f"2x floor on AVX-VNNI hardware")
        else:
            print(f"ok    quant speedup_vs_fp32 {speedup:.2f}x "
                  f"(avx_vnni, 2x floor)")
    else:
        print(f"note  quant speedup gate skipped: no AVX-VNNI on this "
              f"machine (measured {speedup:.2f}x)")
    if not failures:
        print(f"ok    quant auc_delta {auc_delta:.4f}  "
              f"min_probe_cosine {cosine:.5f}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--warn-pct", type=float, default=10.0)
    parser.add_argument("--fail-pct", type=float, default=25.0)
    parser.add_argument("--min-speedup", action="append", default=None,
                        metavar="NAME:THREADS:FACTOR",
                        help="thread-scaling gate; repeatable; 'none' "
                             "disables (default matmul_fwd:4:2.5)")
    parser.add_argument("--quant", action="store_true",
                        help="treat both files as BENCH_serving_quant.json "
                             "summaries and apply the int8 quality gates")
    args = parser.parse_args()

    speedup_gates = []
    for spec in (args.min_speedup or ["matmul_fwd:4:2.5"]):
        if spec == "none":
            speedup_gates = []
            break
        try:
            name, threads, factor = spec.split(":")
            speedup_gates.append((name, int(threads), float(factor)))
        except ValueError:
            print(f"error: bad --min-speedup spec {spec!r}", file=sys.stderr)
            return 2

    try:
        baseline = load_records(args.baseline, quant=args.quant)
        current = load_records(args.current, quant=args.quant)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    failures = []
    warnings = []
    if args.quant:
        try:
            failures.extend(quant_quality_failures(args.current))
        except (OSError, ValueError, KeyError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    for key in sorted(set(baseline) & set(current)):
        name, threads = key
        if "seconds" not in baseline[key] or "seconds" not in current[key]:
            print(f"note  {name} threads={threads}: no seconds field, skipped")
            continue
        base_s = float(baseline[key]["seconds"])
        cur_s = float(current[key]["seconds"])
        if base_s <= 0.0:
            warnings.append(f"{name} threads={threads}: "
                            f"non-positive baseline seconds {base_s}")
            continue
        delta_pct = (cur_s - base_s) / base_s * 100.0
        line = (f"{name:<16} threads={threads}  "
                f"baseline {base_s:.6f}s  current {cur_s:.6f}s  "
                f"{delta_pct:+.1f}%")
        if delta_pct > args.fail_pct:
            failures.append(line)
        elif delta_pct > args.warn_pct:
            warnings.append(line)
        else:
            print(f"ok    {line}")

    for key in sorted(set(baseline) - set(current)):
        warnings.append(f"{key[0]} threads={key[1]}: missing from current run")
    for key in sorted(set(current) - set(baseline)):
        print(f"note  {key[0]} threads={key[1]}: new record, no baseline")

    for key in sorted(current):
        if current[key].get("bitwise_equal_to_serial") is False:
            failures.append(f"{key[0]} threads={key[1]}: "
                            "parallel result not bitwise equal to serial")

    for name, threads, factor in speedup_gates:
        rec = current.get((name, threads))
        if rec is None:
            print(f"note  scaling gate {name} threads={threads}: "
                  "no such record in current run, skipped")
            continue
        cores = rec.get("allowed_cpus")
        if cores is None or int(cores) < threads:
            print(f"note  scaling gate {name} threads={threads}: "
                  f"run could use {cores} CPU(s), skipped "
                  "(cannot scale past the CPUs it may run on)")
            continue
        if "speedup_vs_1" not in rec:
            print(f"note  scaling gate {name} threads={threads}: "
                  "record has no speedup_vs_1, skipped")
            continue
        speedup = float(rec["speedup_vs_1"])
        line = (f"{name:<16} threads={threads}  "
                f"speedup_vs_1 {speedup:.2f}x  required {factor:.2f}x")
        if speedup < factor:
            failures.append(line)
        else:
            print(f"ok    {line}")

    for w in warnings:
        print(f"WARN  {w}")
    for f in failures:
        print(f"FAIL  {f}")

    if failures:
        print(f"\n{len(failures)} regression(s) above "
              f"{args.fail_pct:.0f}% (or determinism breaks)",
              file=sys.stderr)
        return 1
    print(f"\nall comparisons within {args.fail_pct:.0f}% "
          f"({len(warnings)} warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
