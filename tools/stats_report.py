#!/usr/bin/env python3
"""Render cache-flow telemetry from a BENCH_*.json stats block.

Usage:
    tools/stats_report.py BENCH.json [--policy NAME]

Reads the "stats" blocks that the bench binaries embed per result row (the
caches' own CacheObservable::Stats() counters — see docs/OBSERVABILITY.md
and bench/bench_json.h for the schema) and renders the paper's §4 flow
picture for each cache:

  * hit ratio, and how the resident population splits across the
    probation/main regions at teardown;
  * promotion rate — of the objects that left probation, the fraction with
    proven reuse that were lazily promoted into the main region (the rest
    were quick-demoted to the ghost);
  * ghost-hit rate — the fraction of misses whose id the ghost remembered,
    i.e. how often quick demotion discarded an object the workload still
    wanted;
  * contention (concurrent caches only) — eviction-lock acquisitions vs
    failed try-locks, buffered misses dropped on full rings, cross-shard
    demotions performed by helping threads, and the drain-batch size
    histogram. All zero (and omitted) for the sequential policies;
  * latency (serving benches only) — client-observed p50/p99/p999/max
    request latency in microseconds from the row's "latency_us" block
    (bench/server_qps emits it; replay benches omit it).

Rows without a stats block are listed and skipped (not every bench binary
instruments every row). --policy filters to rows whose policy label
contains NAME.

Exit status: 0 = report rendered (even if some rows were skipped),
2 = unreadable input or no stats blocks at all.
"""

import argparse
import json
import sys


def fmt_count(value):
    return f"{value:,}"


def fmt_ratio(numerator, denominator):
    if denominator == 0:
        return "    n/a"
    return f"{numerator / denominator:7.2%}"


def render_latency(latency, out):
    if not isinstance(latency, dict):
        return
    parts = []
    for field in ("p50", "p99", "p999", "max"):
        value = latency.get(field)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            parts.append(f"{field} {value:,.1f}us")
    if parts:
        out.append("  latency: " + "  ".join(parts))


def render_row(name, stats, out, latency=None):
    requests = stats.get("requests", 0)
    hits = stats.get("hits", 0)
    misses = stats.get("misses", 0)
    promotions = stats.get("promotions", 0)
    demotions = stats.get("demotions", 0)
    ghost_hits = stats.get("ghost_hits", 0)
    size = stats.get("size", 0)
    probation = stats.get("probation_size", 0)
    main = stats.get("main_size", 0)
    ghost = stats.get("ghost_size", 0)

    out.append(f"{name}")
    out.append(f"  requests {fmt_count(requests)}  "
               f"hits {fmt_count(hits)} ({fmt_ratio(hits, requests).strip()})  "
               f"misses {fmt_count(misses)}")
    out.append(f"  inserts {fmt_count(stats.get('inserts', 0))}  "
               f"evictions {fmt_count(stats.get('evictions', 0))}  "
               f"resident {fmt_count(size)}")
    if probation or main or ghost:
        out.append(f"  occupancy: probation {fmt_count(probation)}  "
                   f"main {fmt_count(main)}  ghost {fmt_count(ghost)}")
    departures = promotions + demotions
    if departures:
        out.append(
            f"  probation flow: promoted {fmt_count(promotions)} "
            f"({fmt_ratio(promotions, departures).strip()})  "
            f"quick-demoted {fmt_count(demotions)} "
            f"({fmt_ratio(demotions, departures).strip()})")
    elif promotions:
        # Policies without a probation queue still report reinsertion-style
        # promotions (CLOCK second chances, LRU move-to-front).
        out.append(f"  promotions/reinsertions: {fmt_count(promotions)}")
    if ghost_hits or ghost:
        out.append(f"  ghost: hits {fmt_count(ghost_hits)} "
                   f"({fmt_ratio(ghost_hits, misses).strip()} of misses)")
    lock_acq = stats.get("lock_acquisitions", 0)
    lock_fail = stats.get("lock_failures", 0)
    drops = stats.get("buffer_drops", 0)
    le8 = stats.get("drain_batch_le8", 0)
    le64 = stats.get("drain_batch_le64", 0)
    gt64 = stats.get("drain_batch_gt64", 0)
    if lock_acq or lock_fail or drops:
        attempts = lock_acq + lock_fail
        out.append(
            f"  contention: lock acquired {fmt_count(lock_acq)}  "
            f"try-lock failed {fmt_count(lock_fail)} "
            f"({fmt_ratio(lock_fail, attempts).strip()} of attempts)  "
            f"drops {fmt_count(drops)}")
        waits = stats.get("lock_waits", 0)
        if waits:
            out.append(
                f"  blocking waits: {fmt_count(waits)} "
                f"({fmt_ratio(waits, lock_acq).strip()} of acquisitions "
                "queued behind another holder)")
        if le8 or le64 or gt64:
            out.append(
                f"  drain batches: <=8: {fmt_count(le8)}  "
                f"<=64: {fmt_count(le64)}  >64: {fmt_count(gt64)}")
    render_latency(latency, out)
    out.append("")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Render per-queue cache flow from a BENCH_*.json file.")
    parser.add_argument("bench_json", help="BENCH_*.json written by a bench")
    parser.add_argument(
        "--policy", default="",
        help="only rows whose policy label contains this substring")
    args = parser.parse_args(argv)

    try:
        with open(args.bench_json, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {args.bench_json}: {err}", file=sys.stderr)
        return 2

    rows = doc.get("results", [])
    if args.policy:
        rows = [r for r in rows if args.policy in r.get("policy", "")]

    out = []
    skipped = []
    for row in rows:
        name = row.get("benchmark", "?")
        stats = row.get("stats")
        if not isinstance(stats, dict):
            skipped.append(name)
            continue
        render_row(name, stats, out, latency=row.get("latency_us"))

    if not out:
        print(f"error: no stats blocks in {args.bench_json}"
              + (f" matching --policy {args.policy!r}" if args.policy else ""),
              file=sys.stderr)
        return 2

    print(f"# cache flow report — {doc.get('binary', '?')} "
          f"({args.bench_json})\n")
    print("\n".join(out).rstrip())
    if skipped:
        print(f"\n({len(skipped)} row(s) without stats skipped: "
              + ", ".join(skipped[:5])
              + (", ..." if len(skipped) > 5 else "") + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
