#!/usr/bin/env python3
"""Regression gate between two bench JSON artifacts.

Usage: compare_bench.py BASELINE.json CURRENT.json [--threshold 0.05]

Both artifacts may carry a "configs" array whose entries describe one
benchmark point each; entries are matched on (workload, grid, tech,
array_dim, strategy, mra, cache_size) and gated two ways:

  * latency_ns — geometric-mean regression over the shared configs must
    stay within --threshold (wall-clock-free analytic/simulated
    latencies only; benches report machine-dependent wall-clock under
    other names precisely so it is never gated here).
  * hit_rate — deterministic cache-replay hit rates must match the
    baseline exactly (within 1e-9): any drift means the cache keying or
    eviction behavior changed, which is a correctness signal, not noise.

A pair with nothing to gate — one side has no gateable configs, e.g.
BENCH_6.json's Monte-Carlo wall-clock record — fails: a gate that
compares nothing would pass forever without anyone noticing. When BOTH
sides carry gateable configs and they share none, the gate fails too —
that is a config-key mismatch (renamed workload, changed key schema).
"""

import argparse
import json
import math
import sys


def config_key(c):
    return (
        c.get("workload"),
        c.get("grid"),
        c.get("tech"),
        c.get("array_dim"),
        c.get("strategy"),
        c.get("mra"),
        c.get("cache_size"),
    )


def metric_configs(doc, metric, positive=True):
    out = {}
    for c in doc.get("configs", []):
        val = c.get(metric)
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            if positive and val <= 0:
                continue
            out[config_key(c)] = float(val)
    return out


def key_name(key):
    return "/".join(str(k) for k in key if k is not None)


def gate_latency(base, cur, threshold):
    """Geomean latency_ns regression gate. Returns (failed, gateable)."""
    base_lat = metric_configs(base, "latency_ns")
    cur_lat = metric_configs(cur, "latency_ns")
    shared = sorted(set(base_lat) & set(cur_lat))
    if not shared:
        return False, (len(base_lat), len(cur_lat))

    log_sum = 0.0
    print(f"{'config':<52} {'base us':>10} {'cur us':>10} {'ratio':>7}")
    for key in shared:
        ratio = cur_lat[key] / base_lat[key]
        log_sum += math.log(ratio)
        print(f"{key_name(key):<52} {base_lat[key] / 1e3:>10.2f} "
              f"{cur_lat[key] / 1e3:>10.2f} {ratio:>7.3f}")
    geomean = math.exp(log_sum / len(shared))
    print(f"geomean latency ratio over {len(shared)} shared configs: "
          f"{geomean:.4f} (threshold {1 + threshold:.2f})")
    if geomean > 1 + threshold:
        print("compare_bench: FAIL — latency regressed beyond threshold")
        return True, (len(base_lat), len(cur_lat))
    return False, (len(base_lat), len(cur_lat))


def gate_hit_rate(base, cur):
    """Exact-match gate on deterministic hit rates."""
    base_hr = metric_configs(base, "hit_rate", positive=False)
    cur_hr = metric_configs(cur, "hit_rate", positive=False)
    shared = sorted(set(base_hr) & set(cur_hr))
    if not shared:
        return False, (len(base_hr), len(cur_hr))

    failed = False
    print(f"{'config':<52} {'base hit':>9} {'cur hit':>9}")
    for key in shared:
        drift = abs(cur_hr[key] - base_hr[key])
        mark = "" if drift <= 1e-9 else "  <-- DRIFT"
        print(f"{key_name(key):<52} {base_hr[key]:>9.4f} "
              f"{cur_hr[key]:>9.4f}{mark}")
        if drift > 1e-9:
            failed = True
    if failed:
        print("compare_bench: FAIL — deterministic hit_rate drifted from "
              "baseline (cache keying/eviction behavior changed)")
    else:
        print(f"hit_rate exact over {len(shared)} shared configs")
    return failed, (len(base_hr), len(cur_hr))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.05,
                    help="max allowed geomean latency regression (default 5%%)")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    # Artifacts predating the field are version 1. A mismatch means the
    # two sides speak different schemas — comparing them silently could
    # gate on renamed/retyped fields, so fail loudly instead.
    base_ver = base.get("schema_version", 1)
    cur_ver = cur.get("schema_version", 1)
    if base_ver != cur_ver:
        print(f"compare_bench: FAIL — schema_version mismatch: "
              f"{args.baseline} is v{base_ver} but {args.current} is "
              f"v{cur_ver}; regenerate the baseline with the current "
              f"emitter (or vice versa) before gating")
        return 1

    lat_failed, (lat_base, lat_cur) = gate_latency(base, cur,
                                                   args.threshold)
    hr_failed, (hr_base, hr_cur) = gate_hit_rate(base, cur)
    if lat_failed or hr_failed:
        return 1

    # Loud failure on a key-schema mismatch: both sides carry gateable
    # configs for a metric, yet none matched.
    compared = False
    for metric, n_base, n_cur in (("latency_ns", lat_base, lat_cur),
                                  ("hit_rate", hr_base, hr_cur)):
        if n_base == 0 or n_cur == 0:
            continue
        base_keys = set(metric_configs(base, metric, positive=False))
        cur_keys = set(metric_configs(cur, metric, positive=False))
        if not base_keys & cur_keys:
            print(f"compare_bench: FAIL — {args.baseline} and "
                  f"{args.current} both carry {metric} configs "
                  f"({n_base} vs {n_cur}) but share NONE; the config key "
                  f"schema or workload names diverged and the gate would "
                  f"be silently disabled")
            return 1
        compared = True

    if not compared:
        print(f"compare_bench: FAIL — no shared gateable configs between "
              f"{args.baseline} and {args.current}; the gate compared "
              f"nothing")
        return 1
    print("compare_bench: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
