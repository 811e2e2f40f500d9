#!/usr/bin/env python3
"""Regression gate between two bench JSON artifacts.

Usage: compare_bench.py BASELINE.json CURRENT.json

Both artifacts may carry a "configs" array whose entries describe one
benchmark point each; entries are matched on (workload, tech,
array_dim, strategy, mra, cache_size, fraction, fault_density,
spare_rows, guarded, variant) — a field an artifact does not carry is
None — and gated exactly: on every shared config, each of

  * latency_ns and energy_pj — the modeled latency and energy
    (wall-clock-free analytic/simulated values; benches report
    machine-dependent wall-clock under other names precisely so it is
    never gated here), each entry of latency_parts_ns, the same
    latency by cause, and each entry of energy_parts_pj, the energy
    by cause,
  * the program counts cim_reads, round_floor, busiest_column and
    critical_path (Table 2) and instructions, spill_writes, shifts,
    chained_operands and merged_instructions (the merge ablation), and
  * hit_rate — deterministic cache-replay hit rates,

must match the baseline within 1e-9 relative (absolute below 1), in
either direction, wherever both sides carry it. These values are
bit-reproducible: the model uses only +, *, /, log2 of a power of two
and sqrt. (p_app is not gated: it goes through erfc, whose last bits
may differ between libm builds.) Any drift means the emitted programs,
the model or the cache keying changed — regenerate the baseline in the
change that explains it. Drifted values are listed per config; the
geometric-mean latency ratio is printed for reference.

An artifact that repeats a config key among its gateable configs
fails: the repeats would collapse into one gated entry and the others
would go unchecked.

A gated field that a config key carries on one side but not on the
other fails, and the failure names those keys: an artifact that drops
configs, or drops a field from some, would otherwise pass on what it
kept. A renamed workload or a changed key schema leaves every key on
one side only, so it fails the same way.

A pair with nothing to gate — one side has no gateable configs, e.g.
a record of wall-clock timings only — fails: a gate that
compares nothing would pass forever without anyone noticing.
"""

import argparse
import json
import math
import sys


def config_key(c):
    return (
        c.get("workload"),
        c.get("tech"),
        c.get("array_dim"),
        c.get("strategy"),
        c.get("mra"),
        c.get("cache_size"),
        c.get("fraction"),
        c.get("fault_density"),
        c.get("spare_rows"),
        c.get("guarded"),
        c.get("variant"),
    )


def is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def metric_value(c, metric):
    """A config's value of `metric`; "a.b" names entry b of dict a."""
    field, _, entry = metric.partition(".")
    val = c.get(field)
    return val.get(entry) if entry and isinstance(val, dict) else val


def metric_configs(doc, metric, positive=True):
    out = {}
    for c in doc.get("configs", []):
        val = metric_value(c, metric)
        if is_number(val):
            if positive and val <= 0:
                continue
            out[config_key(c)] = float(val)
    return out


def repeated_keys(doc):
    """Config keys that more than one gateable config of `doc` carries."""
    seen, repeated = set(), set()
    for c in doc.get("configs", []):
        if not any(is_number(c.get(m)) for m in GATED_FIELDS):
            continue
        key = config_key(c)
        if key in seen:
            repeated.add(key)
        seen.add(key)
    return sorted(repeated, key=key_name)


def key_name(key):
    return "/".join(str(k) for k in key if k is not None)


def lacking(doc, other, metrics):
    """Config key -> the metrics `other` carries for it and `doc` lacks."""
    out = {}
    for metric in metrics:
        have = metric_configs(doc, metric, positive=False)
        for key in metric_configs(other, metric, positive=False):
            if key not in have:
                out.setdefault(key, []).append(metric)
    return out


TOLERANCE = 1e-9
GATED_FIELDS = ("latency_ns", "energy_pj", "hit_rate", "cim_reads",
                "round_floor", "busiest_column", "critical_path",
                "instructions", "spill_writes", "shifts",
                "chained_operands", "merged_instructions")
PARTS = ("latency_parts_ns", "energy_parts_pj")


def gated_metrics(*docs):
    """GATED_FIELDS, then one "<parts>.<cause>" per parts field of PARTS
    and cause any config of `docs` carries."""
    out = list(GATED_FIELDS)
    for field in PARTS:
        causes = {cause for doc in docs for c in doc.get("configs", [])
                  if isinstance(c.get(field), dict) for cause in c[field]}
        out += [f"{field}.{cause}" for cause in sorted(causes)]
    return out


def print_latency_geomean(base, cur):
    """Reference line: geometric-mean latency ratio over shared configs."""
    base_lat = metric_configs(base, "latency_ns")
    cur_lat = metric_configs(cur, "latency_ns")
    shared = sorted(set(base_lat) & set(cur_lat))
    if not shared:
        return
    log_sum = sum(math.log(cur_lat[k] / base_lat[k]) for k in shared)
    geomean = math.exp(log_sum / len(shared))
    print(f"geomean latency ratio over {len(shared)} shared configs: "
          f"{geomean:.4f}")


def gate_exact(base, cur, metric):
    """Exact gate on one deterministic metric; True when it drifted."""
    base_val = metric_configs(base, metric, positive=False)
    cur_val = metric_configs(cur, metric, positive=False)
    shared = sorted(set(base_val) & set(cur_val))
    if not shared:
        return False

    failed = False
    for key in shared:
        b, c = base_val[key], cur_val[key]
        if abs(c - b) > TOLERANCE * max(1.0, abs(b)):
            print(f"{key_name(key)}: {metric} {b:.10g} -> {c:.10g}"
                  f"  <-- DRIFT")
            failed = True
    if failed:
        print(f"compare_bench: FAIL — deterministic {metric} drifted from "
              f"the baseline")
    else:
        print(f"{metric} exact over {len(shared)} shared configs")
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
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

    for path, doc in ((args.baseline, base), (args.current, cur)):
        repeated = repeated_keys(doc)
        if repeated:
            names = ", ".join(key_name(k) for k in repeated)
            print(f"compare_bench: FAIL — {path} repeats the config key "
                  f"{names}; each gated config needs a key of its own")
            return 1

    metrics = gated_metrics(base, cur)
    failed = False
    for metric in metrics:
        failed |= gate_exact(base, cur, metric)
    print_latency_geomean(base, cur)

    if not all(any(metric_configs(doc, m, positive=False) for m in metrics)
               for doc in (base, cur)):
        print(f"compare_bench: FAIL — no shared gateable configs between "
              f"{args.baseline} and {args.current}; the gate compared "
              f"nothing")
        return 1
    for path, doc, other in ((args.current, cur, base),
                             (args.baseline, base, cur)):
        missing = lacking(doc, other, metrics)
        if missing:
            names = ", ".join(key_name(k) for k in sorted(missing, key=key_name))
            fields = sorted({m for ms in missing.values() for m in ms})
            print(f"compare_bench: FAIL — {path} lacks gated fields the "
                  f"other side carries ({', '.join(fields)}) on "
                  f"{len(missing)} config(s): {names}")
            failed = True
    if failed:
        return 1
    print("compare_bench: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
