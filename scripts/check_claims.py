#!/usr/bin/env python3
"""Checks the ranges EXPERIMENTS.md quotes against the bench ledger.

Usage: check_claims.py [--experiments EXPERIMENTS.md]
                       [--table2 BENCH_table2.json] [--fig7 BENCH_fig7.json]

Recomputes, from the checked-in artifacts (compare_bench.py holds them
equal to fresh bench runs):

  * Table 2's opt-vs-naive latency range: naive latency over opt latency
    for each of the 24 (workload, tech, array_dim, mra) pairs;
  * Table 2's energy ratio range: naive energy over opt energy, the same
    pairs;
  * Fig. 7's EDP-gain range (CPU EDP over CIM EDP) and its span in
    orders of magnitude;
  * STT-MRAM's lead over ReRAM in Fig. 7: the STT-MRAM gain over the
    ReRAM gain for each (workload, array_dim).

Each range is quoted on one line of EXPERIMENTS.md: the Table 2 and
Fig. 7 checklist rows and known deviation 2. A quoted value passes when
the computed one rounds to it at its printed precision: the digits after
the point, or for an integer, the digits before its trailing zeros
(22,600 is 22,551 to the hundred). The check fails when a line is
missing, quoted more than once, or quotes another value. Exits 0 when
every quote matches, 1 otherwise.
"""

import argparse
import json
import math
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUM = r"([\d.,]+)"
DASH = r"\s*[–-]\s*"


def load_configs(path):
    with open(path) as f:
        return json.load(f)["configs"]


def table2_ratios(configs):
    """Naive over opt latency and energy per Table 2 pair."""
    by = {}
    for c in configs:
        pair = (c["workload"], c["tech"], c["array_dim"], c["mra"])
        by.setdefault(pair, {})[c["strategy"]] = c
    latency, energy = [], []
    for pair, sides in sorted(by.items()):
        if set(sides) != {"naive", "opt"}:
            raise SystemExit(f"check_claims: Table 2 pair {pair} lacks a "
                             f"naive or an opt config")
        naive, opt = sides["naive"], sides["opt"]
        latency.append(naive["latency_ns"] / opt["latency_ns"])
        energy.append(naive["energy_pj"] / opt["energy_pj"])
    return latency, energy


def fig7_ranges(configs):
    """EDP gains, and the STT-MRAM gain over the ReRAM gain per point."""
    gains = [c["edp_gain_vs_cpu"] for c in configs]
    by = {(c["workload"], c["array_dim"], c["tech"]): c["edp_gain_vs_cpu"]
          for c in configs}
    leads = [by[(w, d, "STT-MRAM")] / by[(w, d, "ReRAM")]
             for (w, d, tech) in sorted(by) if tech == "ReRAM"]
    return gains, leads


def matches(printed, value):
    """True when `value` rounds to `printed` at its printed precision."""
    text = printed.replace(",", "").rstrip(".")
    if "." in text:
        decimals = len(text.split(".")[1])
        return round(value, decimals) == round(float(text), decimals)
    digits = -(len(text) - len(text.rstrip("0"))) if text != "0" else 0
    return round(value, digits) == int(text)


def quoted(lines, pattern, label):
    """The captured numbers of the one line matching `pattern`."""
    hits = [(i, m) for i, line in enumerate(lines, 1)
            if (m := re.search(pattern, line))]
    if len(hits) != 1:
        print(f"FAIL {label}: {len(hits)} lines of EXPERIMENTS.md match "
              f"/{pattern}/; expected one")
        return None, None
    return hits[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--experiments", default=os.path.join(ROOT,
                                                          "EXPERIMENTS.md"))
    ap.add_argument("--table2", default=os.path.join(ROOT,
                                                     "BENCH_table2.json"))
    ap.add_argument("--fig7", default=os.path.join(ROOT, "BENCH_fig7.json"))
    args = ap.parse_args()

    latency, energy = table2_ratios(load_configs(args.table2))
    gains, leads = fig7_ranges(load_configs(args.fig7))
    orders = [math.log10(g) for g in gains]
    # label, pattern, the values its captures quote (in order)
    claims = [
        ("Table 2 opt-vs-naive latency",
         r"^\| opt beats naive on every configuration \|[^|]*\| "
         + NUM + "x" + DASH + NUM + "x",
         [min(latency), max(latency)]),
        ("Table 2 energy ratio",
         r"^\| energy gain of opt \|[^|]*\| " + NUM + DASH + NUM + "x",
         [min(energy), max(energy)]),
        ("Fig. 7 EDP gain",
         r"^- gains of " + NUM + "x" + DASH + NUM + r"x, i\.e\. ~" + NUM
         + DASH + NUM + " orders of magnitude",
         [min(gains), max(gains), min(orders), max(orders)]),
        ("Fig. 7 STT-MRAM lead over ReRAM",
         r"^- STT-MRAM " + NUM + DASH + NUM + "x ahead of ReRAM",
         [min(leads), max(leads)]),
        ("known deviation 2 (opt-vs-naive latency)",
         r"^2\. \*\*Opt/naive factors are smaller \(" + NUM + DASH + NUM
         + "x",
         [min(latency), max(latency)]),
    ]

    with open(args.experiments) as f:
        lines = f.read().split("\n")
    failed = False
    for label, pattern, values in claims:
        line, m = quoted(lines, pattern, label)
        if m is None:
            failed = True
            continue
        printed = m.groups()
        computed = ", ".join(f"{v:.6g}" for v in values)
        bad = [p for p, v in zip(printed, values) if not matches(p, v)]
        if bad:
            print(f"FAIL {label} (EXPERIMENTS.md:{line}): quotes "
                  f"{' / '.join(printed)}, the ledger gives {computed}")
            failed = True
        else:
            print(f"ok   {label} (EXPERIMENTS.md:{line}): "
                  f"{' / '.join(printed)} ({computed})")
    if failed:
        print("check_claims: FAIL — EXPERIMENTS.md disagrees with the "
              "checked-in BENCH files")
        return 1
    print("check_claims: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
