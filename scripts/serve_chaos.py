#!/usr/bin/env python3
"""Deterministic chaos soak for the resilient serve daemon.

Drives `sherlockc --serve --socket` through six adversarial phases and
holds it to one contract: **every** response is either byte-identical
to the clean-run reference payload or a structured `ERR`/`BUSY`
record — never a crash, a hang, or a torn response.

  1. clean      — one stdin session, three passes over every kernel:
                  cold, identical source (a direct-memo hit), and
                  source plus a comment (a canonical-level hit), each
                  byte-identical to the cold payload; then STATS and
                  TRACE. The cold payloads are the byte-identity
                  oracle for every later phase.
  2. faults     — daemon under seeded `parse:<p>,compile:<p>`
                  failpoints; repeated requests must each be a
                  byte-identical success or `code=injected_fault`.
  3. malformed  — garbage directives, truncated requests, oversized
                  bodies against a tiny --max-request-bytes; the
                  session must answer structured errors and keep
                  serving.
  4. overload   — --max-inflight 1 --max-queue 1 plus a compile delay
                  failpoint; a burst must shed with BUSY (latency is
                  measured) and a backoff client
                  (serve_client.request_with_backoff) must eventually
                  succeed.
  5. kill/rehydrate — N cycles of: compile, SIGKILL mid-flight,
                  restart with --cache-persist; each restarted daemon
                  must serve warm canonical hits (hit rate > 0) with
                  byte-identical payloads.
  6. drain      — SIGTERM with requests outstanding; the daemon must
                  exit within the drain deadline (plus grace) and
                  still flush its --metrics-out file.

Everything is seeded (--seed) and wall-clock-bounded (--timeout per
phase via socket read timeouts and a global watchdog), so a wedged
daemon fails the run loudly. Exit 0 only if every phase holds.

Usage: serve_chaos.py [--sherlockc build/tools/sherlockc]
                      [--kernels examples/kernels] [--target 128]
                      [--seed 7] [--cycles 3] [--rounds 6]
                      [--timeout 60] [--report chaos_report.json]
                      [--trace-out TRACE.json] [--metrics-out METRICS.json]

--trace-out and --metrics-out apply to the clean daemon only, which
writes both files on exit (for check_trace.py or artifact upload);
without --trace-out its TRACE response must still parse, but carries
no spans.
"""

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from serve_client import (ByteStream, ProtocolError, SessionTimeout,
                          SocketSession, frame_request, parse_record,
                          request_with_backoff)  # noqa: E402

import random  # noqa: E402


class ChaosFailure(Exception):
    pass


class Daemon:
    """One sherlockc --serve --socket process, watchdogged."""

    def __init__(self, sherlockc, sock_path, extra_args, timeout):
        self.proc = subprocess.Popen(
            [sherlockc, "--serve", "--socket", sock_path] + extra_args,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.sock_path = sock_path
        self.timeout = timeout
        deadline = time.monotonic() + timeout
        while not os.path.exists(sock_path):
            if self.proc.poll() is not None:
                raise ChaosFailure(
                    f"daemon died during startup: "
                    f"{self.proc.stderr.read().decode(errors='replace')}")
            if time.monotonic() > deadline:
                raise ChaosFailure("daemon never bound its socket")
            time.sleep(0.01)

    def connect(self):
        return SocketSession(self.sock_path, timeout=self.timeout)

    def alive(self):
        return self.proc.poll() is None

    def kill(self):
        self.proc.kill()
        self.proc.wait(timeout=self.timeout)

    def terminate(self, grace):
        """SIGTERM, return seconds to exit; raises if it overstays."""
        t0 = time.monotonic()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=self.timeout)
            raise ChaosFailure(
                f"daemon ignored SIGTERM for {grace}s (drain hung)")
        return time.monotonic() - t0

    def shutdown(self):
        """Clean SHUTDOWN via the protocol; asserts exit code 0."""
        try:
            session = self.connect()
            session.send("SHUTDOWN\n")
            session.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise ChaosFailure("daemon did not exit on SHUTDOWN")
        if self.proc.returncode != 0:
            raise ChaosFailure(
                f"daemon exited {self.proc.returncode}: "
                f"{self.proc.stderr.read().decode(errors='replace')}")


def load_kernels(directory):
    paths = sorted(glob.glob(os.path.join(directory, "*.sk")))
    if not paths:
        raise ChaosFailure(f"no kernels under {directory}")
    return [(os.path.splitext(os.path.basename(p))[0], open(p).read())
            for p in paths]


def request_options(target):
    return {"lang": "kernel", "target": target}


def phase_clean(args, kernels):
    """One clean stdin session in three passes over every kernel.

    Pass 1 is cold (hit=0). Pass 2 sends the identical source and must
    be a direct-memo hit (hit=1 direct=1); pass 3 appends a comment,
    which misses the direct memo but hits the canonical level (hit=1
    direct=0). Both payloads must be byte-identical to pass 1's, whose
    payloads become the byte-identity oracle of every later phase. STATS
    must count every request and a nonzero hit rate; TRACE must be
    Chrome trace JSON, carrying the request lifecycle spans when
    --trace-out turned the tracer on.
    """
    script = ""
    for rep in (1, 2, 3):
        for name, source in kernels:
            if rep == 3:
                # A different direct-memo key, the same canonical form.
                source = source.rstrip("\n") + "\n// canonical-hit probe"
            script += frame_request(f"pass{rep}-{name}", source,
                                    request_options(args.target))
        script += "FLUSH\n"
    script += "STATS\nTRACE\nQUIT\n"
    cmd = [args.sherlockc, "--serve"]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    if args.metrics_out:
        cmd += ["--metrics-out", args.metrics_out]
    proc = subprocess.run(cmd, input=script.encode(), capture_output=True,
                          timeout=args.timeout)
    if proc.returncode != 0:
        raise ChaosFailure(
            f"clean run exited {proc.returncode}: "
            f"{proc.stderr.decode(errors='replace')}")

    responses, docs = {}, {}
    stream = ByteStream(proc.stdout)
    while not stream.at_end():
        record = parse_record(stream)
        if record["kind"] == "RESP":
            if record["status"] != "ok":
                raise ChaosFailure(
                    f"clean: {record['id']} failed: "
                    f"{record['payload'].decode(errors='replace')[:200]}")
            responses[record["id"]] = record
        elif record["kind"] in ("STATS-RESP", "TRACE-RESP"):
            try:
                docs[record["kind"]] = json.loads(record["payload"])
            except ValueError as e:
                raise ChaosFailure(f"clean: {record['kind']} is not JSON: "
                                   f"{e}")
        else:
            raise ChaosFailure(f"clean: unexpected line {record['line']!r}")

    want = {1: {"hit": "0"}, 2: {"hit": "1", "direct": "1"},
            3: {"hit": "1", "direct": "0"}}
    reference = {}
    for name, _ in kernels:
        passes = {rep: responses.get(f"pass{rep}-{name}") for rep in want}
        if None in passes.values():
            raise ChaosFailure(f"clean: missing a response for {name}")
        for rep, fields in want.items():
            got = {k: passes[rep]["fields"].get(k) for k in fields}
            if got != fields:
                raise ChaosFailure(
                    f"clean: pass {rep} of {name} read {got}, "
                    f"expected {fields}")
            if passes[rep]["payload"] != passes[1]["payload"]:
                raise ChaosFailure(
                    f"clean: pass {rep} payload of {name} differs from "
                    f"the cold compile")
        reference[name] = passes[1]["payload"]

    stats, trace = docs.get("STATS-RESP"), docs.get("TRACE-RESP")
    if stats is None or trace is None:
        raise ChaosFailure("clean: no STATS or no TRACE response")
    counters = stats.get("counters", {})
    gauges = stats.get("gauges", {})
    if stats.get("schema_version") != 1:
        raise ChaosFailure(f"clean: metrics schema_version "
                           f"{stats.get('schema_version')!r}")
    if counters.get("serve.requests") != 3 * len(kernels):
        raise ChaosFailure(f"clean: serve.requests = "
                           f"{counters.get('serve.requests')}, expected "
                           f"{3 * len(kernels)}")
    if not (counters.get("serve.direct_hits", 0) > 0 and
            gauges.get("serve.hit_rate", 0) > 0):
        raise ChaosFailure(f"clean: no direct hits or a zero hit rate: "
                           f"{counters} {gauges}")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ChaosFailure("clean: TRACE payload has no traceEvents")
    if args.trace_out:
        spans = {e.get("name") for e in events if e.get("ph") == "B"}
        missing = [span for span in ("request", "parse", "canonicalize",
                                     "lookup", "compile")
                   if span not in spans]
        if missing:
            raise ChaosFailure(f"clean: trace lacks the spans {missing}")
    return reference, {"kernels": len(kernels),
                       "hit_rate": gauges["serve.hit_rate"],
                       "direct_hits": counters["serve.direct_hits"],
                       "trace_events": len(events)}


def check_response(record, name, reference, allowed_codes, stats):
    """The chaos contract for one response."""
    if record["status"] == "ok":
        if record["payload"] != reference[name]:
            raise ChaosFailure(
                f"{name}: ok payload differs from reference "
                f"({len(record['payload'])} vs {len(reference[name])} "
                f"bytes)")
        stats["ok"] += 1
    else:
        code = record["fields"].get("code", "")
        if code not in allowed_codes:
            raise ChaosFailure(
                f"{name}: unexpected error code {code!r} "
                f"(allowed: {sorted(allowed_codes)})")
        stats["errors"] += 1
        stats.setdefault("codes", {}).setdefault(code, 0)
        stats["codes"][code] += 1


def phase_faults(args, kernels, reference, workdir):
    """Seeded parse/compile fault injection."""
    sock = os.path.join(workdir, "faults.sock")
    spec = f"parse:{args.fault_p},compile:{args.fault_p}"
    # Cache disabled: with it on, every round after the first is a
    # direct-memo hit that never reaches the parse/compile failpoints,
    # and the injection count would depend on one round's luck.
    daemon = Daemon(args.sherlockc, sock,
                    ["--failpoints", spec,
                     "--failpoint-seed", str(args.seed),
                     "--cache-size", "0",
                     "--target", str(args.target)], args.timeout)
    stats = {"ok": 0, "errors": 0}
    try:
        session = daemon.connect()
        for round_no in range(args.rounds):
            for name, source in kernels:
                rid = f"r{round_no}-{name}"
                session.send(
                    frame_request(rid, source,
                                  request_options(args.target)) +
                    "FLUSH\n")
                record = parse_record(session)
                if record["kind"] != "RESP" or record["id"] != rid:
                    raise ChaosFailure(
                        f"faults: expected RESP {rid}, got "
                        f"{record['line']!r}")
                check_response(record, name, reference,
                               {"injected_fault"}, stats)
        session.send("QUIT\n")
        session.close()
    finally:
        if daemon.alive():
            daemon.shutdown()
        elif daemon.proc.returncode != 0:
            raise ChaosFailure(
                f"faults: daemon crashed "
                f"(exit {daemon.proc.returncode})")
    if stats["errors"] == 0:
        raise ChaosFailure(
            f"faults: probability {args.fault_p} over "
            f"{args.rounds * len(kernels)} requests injected nothing — "
            f"failpoints inactive?")
    if stats["ok"] == 0:
        raise ChaosFailure("faults: nothing succeeded either")
    return stats


def phase_malformed(args, kernels, reference, workdir):
    """Garbage directives, truncation, oversized bodies."""
    sock = os.path.join(workdir, "malformed.sock")
    daemon = Daemon(args.sherlockc, sock,
                    ["--max-request-bytes", "4096",
                     "--target", str(args.target)], args.timeout)
    name, source = kernels[0]
    stats = {"ok": 0, "errors": 0, "protocol_errors": 0}
    try:
        # Connection 1: a client that speaks garbage then vanishes
        # mid-request (no END).
        session = daemon.connect()
        session.send("BOGUS NONSENSE\nREQ dead\ninput a\n")
        session.close()

        # Connection 2: structured abuse on one session.
        session = daemon.connect()
        big_comment = "// " + "x" * 8192
        script = (
            "NOT-A-DIRECTIVE\n"
            + frame_request("huge", source + "\n" + big_comment,
                            request_options(args.target))
            + frame_request("badopt", source, {"mystery": 1})
            + frame_request("fine", source, request_options(args.target))
            + "FLUSH\nQUIT\n")
        session.send(script)
        want = {"huge": {"request_too_large"},
                "badopt": {"bad_option"}, "fine": set()}
        seen = {}
        while len(seen) < 3:
            record = parse_record(session)
            if record["kind"] == "PROTOCOL-ERROR":
                stats["protocol_errors"] += 1
                continue
            if record["kind"] != "RESP":
                continue
            rid = record["id"]
            seen[rid] = record
            check_response(record, name, reference, want[rid], stats)
        if seen["fine"]["status"] != "ok":
            raise ChaosFailure("malformed: the well-formed request "
                               "was rejected")
        if stats["protocol_errors"] == 0:
            raise ChaosFailure("malformed: garbage directive was not "
                               "reported")
        session.close()
    finally:
        daemon.shutdown()
    return stats


def phase_overload(args, kernels, reference, workdir):
    """Saturation sheds BUSY fast; a backoff client still lands."""
    sock = os.path.join(workdir, "overload.sock")
    daemon = Daemon(args.sherlockc, sock,
                    ["--max-inflight", "1", "--max-queue", "1",
                     "--retry-after-ms", "10",
                     "--failpoints", "compile:delay150ms",
                     "--failpoint-seed", str(args.seed),
                     "--cache-size", "0",  # force every compile slow
                     "--target", str(args.target)], args.timeout)
    name, source = kernels[0]
    stats = {"busy": 0, "ok": 0, "busy_latency_ms": None}
    try:
        session = daemon.connect()
        # Saturate: 1 in flight + 1 queued; the burst beyond must shed.
        burst = ""
        for i in range(6):
            burst += frame_request(f"b{i}", source,
                                   request_options(args.target))
        t0 = time.monotonic()
        session.send(burst + "FLUSH\n")
        first_busy_at = None
        resolved = 0
        while resolved < 6:
            record = parse_record(session)
            if record["kind"] == "BUSY":
                stats["busy"] += 1
                if first_busy_at is None:
                    first_busy_at = time.monotonic() - t0
                resolved += 1
            elif record["kind"] == "RESP":
                check_response(record, name, reference, set(), stats)
                resolved += 1
        if stats["busy"] < 4:
            raise ChaosFailure(
                f"overload: only {stats['busy']} BUSY out of a 6-burst "
                f"against inflight=1 queue=1")
        stats["busy_latency_ms"] = round(first_busy_at * 1000, 2)
        # The shed signal must not wait for the slow compile to drain
        # (150 ms per compile; well under one compile's latency).
        if first_busy_at > 0.140:
            raise ChaosFailure(
                f"overload: first BUSY took {first_busy_at * 1000:.0f} "
                f"ms — shedding waited on the batch")
        # A polite client retries its way in.
        record = request_with_backoff(
            session, "retry", source, request_options(args.target),
            max_attempts=10, rng=random.Random(args.seed))
        check_response(record, name, reference, set(), stats)
        stats["retry_attempts"] = record["attempts"]
        session.send("QUIT\n")
        session.close()
    finally:
        daemon.shutdown()
    return stats


def phase_kill_rehydrate(args, kernels, reference, workdir):
    """SIGKILL cycles with --cache-persist: warm hits after restart."""
    sock = os.path.join(workdir, "persist.sock")
    snapshot = os.path.join(workdir, "cache.snapshot")
    stats = {"cycles": 0, "warm_hits": 0, "ok": 0, "errors": 0}
    for cycle in range(args.cycles):
        daemon = Daemon(args.sherlockc, sock,
                        ["--cache-persist", snapshot,
                         "--target", str(args.target)], args.timeout)
        session = daemon.connect()
        hits = 0
        for name, source in kernels:
            rid = f"c{cycle}-{name}"
            session.send(
                frame_request(rid, source, request_options(args.target))
                + "FLUSH\n")
            record = parse_record(session)
            if record["kind"] != "RESP" or record["id"] != rid:
                raise ChaosFailure(
                    f"persist: expected RESP {rid}, got "
                    f"{record['line']!r}")
            check_response(record, name, reference, set(), stats)
            if record["fields"].get("hit") == "1":
                hits += 1
        session.close()
        # Snapshot was persisted at FLUSH; SIGKILL leaves no chance to
        # write anything — rehydration rides the crash-safe file alone.
        daemon.kill()
        stats["cycles"] += 1
        if cycle > 0:
            if hits == 0:
                raise ChaosFailure(
                    f"persist: cycle {cycle} served zero warm hits "
                    f"after restart")
            stats["warm_hits"] += hits
        if os.path.exists(sock):
            os.unlink(sock)  # SIGKILL never cleans up the socket file
    return stats


def phase_drain(args, kernels, workdir):
    """SIGTERM drains within the deadline and still flushes metrics."""
    sock = os.path.join(workdir, "drain.sock")
    metrics = os.path.join(workdir, "drain_metrics.json")
    drain_ms = 2000
    daemon = Daemon(args.sherlockc, sock,
                    ["--metrics-out", metrics,
                     "--failpoints", "compile:delay200ms",
                     "--drain-deadline-ms", str(drain_ms),
                     "--target", str(args.target)], args.timeout)
    name, source = kernels[0]
    session = daemon.connect()
    # Leave work in flight, never flush — the drain must handle it.
    session.send(frame_request("inflight", source,
                               request_options(args.target)))
    time.sleep(0.05)  # let the request reach the executor
    took = daemon.terminate(grace=(drain_ms / 1000.0) + args.timeout)
    session.close()
    if not os.path.exists(metrics):
        raise ChaosFailure("drain: --metrics-out was not flushed on "
                           "SIGTERM")
    doc = json.loads(open(metrics).read())
    if doc.get("schema_version") != 1:
        raise ChaosFailure("drain: flushed metrics are malformed")
    return {"drain_seconds": round(took, 3),
            "requests": doc.get("counters", {}).get("serve.requests")}


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sherlockc", default="build/tools/sherlockc")
    ap.add_argument("--kernels", default="examples/kernels")
    ap.add_argument("--target", type=int, default=128)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--fault-p", type=float, default=0.3,
                    help="per-point injection probability in phase 2")
    ap.add_argument("--rounds", type=int, default=6,
                    help="request rounds under fault injection")
    ap.add_argument("--cycles", type=int, default=3,
                    help="SIGKILL/restart cycles in phase 5")
    ap.add_argument("--timeout", type=float, default=60,
                    help="watchdog bound per daemon interaction (s)")
    ap.add_argument("--report", default="",
                    help="write the per-phase results JSON here")
    ap.add_argument("--trace-out", default="",
                    help="trace the clean daemon, which writes this file")
    ap.add_argument("--metrics-out", default="",
                    help="the clean daemon writes its metrics JSON here")
    args = ap.parse_args()

    kernels = load_kernels(args.kernels)
    report = {"seed": args.seed, "kernels": [n for n, _ in kernels]}
    t0 = time.monotonic()
    try:
        with tempfile.TemporaryDirectory(prefix="sherlock_chaos_") as wd:
            reference, report["clean"] = phase_clean(args, kernels)
            report["faults"] = phase_faults(args, kernels, reference, wd)
            report["malformed"] = phase_malformed(args, kernels,
                                                 reference, wd)
            report["overload"] = phase_overload(args, kernels,
                                                reference, wd)
            report["kill_rehydrate"] = phase_kill_rehydrate(
                args, kernels, reference, wd)
            report["drain"] = phase_drain(args, kernels, wd)
    except (ChaosFailure, ProtocolError, SessionTimeout, EOFError,
            subprocess.TimeoutExpired) as e:
        print(f"serve_chaos: FAIL — {e}")
        if args.report:
            report["failure"] = str(e)
            open(args.report, "w").write(json.dumps(report, indent=2))
        return 1
    report["elapsed_seconds"] = round(time.monotonic() - t0, 2)
    if args.report:
        open(args.report, "w").write(json.dumps(report, indent=2))
    f, o, k = report["faults"], report["overload"], report["kill_rehydrate"]
    c = report["clean"]
    print(f"serve_chaos: OK — seed {args.seed}: "
          f"clean {c['kernels']} kernels x3 passes (hit rate "
          f"{c['hit_rate']:.3f}, {c['trace_events']} trace events), "
          f"faults {f['ok']} ok / {f['errors']} injected, "
          f"overload {o['busy']} BUSY (first in "
          f"{o['busy_latency_ms']} ms, retry landed in "
          f"{o.get('retry_attempts')} attempts), "
          f"{k['cycles']} kill cycles with {k['warm_hits']} warm hits, "
          f"drain in {report['drain']['drain_seconds']}s; every "
          f"response byte-identical or structured "
          f"({report['elapsed_seconds']}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
