#!/usr/bin/env python3
"""Client helpers for the sherlockc serve protocol (src/serve/protocol.h).

Importable pieces (used by serve_chaos.py and ad-hoc tooling):

  * SocketSession — line/byte-framed reader over a unix stream socket,
    with a hard per-read timeout so a wedged daemon fails loudly
    instead of hanging the caller.
  * ByteStream — the same reader over bytes already in hand, such as
    the captured stdout of a `sherlockc --serve` stdin session.
  * frame_request / parse_record — build REQ blocks, parse the framed
    RESP / BUSY / STATS-RESP / TRACE-RESP / PROTOCOL-ERROR records.
  * request_with_backoff — send one request and honor load shedding:
    on `BUSY <id> retry_after_ms=<N>` the client sleeps
    N * 2^attempt plus deterministic jitter (seeded, so soak runs are
    reproducible) and retries, up to --max-attempts.

As a CLI it sends one kernel to a daemon on a unix socket:

  serve_client.py --socket /tmp/sherlock.sock kernel.sk \
      [--lang kernel] [--deadline-ms 500] [--target 256]

and prints the response payload (exit 0), the structured error code
(exit 1), or reports exhausted BUSY retries (exit 2).
"""

import argparse
import random
import socket
import sys
import time


class ProtocolError(Exception):
    """The daemon answered something the protocol does not allow."""


class SessionTimeout(Exception):
    """No bytes from the daemon within the per-read timeout."""


class FramedReader:
    """Line/byte framing over `buf`, which _fill() extends."""

    buf = b""

    def _fill(self):
        raise EOFError("stream ends inside a record")

    def read_line(self):
        while b"\n" not in self.buf:
            self._fill()
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def read_bytes(self, n):
        while len(self.buf) < n:
            self._fill()
        payload, self.buf = self.buf[:n], self.buf[n:]
        return payload


class SocketSession(FramedReader):
    """Buffered line/byte framing over a unix stream socket."""

    def __init__(self, path, timeout=30.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)

    def send(self, text):
        self.sock.sendall(text.encode())

    def _fill(self):
        try:
            chunk = self.sock.recv(65536)
        except socket.timeout:
            raise SessionTimeout("daemon silent past the read timeout")
        if not chunk:
            raise EOFError("daemon closed the connection")
        self.buf += chunk

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class ByteStream(FramedReader):
    """The same framing over bytes already in hand."""

    def __init__(self, raw):
        self.buf = raw

    def at_end(self):
        return not self.buf


def frame_request(rid, body, options=None):
    """One REQ block: header with options, body lines, END."""
    header = f"REQ {rid}"
    for key, value in (options or {}).items():
        header += f" {key}={value}"
    return header + "\n" + body.rstrip("\n") + "\nEND\n"


def parse_record(session):
    """Reads one framed record; returns a dict with kind/id/fields/payload."""
    line = session.read_line()
    tokens = line.split()
    if not tokens:
        return {"kind": "blank", "line": line}
    kind = tokens[0]
    fields = dict(t.split("=", 1) for t in tokens if "=" in t)
    record = {"kind": kind, "line": line, "fields": fields,
              "payload": b""}
    if kind == "RESP":
        record["id"], record["status"] = tokens[1], tokens[2]
        record["payload"] = session.read_bytes(int(fields["bytes"]))
    elif kind in ("STATS-RESP", "TRACE-RESP"):
        record["payload"] = session.read_bytes(int(fields["bytes"]))
    elif kind == "BUSY":
        record["id"] = tokens[1]
    elif kind != "PROTOCOL-ERROR":
        raise ProtocolError(f"unexpected line from daemon: {line!r}")
    return record


def request_with_backoff(session, rid, body, options=None,
                         max_attempts=8, rng=None, sleep=time.sleep):
    """Sends a request, retrying on BUSY with exponential backoff.

    Backoff: retry_after_ms * 2^attempt plus up to 25% deterministic
    jitter from `rng` (a seeded random.Random keeps soak runs
    reproducible). Returns the RESP record for `rid`; raises
    ProtocolError when attempts are exhausted.
    """
    rng = rng or random.Random(0)
    attempt = 0
    while True:
        session.send(frame_request(f"{rid}", body, options) + "FLUSH\n")
        while True:
            record = parse_record(session)
            if record["kind"] == "RESP" and record["id"] == rid:
                record["attempts"] = attempt + 1
                return record
            if record["kind"] == "BUSY" and record["id"] == rid:
                break
            if record["kind"] in ("blank", "PROTOCOL-ERROR"):
                continue
            raise ProtocolError(
                f"unexpected record while waiting for {rid}: "
                f"{record['line']!r}")
        attempt += 1
        if attempt >= max_attempts:
            raise ProtocolError(
                f"request {rid} still shed after {attempt} attempts")
        base_ms = float(record["fields"].get("retry_after_ms", 25))
        backoff_ms = base_ms * (2 ** (attempt - 1))
        backoff_ms *= 1.0 + 0.25 * rng.random()
        sleep(backoff_ms / 1000.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--socket", required=True,
                    help="unix socket of a running sherlockc --serve")
    ap.add_argument("kernel", help="kernel source file to compile")
    ap.add_argument("--lang", default="kernel")
    ap.add_argument("--target", type=int, default=0,
                    help="override the daemon's default target dim")
    ap.add_argument("--deadline-ms", type=float, default=0,
                    help="per-request deadline (0 = daemon default)")
    ap.add_argument("--max-attempts", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0,
                    help="jitter seed (reproducible backoff)")
    ap.add_argument("--timeout", type=float, default=30,
                    help="per-read socket timeout in seconds")
    args = ap.parse_args()

    options = {"lang": args.lang}
    if args.target:
        options["target"] = args.target
    if args.deadline_ms:
        options["deadline-ms"] = args.deadline_ms
    body = open(args.kernel).read()

    session = SocketSession(args.socket, timeout=args.timeout)
    try:
        record = request_with_backoff(
            session, "cli", body, options,
            max_attempts=args.max_attempts,
            rng=random.Random(args.seed))
    except ProtocolError as e:
        print(f"serve_client: {e}", file=sys.stderr)
        return 2
    finally:
        try:
            session.send("QUIT\n")
        except OSError:
            pass
        session.close()
    sys.stdout.write(record["payload"].decode(errors="replace"))
    if record["status"] != "ok":
        code = record["fields"].get("code", "unknown")
        print(f"serve_client: request failed with code={code}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
