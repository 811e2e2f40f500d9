// Newline-delimited batch protocol for the compile service, spoken over
// stdin/stdout (`sherlockc --serve`) or a unix-domain socket
// (`--socket PATH`). Line-oriented and human-typable:
//
//   REQ <id> [key=value ...]     start a request; options override the
//                                daemon defaults for this request only:
//                                lang=dag|kernel emit=asm|stats
//                                target=<N> tech=reram|stt|pcm
//                                strategy=opt|naive mra=<k>
//                                fraction=<f> fault-density=<f>
//                                fault-seed=<N> spare-rows=<N>
//                                nand=0|1 opt=0|1
//                                deadline-ms=<ms> (0 = no deadline)
//   <kernel lines ...>           the kernel body (sherlock-dag text or
//                                kernel-language source, per lang=)
//   END                          finish the request
//   FLUSH                        wait for the pending batch and write
//                                the responses
//   STATS                        flush, then emit the unified
//                                MetricsRegistry snapshot (counters,
//                                gauges, latency histograms)
//   TRACE                        flush, then emit the recorded Chrome
//                                trace_event JSON (requires the tracer
//                                to be enabled, e.g. sherlockc --serve
//                                --trace-out; empty trace otherwise)
//   QUIT                         flush, respond, close this session
//   SHUTDOWN                     like QUIT, but also stops a socket
//                                server's accept loop
//
// Blank lines and lines starting with '#' between requests are ignored.
// Responses:
//
//   RESP <id> ok hit=<0|1> direct=<0|1> coalesced=<0|1> bytes=<N>
//        key=<cache key> compile_us=<f> total_us=<f>  (one line)
//   <exactly N payload bytes>
//   RESP <id> error code=<code> bytes=<N>
//   <exactly N message bytes>
//   BUSY <id> retry_after_ms=<N>                       (load shed)
//   STATS-RESP bytes=<N>
//   <exactly N JSON bytes>
//   TRACE-RESP bytes=<N>
//   <exactly N JSON bytes>
//
// hit=1 direct=0 marks a canonical-level hit: the source bytes were new
// (parse + canonicalize ran) but the canonical fingerprint matched a
// cached program — the signature of a renamed/reformatted variant.
//
// Payload bytes are a per-request binding header ("# inputs: a->i0 ...")
// followed by the cached program body; identical requests receive
// byte-identical payloads whether served cold or from cache (the CI
// smoke step asserts exactly this). The `hit`/`coalesced` flags and the
// timing fields are diagnostics — they vary run to run and are excluded
// from such comparisons.
//
// Resilience semantics (serve/executor.h, support/cancel.h):
//
//  * Requests dispatch to the bounded executor as soon as END arrives;
//    the protocol loop keeps reading while compiles run. RESP records
//    are still written in request order at each flush point (FLUSH /
//    STATS / TRACE / QUIT / maxBatch / EOF).
//  * Admission is bounded by maxInflight concurrent compiles plus
//    maxQueue waiting requests. Beyond that the request is shed: a
//    `BUSY <id> retry_after_ms=<N>` line is written (and flushed)
//    immediately — out of band with RESP ordering, by design — and the
//    request is never queued. Clients back off and retry
//    (scripts/serve_client.py implements exponential backoff+jitter).
//  * deadline-ms= (or the daemon-wide --default-deadline-ms) arms a
//    CancelToken at admission; expiry anywhere between compile phases
//    answers `RESP <id> error code=deadline_exceeded`.
//  * Error responses carry a machine-readable code=: bad_option,
//    truncated, request_too_large, deadline_exceeded, injected_fault,
//    or compile_error.
//  * Request bodies and protocol lines are capped at maxRequestBytes;
//    oversized requests are consumed (bounded, never buffered whole)
//    and answered with code=request_too_large.
//  * When `stop` flips (SIGTERM/SIGINT in sherlockc), the loop stops
//    reading, tightens every in-flight request's deadline to
//    drainDeadlineMs, writes what completes, and returns — so metrics,
//    traces, and the cache snapshot still flush on a signal.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "serve/service.h"

namespace sherlock::serve {

struct ServeLoopOptions {
  /// Daemon-wide request defaults (from sherlockc's flags); per-request
  /// key=value pairs overlay these (including deadlineMs).
  RequestOptions defaults;
  /// Pending responses that trigger an automatic flush.
  size_t maxBatch = 64;
  /// Thread-pool parallelism for compiles (0 = SHERLOCK_THREADS /
  /// hardware default; 1 = one worker).
  int threads = 0;
  /// Concurrent compiles admitted before requests start queueing
  /// (0 = `threads`). This is the executor's worker count.
  int maxInflight = 0;
  /// Requests allowed to wait for a worker; beyond maxInflight +
  /// maxQueue outstanding, new requests are shed with BUSY.
  size_t maxQueue = 1024;
  /// Hard cap on one request's body (and any single protocol line).
  size_t maxRequestBytes = 4u << 20;
  /// retry_after_ms hint carried by BUSY responses.
  int retryAfterMs = 25;
  /// Grace given to in-flight requests when `stop` flips before their
  /// deadlines are tightened to now + drainDeadlineMs.
  double drainDeadlineMs = 2000;
  /// When set, the canonical cache is snapshotted here (atomically)
  /// after any flush that added entries, and on session end.
  std::string cachePersistPath;
  /// Graceful-drain signal (e.g. SIGTERM): polled between protocol
  /// lines and by the socket layer's blocking reads.
  const std::atomic<bool>* stop = nullptr;
};

struct ServeLoopResult {
  uint64_t requests = 0;  ///< responses written (including errors)
  uint64_t shed = 0;      ///< requests answered BUSY
  /// The session ended with SHUTDOWN (socket servers stop accepting).
  bool shutdown = false;
};

/// Applies one key=value pair onto the request options, as a REQ line
/// does (and sherlockc for the flags that share a key, so both front
/// ends accept one range). Throws Error on unknown keys or malformed or
/// out-of-range values, so a typo'd request fails loudly instead of
/// silently compiling with defaults.
void applyOption(RequestOptions& o, const std::string& key,
                 const std::string& value);

/// Runs one protocol session until QUIT/SHUTDOWN/EOF/stop. Protocol-
/// level problems (bad options, truncated or oversized requests) are
/// reported as per-request error responses or PROTOCOL-ERROR lines;
/// the loop itself only exits on end of session.
ServeLoopResult runServeLoop(std::istream& in, std::ostream& out,
                             CompileService& service,
                             const ServeLoopOptions& options);

}  // namespace sherlock::serve
