// Long-running compile service: a content-addressed, bounded-LRU
// compile cache with single-flight deduplication, the ROADMAP "never
// compile the same kernel twice" subsystem.
//
// A request carries a kernel (sherlock-dag text or kernel-language
// source) plus per-request compile options. The service canonicalizes
// the DAG (built folded and shared by ir::Graph, then dead-node
// elimination and the isomorphism-invariant renumbering of
// ir/canonical.h) and keys the cache on
//
//   (canonical DAG fingerprint, mapping strategy, array dim, MRA,
//    technology, fault policy, NAND lowering, aggressive-opt flag,
//    emit kind)
//
// — everything the emitted program bytes depend on. The cached body is
// compiled from the *canonical* graph, so every member of an
// equivalence class (alpha-renamed, renumbered, operand-commuted
// variants) receives byte-identical program text; a per-request binding
// header maps the caller's input names onto the canonical "i<k>" names.
//
// The cache is two-level, after ccache's direct/preprocessor split: a
// "direct mode" LRU memo keyed on the exact source bytes + options
// serves byte-identical repeats without re-parsing or re-canonicalizing
// (the dominant cost of a canonical-level hit), and the canonical cache
// behind it catches renamed/renumbered/commuted variants. Both levels
// share the configured capacity; a memo entry pins its payload, so a
// direct hit stays byte-correct even if the canonical entry behind it
// was evicted.
//
// Concurrency: handle() is safe to call from any number of threads
// (the serve loop fans batches out on the PR-1 thread pool). Lookups
// take one short mutex; compiles run outside it. Two in-flight requests
// for the same key compile once: the second waits on the first's
// shared_future (single-flight), counted as `coalesced` in the metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "isa/target.h"
#include "mapping/flow.h"
#include "support/cancel.h"
#include "support/lru_cache.h"
#include "support/metrics.h"

namespace sherlock::serve {

/// Compile options of one request, and of sherlockc's command line,
/// which become the daemon-wide defaults under --serve. The serve loop
/// overlays protocol key=value pairs onto those defaults.
struct RequestOptions {
  std::string lang = "dag";  ///< "dag" (ir/serialize) | "kernel" (.sk)
  std::string emit = "asm";  ///< "asm" | "stats"
  int targetDim = 512;
  std::string tech = "reram";
  std::string strategy = "opt";
  int mra = 2;
  double fraction = 1.0;   ///< substitution budget when mra > 2
  double faultDensity = 0; ///< stuck density (+ density/2 weak)
  uint64_t faultSeed = 1;
  int spareRows = 0;
  bool nandLower = false;
  bool aggressive = false;  ///< -O inverter-folding pipeline
  /// Per-request deadline in milliseconds, measured from protocol
  /// admission; 0 disables. A control knob, not a compile input: it is
  /// deliberately excluded from both cache keys.
  double deadlineMs = 0;
};

/// What a request compiles with: its target and its flow options.
struct CompileSetup {
  isa::TargetSpec target;
  mapping::FlowOptions flow;
};

/// The one conversion from request options to a compile setup, for the
/// service and sherlockc alike: looks up the technology and throws Error
/// on an unknown technology, an unknown strategy, or an emit kind
/// outside `emitKinds`. The flow checks the numeric bounds
/// (mapping::faultMapFor).
CompileSetup compileSetup(
    const RequestOptions& options,
    std::initializer_list<std::string_view> emitKinds = {"asm", "stats"});

struct ServiceOptions {
  /// LRU capacity in cached programs; 0 disables caching (every
  /// request cold-compiles — the bench's baseline mode).
  size_t cacheCapacity = 256;
  /// Test hook: invoked after a cold compile is chosen but before it
  /// runs, outside the service lock. Lets tests hold the first compile
  /// in flight while piling up coalescing requests.
  std::function<void(const std::string& key)> onColdCompile;
};

struct CompileResponse {
  bool ok = false;
  bool cacheHit = false;    ///< served straight from the LRU
  bool direct = false;      ///< exact-source memo hit (implies cacheHit)
  bool coalesced = false;   ///< waited on an identical in-flight compile
  std::string payload;      ///< binding header + program text, or error
  std::string key;          ///< full cache key (fingerprint + config)
  /// Machine-readable failure class when !ok: "deadline_exceeded",
  /// "injected_fault", or "compile_error". The protocol layer adds its
  /// own codes ("request_too_large", "truncated", "bad_option").
  std::string code;
  double totalUs = 0;       ///< wall-clock of handle()
  double compileUs = 0;     ///< cold-compile portion (0 on hit)
};

/// Counts accepted/rejected entries of a cache snapshot operation.
struct PersistResult {
  size_t entries = 0;  ///< written (save) or accepted (load)
  size_t dropped = 0;  ///< rejected as corrupt/stale on load
  bool ok = true;      ///< I/O-level success
};

class CompileService {
 public:
  explicit CompileService(ServiceOptions options = {});

  /// Compiles (or serves from cache) one kernel. Never throws: failures
  /// come back as ok=false with the diagnostic in payload and the
  /// failure class in code. `cancel` (optional) is checkpointed between
  /// phases — admission, post-parse, post-canonicalize, pre-compile and
  /// while waiting on a coalesced compile — so an expired deadline
  /// aborts the request cooperatively with code "deadline_exceeded".
  CompileResponse handle(const std::string& source,
                         const RequestOptions& options,
                         const CancelToken* cancel = nullptr);

  /// The service's counters, gauges and histograms, with the derived
  /// gauges (serve.hit_rate, serve.cache_size, serve.cache_capacity,
  /// serve.evictions) published first. The registry locks on its own.
  const MetricsRegistry& metrics() const;

  /// Load-shed accounting: the serve loop reports each BUSY rejection
  /// ("serve.shed" counter) and the executor's current load
  /// ("serve.inflight" / "serve.queue_depth" gauges).
  void noteShed();
  void setLoadGauges(size_t inflight, size_t queueDepth);

  /// Cache persistence (serve/persist.h): saveCache snapshots the
  /// canonical program cache (LRU→MRU order, so a reload rebuilds the
  /// same recency) atomically; loadCache warms it entry by entry,
  /// dropping anything corrupt or stale. Counters:
  /// serve.persist_saved/_loaded/_dropped/_errors.
  PersistResult saveCache(const std::string& path);
  PersistResult loadCache(const std::string& path);

  /// True when the canonical cache changed since the last saveCache()
  /// or loadCache() — the serve loop persists only then.
  bool cacheDirty() const;

  /// Records how long a request sat queued before handle() ran (the
  /// serve loop measures REQ-parse to dispatch) into the
  /// "serve.queue_wait_us" histogram.
  void recordQueueWait(double us);

  /// Unified MetricsRegistry JSON (counters "serve.*", gauges, and the
  /// hit/cold/queue-wait histograms) — the STATS verb response and the
  /// sherlockc --serve --metrics-out artifact.
  std::string metricsJson() const;

  /// The cache key handle() would use, exposed for key tests.
  static std::string cacheKey(const std::string& fingerprint,
                              const RequestOptions& options);

  /// The direct-mode memo key for an exact source + options pair.
  static std::string directKey(const std::string& source,
                               const RequestOptions& options);

  /// Fingerprint of the programs this build emits, as 16 hex digits:
  /// FNV-1a over the bodies the service renders for a fixed probe set
  /// (small Bitweaving and Sobel; naive and opt; MRA 2 and 4; dim 64;
  /// with and without a fault map; asm and stats). Computed once per
  /// process, on the first snapshot save or load, and stamped into the
  /// snapshot: a build that emits other programs loads none of it.
  static const std::string& compilerFingerprint();

 private:
  struct Inflight {
    std::shared_future<std::shared_ptr<const std::string>> future;
  };

  /// A completed response pinned by the direct-mode memo: the full
  /// payload (binding header + body) plus the canonical cache key it
  /// resolved to.
  struct DirectEntry {
    std::shared_ptr<const std::string> payload;
    std::string key;
  };

  ServiceOptions options_;
  mutable std::mutex mu_;
  LruCache<std::string, DirectEntry> direct_;
  LruCache<std::string, std::shared_ptr<const std::string>> cache_;
  std::unordered_map<std::string, Inflight> inflight_;
  /// Bumped on every canonical-cache insert; cacheDirty() compares it
  /// against the generation last persisted.
  uint64_t cacheGeneration_ = 0;
  uint64_t persistedGeneration_ = 0;
  /// Single store for every service counter/gauge/histogram; thread-safe
  /// on its own lock (safe to touch with or without mu_ held).
  mutable MetricsRegistry metrics_;
};

}  // namespace sherlock::serve
