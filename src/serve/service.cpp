#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>

#include "frontend/lowering.h"
#include "ir/canonical.h"
#include "ir/serialize.h"
#include "serve/persist.h"
#include "support/diagnostics.h"
#include "support/failpoint.h"
#include "support/trace.h"
#include "workloads/bitweaving.h"
#include "workloads/sobel.h"

namespace sherlock::serve {

namespace {

using Clock = std::chrono::steady_clock;

double usSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

device::TechnologyParams techFor(const std::string& name) {
  if (name == "reram") return device::TechnologyParams::reRam();
  if (name == "stt") return device::TechnologyParams::sttMram();
  if (name == "pcm") return device::TechnologyParams::pcm();
  throw Error(strCat("unknown technology '", name, "'"));
}

/// The option fields the emitted bytes depend on, pipe-delimited.
std::string optionsKey(const RequestOptions& o) {
  return strCat("emit=", o.emit, "|strategy=", o.strategy,
                "|dim=", o.targetDim, "|mra=", o.mra,
                "|frac=", o.fraction, "|tech=", o.tech,
                "|fd=", o.faultDensity,
                "|fseed=", o.faultSeed, "|spare=", o.spareRows,
                "|nand=", o.nandLower ? 1 : 0,
                "|O=", o.aggressive ? 1 : 0);
}

}  // namespace

CompileSetup compileSetup(const RequestOptions& o,
                          std::initializer_list<std::string_view> emitKinds) {
  checkArg(std::find(emitKinds.begin(), emitKinds.end(), o.emit) !=
               emitKinds.end(),
           "unknown emit kind '", o.emit, "'");
  checkArg(o.strategy == "opt" || o.strategy == "naive",
           "unknown strategy '", o.strategy, "'");
  CompileSetup setup{
      isa::TargetSpec::square(o.targetDim, techFor(o.tech), o.mra), {}};
  mapping::FlowOptions& flow = setup.flow;
  flow.strategy = o.strategy == "naive" ? mapping::Strategy::Naive
                                        : mapping::Strategy::Optimized;
  flow.fraction = o.fraction;
  flow.nandLower = o.nandLower;
  flow.foldInverters = o.aggressive;
  flow.faultDensity = o.faultDensity;
  flow.faultSeed = o.faultSeed;
  flow.spareRows = o.spareRows;
  return setup;
}

std::string CompileService::cacheKey(const std::string& fingerprint,
                                     const RequestOptions& o) {
  // `lang` is deliberately absent: a DAG and a kernel-language source
  // lowering to the same canonical graph get the same program.
  return strCat(fingerprint, "|", optionsKey(o));
}

std::string CompileService::directKey(const std::string& source,
                                      const RequestOptions& o) {
  // Unlike the canonical key, `lang` matters here: the same bytes parse
  // to different graphs under different frontends.
  return strCat("lang=", o.lang, "|", optionsKey(o), "\n", source);
}

CompileService::CompileService(ServiceOptions options)
    : options_(std::move(options)),
      direct_(options_.cacheCapacity),
      cache_(options_.cacheCapacity) {
  // Pre-register the resilience counters and gauges at zero so every
  // metrics dump carries them (dashboards and the chaos harness read
  // them unconditionally).
  for (const char* name :
       {"serve.requests", "serve.hits", "serve.misses", "serve.errors",
        "serve.shed", "serve.deadline_exceeded",
        "serve.injected_faults"})
    metrics_.add(name, 0);
  metrics_.setGauge("serve.inflight", 0);
  metrics_.setGauge("serve.queue_depth", 0);
}

namespace {

/// The cacheable body for a prepared canonical graph: a pure function of
/// (graph, options) — exactly what the cache key encodes — so cached
/// and cold responses are byte-identical.
std::string renderBody(ir::Graph canonical, const RequestOptions& o) {
  CompileSetup setup = compileSetup(o);
  mapping::FlowResult result =
      mapping::compilePrepared(std::move(canonical), setup.target, setup.flow);
  std::ostringstream out;
  out << "# sherlock-serve " << setup.target.tech.name << " " << o.targetDim
      << "x" << o.targetDim << " " << o.strategy << "\n";
  if (o.emit == "asm")
    out << isa::toAssembly(result.compiled.program.instructions);
  else
    out << mapping::statsText(result, setup.target, setup.flow);
  return out.str();
}

}  // namespace

const std::string& CompileService::compilerFingerprint() {
  static const std::string fingerprint = [] {
    workloads::BitweavingSpec bitweaving;
    bitweaving.bits = 4;
    bitweaving.segments = 2;
    workloads::SobelSpec sobel;
    sobel.width = 2;
    uint64_t h = kFnv1aOffset;
    for (const ir::Graph& g :
         {mapping::prepareGraph(workloads::buildBitweaving(bitweaving), {}),
          mapping::prepareGraph(workloads::buildSobel(sobel), {})})
      for (const char* strategy : {"naive", "opt"})
        for (int mra : {2, 4})
          for (double faultDensity : {0.0, 0.02})
            for (const char* emit : {"asm", "stats"}) {
              RequestOptions o;
              o.emit = emit;
              o.strategy = strategy;
              o.targetDim = 64;
              o.mra = mra;
              o.faultDensity = faultDensity;
              o.spareRows = faultDensity > 0 ? 4 : 0;
              h = fnv1a(renderBody(g, o), h);
            }
    return hex64(h);
  }();
  return fingerprint;
}

CompileResponse CompileService::handle(const std::string& source,
                                       const RequestOptions& options,
                                       const CancelToken* cancel) {
  Clock::time_point t0 = Clock::now();
  CompileResponse resp;
  metrics_.add("serve.requests");
  try {
    // A request whose deadline expired while it sat in the admission
    // queue is answered without doing any work at all.
    if (cancel) cancel->checkpoint("admission");
    std::string memoKey = directKey(source, options);
    {
      trace::Span span("serve", "direct_probe");
      std::lock_guard<std::mutex> lock(mu_);
      // Direct mode: an exact repeat of a completed request skips parse
      // and canonicalization and returns the pinned payload verbatim.
      if (DirectEntry* memo = direct_.get(memoKey)) {
        resp.ok = true;
        resp.cacheHit = true;
        resp.direct = true;
        resp.key = memo->key;
        resp.payload = *memo->payload;
        resp.totalUs = usSince(t0);
        metrics_.add("serve.hits");
        metrics_.add("serve.direct_hits");
        metrics_.observe("serve.hit_us", resp.totalUs);
        if (trace::Tracer::instance().enabled())
          trace::Tracer::instance().instant("serve", "direct_hit");
        return resp;
      }
    }
    ir::Graph g;
    {
      trace::Span span("serve", "parse");
      failpoint::check("parse");
      if (options.lang == "kernel") {
        g = frontend::compileKernel(source);
      } else if (options.lang == "dag") {
        g = ir::graphFromText(source);
      } else {
        throw Error(strCat("unknown lang '", options.lang, "'"));
      }
    }
    if (cancel) cancel->checkpoint("parse");
    std::optional<ir::CanonicalForm> canonicalOpt;
    {
      trace::Span span("serve", "canonicalize");
      failpoint::check("canonicalize");
      g = mapping::prepareGraph(g, compileSetup(options).flow);
      canonicalOpt.emplace(ir::canonicalForm(g));
    }
    if (cancel) cancel->checkpoint("canonicalize");
    ir::CanonicalForm& canonical = *canonicalOpt;
    resp.key = cacheKey(canonical.fingerprint(), options);

    // Per-request binding header: the cached body names inputs by
    // canonical position; this line maps the caller's names onto them.
    std::ostringstream header;
    header << "# key " << resp.key << "\n# inputs:";
    for (size_t k = 0; k < canonical.inputNames.size(); ++k)
      header << " " << canonical.inputNames[k] << "->i" << k;
    header << "\n";

    std::shared_ptr<const std::string> body;
    bool isBuilder = false;
    std::promise<std::shared_ptr<const std::string>> promise;
    std::shared_future<std::shared_ptr<const std::string>> pending;
    {
      trace::Span span("serve", "lookup");
      std::lock_guard<std::mutex> lock(mu_);
      if (std::shared_ptr<const std::string>* hit = cache_.get(resp.key)) {
        body = *hit;
        metrics_.add("serve.hits");
        resp.cacheHit = true;
        if (trace::Tracer::instance().enabled())
          trace::Tracer::instance().instant("serve", "canonical_hit");
      } else if (auto it = inflight_.find(resp.key);
                 it != inflight_.end()) {
        pending = it->second.future;
      } else {
        isBuilder = true;
        pending = promise.get_future().share();
        inflight_.emplace(resp.key, Inflight{pending});
      }
    }

    if (isBuilder) {
      if (options_.onColdCompile) options_.onColdCompile(resp.key);
      Clock::time_point c0 = Clock::now();
      try {
        if (cancel) cancel->checkpoint("compile");
        trace::Span span("serve", "compile");
        failpoint::check("compile");
        body = std::make_shared<const std::string>(
            renderBody(std::move(canonical.graph), options));
        resp.compileUs = usSince(c0);
      } catch (...) {
        // Errors are not cached: release the key so a corrected retry
        // (or a different fault map) compiles fresh, and wake waiters
        // with the failure.
        {
          std::lock_guard<std::mutex> lock(mu_);
          inflight_.erase(resp.key);
        }
        promise.set_exception(std::current_exception());
        throw;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        cache_.put(resp.key, body);
        ++cacheGeneration_;
        inflight_.erase(resp.key);
      }
      metrics_.add("serve.misses");
      metrics_.observe("serve.cold_us", resp.compileUs);
      promise.set_value(body);
    } else if (!resp.cacheHit) {
      trace::Span span("serve", "singleflight_wait");
      // A deadline-carrying waiter bounds its wait instead of riding a
      // slow builder past its own deadline.
      if (cancel && cancel->hasDeadline() &&
          pending.wait_until(cancel->deadline()) ==
              std::future_status::timeout)
        throw DeadlineExceeded("singleflight_wait");
      body = pending.get();  // rethrows the builder's failure
      metrics_.add("serve.coalesced");
      resp.coalesced = true;
    }

    auto full =
        std::make_shared<const std::string>(header.str() + *body);
    resp.payload = *full;
    resp.ok = true;
    resp.totalUs = usSince(t0);
    {
      std::lock_guard<std::mutex> lock(mu_);
      direct_.put(memoKey, DirectEntry{std::move(full), resp.key});
    }
    if (resp.cacheHit) metrics_.observe("serve.hit_us", resp.totalUs);
  } catch (const DeadlineExceeded& e) {
    resp.ok = false;
    resp.code = "deadline_exceeded";
    resp.payload = strCat("error: ", e.what(), "\n");
    resp.totalUs = usSince(t0);
    metrics_.add("serve.errors");
    metrics_.add("serve.deadline_exceeded");
  } catch (const failpoint::InjectedFault& e) {
    resp.ok = false;
    resp.code = "injected_fault";
    resp.payload = strCat("error: ", e.what(), "\n");
    resp.totalUs = usSince(t0);
    metrics_.add("serve.errors");
    metrics_.add("serve.injected_faults");
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.code = "compile_error";
    resp.payload = strCat("error: ", e.what(), "\n");
    resp.totalUs = usSince(t0);
    metrics_.add("serve.errors");
  }
  return resp;
}

void CompileService::noteShed() { metrics_.add("serve.shed"); }

void CompileService::setLoadGauges(size_t inflight, size_t queueDepth) {
  metrics_.setGauge("serve.inflight", static_cast<double>(inflight));
  metrics_.setGauge("serve.queue_depth",
                    static_cast<double>(queueDepth));
}

PersistResult CompileService::saveCache(const std::string& path) {
  // Snapshot the entries under the lock, write the file outside it (a
  // multi-megabyte fsync must not stall request lookups).
  std::vector<std::pair<std::string, std::string>> entries;
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation = cacheGeneration_;
    std::vector<std::string> keys = cache_.keysMruToLru();
    entries.reserve(keys.size());
    // LRU first: reloading in file order then rebuilds the same
    // recency, with the MRU entry inserted last.
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
      const std::shared_ptr<const std::string>* body = cache_.peek(*it);
      if (body) entries.emplace_back(*it, **body);
    }
  }
  SnapshotStats stats =
      saveCacheSnapshot(path, compilerFingerprint(), entries);
  PersistResult result;
  result.ok = stats.ok;
  result.entries = stats.written;
  if (stats.ok) {
    std::lock_guard<std::mutex> lock(mu_);
    persistedGeneration_ = generation;
    metrics_.add("serve.persist_saved", stats.written);
  } else {
    metrics_.add("serve.persist_errors");
  }
  return result;
}

PersistResult CompileService::loadCache(const std::string& path) {
  SnapshotStats stats = loadCacheSnapshot(
      path, compilerFingerprint(), [this](std::string key, std::string body) {
        std::lock_guard<std::mutex> lock(mu_);
        cache_.put(std::move(key),
                   std::make_shared<const std::string>(std::move(body)));
      });
  PersistResult result;
  result.ok = stats.ok;
  result.entries = stats.loaded;
  result.dropped = stats.dropped;
  metrics_.add("serve.persist_loaded", stats.loaded);
  metrics_.add("serve.persist_dropped", stats.dropped);
  std::lock_guard<std::mutex> lock(mu_);
  // Warm entries count as already persisted; only new compiles dirty
  // the cache again.
  persistedGeneration_ = cacheGeneration_;
  return result;
}

bool CompileService::cacheDirty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cacheGeneration_ != persistedGeneration_;
}

void CompileService::recordQueueWait(double us) {
  metrics_.observe("serve.queue_wait_us", us);
}

const MetricsRegistry& CompileService::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t hits = metrics_.counterValue("serve.hits");
  uint64_t misses = metrics_.counterValue("serve.misses");
  uint64_t coalesced = metrics_.counterValue("serve.coalesced");
  uint64_t served = hits + misses + coalesced;
  metrics_.setGauge("serve.hit_rate",
                    served == 0 ? 0.0
                                : static_cast<double>(hits + coalesced) /
                                      static_cast<double>(served));
  metrics_.setGauge("serve.cache_size",
                    static_cast<double>(cache_.size()));
  metrics_.setGauge("serve.cache_capacity",
                    static_cast<double>(cache_.capacity()));
  metrics_.setGauge("serve.evictions",
                    static_cast<double>(cache_.evictions()));
  return metrics_;
}

std::string CompileService::metricsJson() const { return metrics().toJson(); }

}  // namespace sherlock::serve
