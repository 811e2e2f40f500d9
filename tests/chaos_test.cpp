// Chaos suite for the resilient serving stack (Issue 10): the
// deterministic failpoint registry itself, structured error codes under
// injected faults, deadline enforcement at and between compile phases,
// bounded-admission load shedding, request size caps, and crash-safe
// cache snapshot round-trips with every corruption class the loader
// must survive.
//
// Everything here is deterministic: probabilistic failpoints draw from
// seeded per-point streams, timing-sensitive scenarios are anchored on
// delay failpoints orders of magnitude beyond scheduler noise, and
// corruption is byte-targeted, not random.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/persist.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "support/cancel.h"
#include "support/failpoint.h"

using namespace sherlock;
using namespace sherlock::serve;

namespace {

/// The failpoint registry is process-global; every test scopes its
/// configuration so suites stay independent.
struct FailpointGuard {
  FailpointGuard(const std::string& spec, uint64_t seed = 1) {
    failpoint::FailPoints::instance().configure(spec, seed);
  }
  ~FailpointGuard() { failpoint::FailPoints::instance().reset(); }
};

std::string dagText(const std::string& a, const std::string& b) {
  return strCat("input ", a, "\ninput ", b, "\nop AND 0 1\noutput 2\n");
}

RequestOptions smallTarget() {
  RequestOptions o;
  o.targetDim = 64;
  return o;
}

/// A unique temp path per test; removed on destruction.
struct TempFile {
  explicit TempFile(const std::string& tag)
      : path(strCat(::testing::TempDir(), "sherlock_chaos_", tag, "_",
                    ::getpid())) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Compiler fingerprint stamped by the snapshot-format tests.
const std::string kCompiler = "0123456789abcdef";

}  // namespace

TEST(FailPoints, SpecGrammarAndMalformedSpecsRejected) {
  auto& fp = failpoint::FailPoints::instance();
  fp.configure("parse:0.5,compile:err,io:delay5ms", 7);
  EXPECT_TRUE(fp.enabled());
  fp.reset();
  EXPECT_FALSE(fp.enabled());
  EXPECT_THROW(fp.configure("parse"), Error);          // no action
  EXPECT_THROW(fp.configure("parse:"), Error);         // empty action
  EXPECT_THROW(fp.configure(":0.5"), Error);           // empty name
  EXPECT_THROW(fp.configure("parse:1.5"), Error);      // p out of range
  EXPECT_THROW(fp.configure("parse:delayms"), Error);  // no digits
  EXPECT_THROW(fp.configure("parse:banana"), Error);   // junk action
  fp.reset();
}

TEST(FailPoints, DisabledCheckIsANoOp) {
  failpoint::FailPoints::instance().reset();
  for (int i = 0; i < 1000; ++i)
    EXPECT_NO_THROW(failpoint::check("anything"));
  EXPECT_EQ(failpoint::FailPoints::instance().evaluations("anything"),
            0u);
}

TEST(FailPoints, ErrActionAlwaysFiresAndUnknownNamesNever) {
  FailpointGuard guard("boom:err");
  EXPECT_THROW(failpoint::check("boom"), failpoint::InjectedFault);
  EXPECT_NO_THROW(failpoint::check("other"));
  auto& fp = failpoint::FailPoints::instance();
  EXPECT_EQ(fp.triggers("boom"), 1u);
  EXPECT_EQ(fp.evaluations("boom"), 1u);
  EXPECT_EQ(fp.triggers("other"), 0u);
}

TEST(FailPoints, ProbabilisticStreamIsSeedDeterministic) {
  auto pattern = [](uint64_t seed) {
    FailpointGuard guard("flaky:0.5", seed);
    std::string fired;
    for (int i = 0; i < 64; ++i) {
      try {
        failpoint::check("flaky");
        fired += '.';
      } catch (const failpoint::InjectedFault&) {
        fired += 'X';
      }
    }
    return fired;
  };
  std::string a = pattern(42);
  EXPECT_EQ(a, pattern(42));  // same seed, same trigger sequence
  EXPECT_NE(a, pattern(43));  // different seed, different sequence
  EXPECT_NE(a.find('X'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
}

TEST(ChaosService, InjectedCompileFaultIsStructuredAndNotCached) {
  CompileService service;
  {
    FailpointGuard guard("compile:err");
    CompileResponse fail =
        service.handle(dagText("a", "b"), smallTarget());
    EXPECT_FALSE(fail.ok);
    EXPECT_EQ(fail.code, "injected_fault");
    EXPECT_NE(fail.payload.find("error:"), std::string::npos);
  }
  // The failure must not have poisoned the cache: the same request now
  // compiles cold and succeeds.
  CompileResponse ok = service.handle(dagText("a", "b"), smallTarget());
  ASSERT_TRUE(ok.ok) << ok.payload;
  EXPECT_FALSE(ok.cacheHit);
  const MetricsRegistry& metrics = service.metrics();
  EXPECT_EQ(metrics.counterValue("serve.errors"), 1u);
  EXPECT_EQ(metrics.counterValue("serve.misses"), 1u);
  EXPECT_NE(service.metricsJson().find("\"serve.injected_faults\": 1"),
            std::string::npos);
}

TEST(ChaosService, ParseFaultSurfacesBeforeAnyCompile) {
  CompileService service;
  FailpointGuard guard("parse:err");
  CompileResponse fail = service.handle(dagText("a", "b"), smallTarget());
  EXPECT_FALSE(fail.ok);
  EXPECT_EQ(fail.code, "injected_fault");
  EXPECT_EQ(service.metrics().counterValue("serve.misses"), 0u);
}

TEST(ChaosService, ExpiredDeadlineRejectedAtAdmission) {
  CompileService service;
  CancelToken cancel;
  cancel.tightenAfterMs(0);  // already expired
  CompileResponse resp =
      service.handle(dagText("a", "b"), smallTarget(), &cancel);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, "deadline_exceeded");
  EXPECT_NE(resp.payload.find("admission"), std::string::npos)
      << resp.payload;
  // No work was admitted: neither a parse nor a compile happened.
  EXPECT_EQ(service.metrics().counterValue("serve.misses"), 0u);
  EXPECT_NE(service.metricsJson().find("\"serve.deadline_exceeded\": 1"),
            std::string::npos);
}

TEST(ChaosService, DeadlineExpiringMidPipelineAbortsBetweenPhases) {
  CompileService service;
  // The parse phase is slowed far beyond the deadline, so the
  // post-parse checkpoint must observe expiry — deterministically.
  FailpointGuard guard("parse:delay50ms");
  CancelToken cancel;
  cancel.tightenAfterMs(5);
  CompileResponse resp =
      service.handle(dagText("a", "b"), smallTarget(), &cancel);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, "deadline_exceeded");
  EXPECT_NE(resp.payload.find("parse"), std::string::npos)
      << resp.payload;
  EXPECT_EQ(service.metrics().counterValue("serve.misses"), 0u);
}

TEST(ChaosService, CancelledTokenAbortsRegardlessOfDeadline) {
  CompileService service;
  CancelToken cancel;
  cancel.cancel();
  CompileResponse resp =
      service.handle(dagText("a", "b"), smallTarget(), &cancel);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, "deadline_exceeded");
}

namespace {

std::string runSession(const std::string& script, CompileService& service,
                       ServeLoopOptions options,
                       ServeLoopResult* result = nullptr) {
  std::istringstream in(script);
  std::ostringstream out;
  ServeLoopResult r = runServeLoop(in, out, service, options);
  if (result) *result = r;
  return out.str();
}

ServeLoopOptions sessionOptions() {
  ServeLoopOptions options;
  options.defaults = smallTarget();
  options.threads = 2;
  return options;
}

}  // namespace

TEST(ChaosProtocol, DeadlineOptionAnswersStructuredError) {
  CompileService service;
  // 1 ns deadline: expired long before any worker reaches the
  // admission checkpoint.
  std::string script = "REQ late deadline-ms=0.000001\n" +
                       dagText("a", "b") + "END\nFLUSH\nQUIT\n";
  std::string out = runSession(script, service, sessionOptions());
  EXPECT_NE(out.find("RESP late error code=deadline_exceeded"),
            std::string::npos)
      << out;
}

TEST(ChaosProtocol, NegativeDeadlineIsABadOption) {
  CompileService service;
  std::string script = "REQ neg deadline-ms=-5\n" + dagText("a", "b") +
                       "END\nFLUSH\nQUIT\n";
  std::string out = runSession(script, service, sessionOptions());
  EXPECT_NE(out.find("RESP neg error code=bad_option"),
            std::string::npos)
      << out;
}

TEST(ChaosProtocol, SaturatedQueueShedsWithBusyImmediately) {
  CompileService service;
  // One worker, zero queue: while the first (artificially slow)
  // request is outstanding, every further request must shed. The
  // 500 ms delay dwarfs the microseconds the loop needs to parse the
  // following REQ lines, so the scenario is deterministic.
  FailpointGuard guard("compile:delay500ms");
  ServeLoopOptions options = sessionOptions();
  options.maxInflight = 1;
  options.maxQueue = 0;
  options.retryAfterMs = 15;
  ServeLoopResult result;
  std::string script = "REQ slow\n" + dagText("a", "b") + "END\n" +
                       "REQ shed1\n" + dagText("a", "c") + "END\n" +
                       "REQ shed2\n" + dagText("a", "d") + "END\n" +
                       "FLUSH\nQUIT\n";
  std::string out = runSession(script, service, options, &result);
  EXPECT_NE(out.find("RESP slow ok"), std::string::npos) << out;
  EXPECT_NE(out.find("BUSY shed1 retry_after_ms=15"), std::string::npos)
      << out;
  EXPECT_NE(out.find("BUSY shed2 retry_after_ms=15"), std::string::npos)
      << out;
  // Shed requests never produce a RESP record.
  EXPECT_EQ(out.find("RESP shed1"), std::string::npos);
  EXPECT_EQ(result.shed, 2u);
  EXPECT_EQ(result.requests, 1u);
  // The BUSY lines precede the slow RESP in the byte stream: shedding
  // did not wait for the batch to drain.
  EXPECT_LT(out.find("BUSY shed1"), out.find("RESP slow"));
  EXPECT_NE(service.metricsJson().find("\"serve.shed\": 2"),
            std::string::npos);
}

TEST(ChaosProtocol, QueuedRequestsBeyondInflightStillComplete) {
  CompileService service;
  ServeLoopOptions options = sessionOptions();
  options.maxInflight = 1;
  options.maxQueue = 8;  // roomy queue: nothing sheds
  std::string script;
  for (int i = 0; i < 4; ++i)
    script += strCat("REQ q", i, "\n", dagText("a", strCat("b", i)),
                     "END\n");
  script += "FLUSH\nQUIT\n";
  ServeLoopResult result;
  std::string out = runSession(script, service, options, &result);
  for (int i = 0; i < 4; ++i)
    EXPECT_NE(out.find(strCat("RESP q", i, " ok")), std::string::npos)
        << out;
  EXPECT_EQ(result.shed, 0u);
  EXPECT_EQ(result.requests, 4u);
}

TEST(ChaosProtocol, OversizedBodyAnswersRequestTooLarge) {
  CompileService service;
  ServeLoopOptions options = sessionOptions();
  options.maxRequestBytes = 128;
  std::string big(4096, 'x');  // consumed but never buffered
  std::string script = "REQ big\n# " + big + "\n" + dagText("a", "b") +
                       "END\n" +
                       "REQ fine\n" + dagText("a", "b") +
                       "END\nFLUSH\nQUIT\n";
  std::string out = runSession(script, service, options);
  EXPECT_NE(out.find("RESP big error code=request_too_large"),
            std::string::npos)
      << out;
  // The oversized request did not desynchronize the session.
  EXPECT_NE(out.find("RESP fine ok"), std::string::npos) << out;
  EXPECT_EQ(service.metrics().counterValue("serve.misses"), 1u);
}

TEST(ChaosProtocol, OversizedRequestLineAnswersRequestTooLarge) {
  CompileService service;
  ServeLoopOptions options = sessionOptions();
  options.maxRequestBytes = 64;
  std::string script = "REQ huge " + std::string(256, 'z') + "\n" +
                       dagText("a", "b") + "END\nFLUSH\nQUIT\n";
  std::string out = runSession(script, service, options);
  EXPECT_NE(out.find("RESP huge error code=request_too_large"),
            std::string::npos)
      << out;
}

TEST(ChaosProtocol, StopFlagDrainsInsteadOfReading) {
  CompileService service;
  std::atomic<bool> stop{true};
  ServeLoopOptions options = sessionOptions();
  options.stop = &stop;
  // The script would compile fine — but the drain flag is already up,
  // so the session must end without reading a single directive.
  ServeLoopResult result;
  std::string out = runSession(
      "REQ x\n" + dagText("a", "b") + "END\nFLUSH\nQUIT\n", service,
      options, &result);
  EXPECT_EQ(result.requests, 0u);
  EXPECT_EQ(out.find("RESP"), std::string::npos) << out;
  EXPECT_EQ(service.metrics().counterValue("serve.requests"), 0u);
}

TEST(ChaosPersist, SnapshotRoundTripsEntriesInOrder) {
  TempFile file("roundtrip");
  std::vector<std::pair<std::string, std::string>> entries = {
      {"key-one", "body one\nwith two lines\n"},
      {"key-two", ""},  // empty body is legal
      {"key three with spaces", std::string("binary\0bytes", 12)},
  };
  SnapshotStats saved = saveCacheSnapshot(file.path, kCompiler, entries);
  ASSERT_TRUE(saved.ok);
  EXPECT_EQ(saved.written, 3u);

  std::vector<std::pair<std::string, std::string>> loaded;
  SnapshotStats in = loadCacheSnapshot(
      file.path, kCompiler, [&](std::string key, std::string body) {
        loaded.emplace_back(std::move(key), std::move(body));
      });
  EXPECT_TRUE(in.ok);
  EXPECT_EQ(in.loaded, 3u);
  EXPECT_EQ(in.dropped, 0u);
  EXPECT_EQ(loaded, entries);
}

TEST(ChaosPersist, MissingFileIsAnEmptyColdBoot) {
  size_t calls = 0;
  SnapshotStats in = loadCacheSnapshot(
      "/nonexistent/sherlock/snapshot", kCompiler,
      [&](std::string, std::string) { ++calls; });
  EXPECT_FALSE(in.ok);
  EXPECT_EQ(in.loaded, 0u);
  EXPECT_EQ(calls, 0u);
}

TEST(ChaosPersist, CorruptEntryIsDroppedOthersSurvive) {
  TempFile file("corrupt");
  ASSERT_TRUE(saveCacheSnapshot(file.path, kCompiler, {{"ka", "alpha-body"},
                                            {"kb", "beta-body"},
                                            {"kc", "gamma-body"}})
                  .ok);
  std::string bytes = slurp(file.path);
  size_t at = bytes.find("beta-body");
  ASSERT_NE(at, std::string::npos);
  bytes[at] = 'X';  // flip one payload byte of the middle entry
  spit(file.path, bytes);

  std::vector<std::string> keys;
  SnapshotStats in = loadCacheSnapshot(
      file.path, kCompiler,
      [&](std::string key, std::string) { keys.push_back(std::move(key)); });
  EXPECT_EQ(in.loaded, 2u);
  EXPECT_EQ(in.dropped, 1u);
  EXPECT_EQ(keys, (std::vector<std::string>{"ka", "kc"}));
}

TEST(ChaosPersist, TruncatedSnapshotDropsTheTailNeverThrows) {
  TempFile file("truncated");
  ASSERT_TRUE(saveCacheSnapshot(file.path, kCompiler, {{"ka", "alpha-body"},
                                            {"kb", "beta-body"}})
                  .ok);
  std::string bytes = slurp(file.path);
  // Cut mid-way through the second entry: a crash during a non-atomic
  // writer would look like this (ours renames, but the loader must not
  // care how the file got mangled).
  spit(file.path, bytes.substr(0, bytes.find("beta-body") + 3));

  std::vector<std::string> keys;
  SnapshotStats in = loadCacheSnapshot(
      file.path, kCompiler,
      [&](std::string key, std::string) { keys.push_back(std::move(key)); });
  EXPECT_EQ(keys, std::vector<std::string>{"ka"});
  EXPECT_EQ(in.loaded, 1u);
  EXPECT_EQ(in.dropped, 1u);
}

TEST(ChaosPersist, VersionMismatchDropsSnapshotWhole) {
  TempFile file("version");
  ASSERT_TRUE(saveCacheSnapshot(file.path, kCompiler, {{"ka", "alpha-body"}}).ok);
  std::string bytes = slurp(file.path);
  size_t at = bytes.find(" v");
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, 3, " v9");  // pretend a future schema wrote it
  spit(file.path, bytes);

  size_t calls = 0;
  SnapshotStats in = loadCacheSnapshot(
      file.path, kCompiler, [&](std::string, std::string) { ++calls; });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(in.loaded, 0u);
  EXPECT_GE(in.dropped, 1u);
}

TEST(ChaosPersist, GarbageFileLoadsNothingAndNeverThrows) {
  TempFile file("garbage");
  spit(file.path, "not a snapshot at all\n\x01\x02\x03 bytes\n");
  size_t calls = 0;
  EXPECT_NO_THROW(loadCacheSnapshot(
      file.path, kCompiler, [&](std::string, std::string) { ++calls; }));
  EXPECT_EQ(calls, 0u);
}

TEST(ChaosPersist, ServiceWarmRestartServesCanonicalHits) {
  TempFile file("warm");
  std::string coldPayload;
  {
    CompileService first;
    CompileResponse cold = first.handle(dagText("a", "b"), smallTarget());
    ASSERT_TRUE(cold.ok) << cold.payload;
    coldPayload = cold.payload;
    ASSERT_TRUE(first.cacheDirty());
    PersistResult saved = first.saveCache(file.path);
    ASSERT_TRUE(saved.ok);
    EXPECT_EQ(saved.entries, 1u);
    EXPECT_FALSE(first.cacheDirty());
  }  // "crash": the first daemon is gone

  CompileService second;
  PersistResult warm = second.loadCache(file.path);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.entries, 1u);
  EXPECT_EQ(warm.dropped, 0u);
  EXPECT_FALSE(second.cacheDirty());
  // The rehydrated daemon serves the same request as a canonical hit
  // (source bytes re-parse, the fingerprint matches the warmed entry)
  // with a byte-identical payload.
  CompileResponse hit = second.handle(dagText("a", "b"), smallTarget());
  ASSERT_TRUE(hit.ok) << hit.payload;
  EXPECT_TRUE(hit.cacheHit);
  EXPECT_FALSE(hit.direct);
  EXPECT_EQ(hit.payload, coldPayload);
  EXPECT_EQ(second.metrics().counterValue("serve.misses"), 0u);
}

TEST(ChaosPersist, SnapshotOfAnotherCompilerLoadsNothing) {
  TempFile file("compiler");
  CompileService first;
  for (const char* op : {"AND", "OR", "XOR"})
    ASSERT_TRUE(first
                    .handle(strCat("input a\ninput b\nop ", op,
                                   " 0 1\noutput 2\n"),
                            smallTarget())
                    .ok);
  PersistResult saved = first.saveCache(file.path);
  ASSERT_TRUE(saved.ok);
  ASSERT_EQ(saved.entries, 3u);
  std::string bytes = slurp(file.path);
  const std::string stamp =
      strCat("compiler=", CompileService::compilerFingerprint(), " ");
  ASSERT_NE(bytes.find(stamp), std::string::npos) << bytes.substr(0, 80);

  // This build reloads every entry.
  {
    CompileService second;
    PersistResult warm = second.loadCache(file.path);
    EXPECT_EQ(warm.entries, saved.entries);
    EXPECT_EQ(warm.dropped, 0u);
  }
  // A build that emits other programs (another fingerprint) loads none.
  {
    std::string foreign = bytes;
    size_t at = foreign.find(stamp) + 9;
    foreign[at] = foreign[at] == '0' ? '1' : '0';
    spit(file.path, foreign);
    CompileService second;
    PersistResult stale = second.loadCache(file.path);
    EXPECT_EQ(stale.entries, 0u);
    EXPECT_EQ(stale.dropped, saved.entries);
    CompileResponse cold = second.handle(dagText("a", "b"), smallTarget());
    ASSERT_TRUE(cold.ok);
    EXPECT_FALSE(cold.cacheHit);
  }
  // A v3 snapshot (no compiler stamp) loads none either.
  {
    std::string v3 = bytes;
    size_t begin = v3.find(" v");
    size_t end = v3.find(" entries=");
    v3.replace(begin, end - begin, " v3");
    spit(file.path, v3);
    CompileService second;
    PersistResult stale = second.loadCache(file.path);
    EXPECT_EQ(stale.entries, 0u);
    EXPECT_GE(stale.dropped, 1u);
  }
}

TEST(ChaosPersist, SaveFailpointSurfacesAsPersistError) {
  TempFile file("persistfault");
  CompileService service;
  ASSERT_TRUE(service.handle(dagText("a", "b"), smallTarget()).ok);
  FailpointGuard guard("persist:err");
  PersistResult saved = service.saveCache(file.path);
  EXPECT_FALSE(saved.ok);
  EXPECT_TRUE(service.cacheDirty());  // nothing durable yet
  EXPECT_NE(service.metricsJson().find("\"serve.persist_errors\": 1"),
            std::string::npos);
}

TEST(ChaosMetrics, ResilienceCountersPresentFromTheFirstDump) {
  CompileService service;
  std::string json = service.metricsJson();
  for (const char* name :
       {"\"serve.shed\": 0", "\"serve.deadline_exceeded\": 0",
        "\"serve.injected_faults\": 0", "\"serve.inflight\": 0",
        "\"serve.queue_depth\": 0"})
    EXPECT_NE(json.find(name), std::string::npos) << name << "\n" << json;
}
