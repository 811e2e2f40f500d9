// Compile-service tests: LRU eviction order, cache-key config
// separation, hit/miss byte-identity, single-flight deduplication under
// the thread pool, the newline-delimited batch protocol, and the
// fd-backed socket plumbing.
#include "serve/service.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "ir/serialize.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "support/lru_cache.h"
#include "support/parallel.h"

using namespace sherlock;
using namespace sherlock::serve;

namespace {

/// A small three-input kernel in sherlock-dag text, parameterized on
/// input names and operand order so tests can exercise equivalence.
std::string dagText(const std::string& a, const std::string& b,
                    const std::string& c, bool commuted = false) {
  std::ostringstream os;
  os << "input " << a << "\ninput " << b << "\ninput " << c << "\n";
  os << (commuted ? "op AND 1 0\n" : "op AND 0 1\n");
  os << "op XOR 3 2\noutput 4\n";
  return os.str();
}

/// The cacheable body: everything after the per-request binding header.
std::string bodyOf(const std::string& payload) {
  size_t pos = payload.find("# sherlock-serve");
  EXPECT_NE(pos, std::string::npos) << payload;
  return payload.substr(pos);
}

RequestOptions smallTarget() {
  RequestOptions o;
  o.targetDim = 64;
  return o;
}

}  // namespace

TEST(LruCache, EvictionFollowsRecencyOrder) {
  LruCache<std::string, int> cache(3);
  cache.put("a", 1);
  cache.put("b", 2);
  cache.put("c", 3);
  ASSERT_NE(cache.get("a"), nullptr);  // promote a over b, c
  cache.put("d", 4);                   // evicts b (least recent)
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_EQ(cache.keysMruToLru(),
            (std::vector<std::string>{"d", "a", "c"}));
  cache.put("e", 5);  // evicts c
  EXPECT_FALSE(cache.contains("c"));
  EXPECT_EQ(cache.keysMruToLru(),
            (std::vector<std::string>{"e", "d", "a"}));
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST(LruCache, OverwriteRefreshesWithoutEviction) {
  LruCache<std::string, int> cache(2);
  cache.put("a", 1);
  cache.put("b", 2);
  cache.put("a", 10);  // refresh, no growth
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(*cache.get("a"), 10);
  EXPECT_EQ(cache.keysMruToLru(), (std::vector<std::string>{"a", "b"}));
}

TEST(LruCache, PeekReadsWithoutPromoting) {
  LruCache<std::string, int> cache(2);
  cache.put("a", 1);
  cache.put("b", 2);
  const int* peeked = cache.peek("a");
  ASSERT_NE(peeked, nullptr);
  EXPECT_EQ(*peeked, 1);
  // peek must not refresh recency: "a" is still the eviction victim
  // (the persistence snapshot relies on this to walk the cache without
  // reshuffling it).
  EXPECT_EQ(cache.keysMruToLru(), (std::vector<std::string>{"b", "a"}));
  cache.put("c", 3);
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_EQ(cache.peek("missing"), nullptr);
}

TEST(LruCache, ZeroCapacityDisablesCaching) {
  LruCache<std::string, int> cache(0);
  cache.put("a", 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get("a"), nullptr);
}

TEST(CacheKey, EveryConfigDimensionSeparatesKeys) {
  const std::string fp = "feedfacefeedface.deadbeefdeadbeef";
  RequestOptions base = smallTarget();
  std::string baseKey = CompileService::cacheKey(fp, base);
  EXPECT_EQ(baseKey, CompileService::cacheKey(fp, base));

  auto differs = [&](auto mutate, const char* what) {
    RequestOptions o = base;
    mutate(o);
    EXPECT_NE(CompileService::cacheKey(fp, o), baseKey) << what;
  };
  differs([](RequestOptions& o) { o.strategy = "naive"; }, "strategy");
  differs([](RequestOptions& o) { o.targetDim = 128; }, "dim");
  differs([](RequestOptions& o) { o.tech = "stt"; }, "tech");
  differs([](RequestOptions& o) { o.mra = 4; }, "mra");
  differs([](RequestOptions& o) { o.faultDensity = 0.01; },
          "fault density");
  differs([](RequestOptions& o) { o.faultSeed = 9; }, "fault seed");
  differs([](RequestOptions& o) { o.spareRows = 4; }, "spare rows");
  differs([](RequestOptions& o) { o.nandLower = true; }, "nand");
  differs([](RequestOptions& o) { o.aggressive = true; }, "-O");
  differs([](RequestOptions& o) { o.emit = "stats"; }, "emit");
  // Different fingerprints never collide whatever the config.
  EXPECT_NE(CompileService::cacheKey("0000000000000000.0000000000000001",
                                     base),
            baseKey);
  // lang is a transport detail, not a key dimension.
  RequestOptions kernelLang = base;
  kernelLang.lang = "kernel";
  EXPECT_EQ(CompileService::cacheKey(fp, kernelLang), baseKey);
}

TEST(CompileService, RepeatServesByteIdenticalFromCache) {
  CompileService service;
  CompileResponse cold = service.handle(dagText("a", "b", "c"),
                                        smallTarget());
  ASSERT_TRUE(cold.ok) << cold.payload;
  EXPECT_FALSE(cold.cacheHit);
  CompileResponse hit = service.handle(dagText("a", "b", "c"),
                                       smallTarget());
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.cacheHit);
  EXPECT_EQ(cold.payload, hit.payload);
  EXPECT_EQ(hit.compileUs, 0.0);
  const MetricsRegistry& metrics = service.metrics();
  EXPECT_EQ(metrics.counterValue("serve.hits"), 1u);
  EXPECT_EQ(metrics.counterValue("serve.misses"), 1u);
}

TEST(CompileService, EquivalentVariantsHitWithRebindingHeader) {
  CompileService service;
  CompileResponse cold = service.handle(dagText("a", "b", "c"),
                                        smallTarget());
  ASSERT_TRUE(cold.ok) << cold.payload;
  // Alpha-renamed and operand-commuted variants hit the same entry…
  CompileResponse renamed = service.handle(
      dagText("x", "y", "z", /*commuted=*/true), smallTarget());
  ASSERT_TRUE(renamed.ok) << renamed.payload;
  EXPECT_TRUE(renamed.cacheHit);
  EXPECT_EQ(renamed.key, cold.key);
  // …the cached body is byte-identical, only the binding header maps
  // the caller's names.
  EXPECT_EQ(bodyOf(cold.payload), bodyOf(renamed.payload));
  EXPECT_NE(cold.payload, renamed.payload);
  EXPECT_NE(renamed.payload.find("x->i"), std::string::npos);
}

TEST(CompileService, DirectModeShortCircuitsExactRepeats) {
  CompileService service;
  CompileResponse cold = service.handle(dagText("a", "b", "c"),
                                        smallTarget());
  ASSERT_TRUE(cold.ok) << cold.payload;
  EXPECT_FALSE(cold.direct);
  // Byte-identical repeat: served by the exact-source memo.
  CompileResponse repeat = service.handle(dagText("a", "b", "c"),
                                          smallTarget());
  ASSERT_TRUE(repeat.ok);
  EXPECT_TRUE(repeat.direct);
  EXPECT_TRUE(repeat.cacheHit);
  EXPECT_EQ(repeat.key, cold.key);
  EXPECT_EQ(repeat.payload, cold.payload);
  // Alpha-renamed variant: different bytes miss the memo but hit the
  // canonical cache.
  CompileResponse renamed = service.handle(dagText("p", "q", "r"),
                                           smallTarget());
  ASSERT_TRUE(renamed.ok);
  EXPECT_FALSE(renamed.direct);
  EXPECT_TRUE(renamed.cacheHit);
  const MetricsRegistry& metrics = service.metrics();
  EXPECT_EQ(metrics.counterValue("serve.hits"), 2u);
  EXPECT_EQ(metrics.counterValue("serve.direct_hits"), 1u);
  EXPECT_EQ(metrics.counterValue("serve.misses"), 1u);
}

TEST(CompileService, ConfigVariantsCompileSeparately) {
  CompileService service;
  RequestOptions reram = smallTarget();
  RequestOptions stt = smallTarget();
  stt.tech = "stt";
  ASSERT_TRUE(service.handle(dagText("a", "b", "c"), reram).ok);
  CompileResponse second = service.handle(dagText("a", "b", "c"), stt);
  ASSERT_TRUE(second.ok) << second.payload;
  EXPECT_FALSE(second.cacheHit);
  EXPECT_EQ(service.metrics().counterValue("serve.misses"), 2u);
}

TEST(CompileService, SingleFlightCompilesOnceUnderThreadPool) {
  // Eight identical concurrent requests must perform exactly one
  // compile: whoever loses the in-flight race either waits on the
  // builder's future (coalesced) or finds the cache populated (hit) —
  // both orderings are legal, a second compile is not. The hook holds
  // the builder until most requests entered the service (or a timeout,
  // under pathological scheduling), maximizing the overlap actually
  // exercised.
  ServiceOptions options;
  CompileService* svc = nullptr;
  options.onColdCompile = [&](const std::string&) {
    for (int spin = 0; spin < 2000; ++spin) {
      if (svc->metrics().counterValue("serve.requests") >= 6) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  CompileService service(options);
  svc = &service;

  const std::string source = dagText("a", "b", "c");
  ThreadPool pool(8);
  std::vector<CompileResponse> responses(8);
  pool.parallelFor(8, [&](int64_t i) {
    responses[static_cast<size_t>(i)] =
        service.handle(source, smallTarget());
  });
  for (const CompileResponse& r : responses)
    ASSERT_TRUE(r.ok) << r.payload;
  for (size_t i = 1; i < responses.size(); ++i)
    EXPECT_EQ(responses[0].payload, responses[i].payload);
  const MetricsRegistry& metrics = service.metrics();
  EXPECT_EQ(metrics.counterValue("serve.misses"), 1u)
      << "single-flight violated";
  EXPECT_EQ(metrics.counterValue("serve.hits") +
                metrics.counterValue("serve.coalesced"),
            7u);
}

TEST(CompileService, ErrorsAreReportedAndNotCached) {
  CompileService service;
  CompileResponse bad =
      service.handle("op AND 0 1\n", smallTarget());  // undeclared ids
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.payload.find("error:"), std::string::npos);
  EXPECT_EQ(service.metrics().counterValue("serve.errors"), 1u);
  EXPECT_EQ(service.metrics().counterValue("serve.misses"), 0u);
  // Unknown options fail loudly too.
  RequestOptions weird = smallTarget();
  weird.emit = "hologram";
  EXPECT_FALSE(service.handle(dagText("a", "b", "c"), weird).ok);
}

TEST(CompileService, OversizedTargetFailsBeforeAllocatingItsFaultMap) {
  // A fault map is one byte per cell of 16 arrays: 1 GiB at 8192^2. The
  // flow rejects the dimension before it allocates anything.
  CompileService service;
  RequestOptions huge = smallTarget();
  huge.targetDim = 8192;
  huge.faultDensity = 0.01;
  auto start = std::chrono::steady_clock::now();
  CompileResponse response = service.handle(dagText("a", "b", "c"), huge);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, "compile_error");
  EXPECT_NE(response.payload.find("outside [1, 4096]"), std::string::npos)
      << response.payload;
  EXPECT_LT(ms, 1000.0);
}

TEST(CompileSetup, ConvertsRequestOptionsAndRejectsUnknownNames) {
  RequestOptions o;
  o.targetDim = 256;
  o.tech = "stt";
  o.strategy = "naive";
  o.mra = 4;
  o.fraction = 0.5;
  o.faultDensity = 0.01;
  o.spareRows = 8;
  o.aggressive = true;
  CompileSetup setup = compileSetup(o);
  EXPECT_EQ(setup.target.rows(), 256);
  EXPECT_EQ(setup.target.tech.tech, device::Technology::SttMram);
  EXPECT_EQ(setup.target.maxActivatedRows, 4);
  EXPECT_EQ(setup.flow.strategy, mapping::Strategy::Naive);
  EXPECT_EQ(setup.flow.fraction, 0.5);
  EXPECT_EQ(setup.flow.faultDensity, 0.01);
  EXPECT_EQ(setup.flow.spareRows, 8);
  EXPECT_TRUE(setup.flow.foldInverters);
  EXPECT_FALSE(setup.flow.nandLower);

  RequestOptions nieve;
  nieve.strategy = "nieve";
  EXPECT_THROW(compileSetup(nieve), Error);
  RequestOptions dot;
  dot.emit = "dot";
  EXPECT_THROW(compileSetup(dot), Error);  // the service emits asm|stats
  EXPECT_NO_THROW(compileSetup(dot, {"asm", "dot"}));
  RequestOptions tech;
  tech.tech = "dram";
  EXPECT_THROW(compileSetup(tech), Error);
}

TEST(CompileService, CapacityZeroAlwaysColdCompiles) {
  ServiceOptions options;
  options.cacheCapacity = 0;
  CompileService service(options);
  CompileResponse first = service.handle(dagText("a", "b", "c"),
                                         smallTarget());
  CompileResponse second = service.handle(dagText("a", "b", "c"),
                                          smallTarget());
  ASSERT_TRUE(first.ok && second.ok);
  EXPECT_FALSE(second.cacheHit);
  EXPECT_EQ(first.payload, second.payload);  // still byte-identical
  EXPECT_EQ(service.metrics().counterValue("serve.misses"), 2u);
}

namespace {

/// Runs one protocol session over stringstreams and returns the output.
std::string runSession(const std::string& script,
                       CompileService& service) {
  std::istringstream in(script);
  std::ostringstream out;
  ServeLoopOptions options;
  options.defaults = smallTarget();
  options.threads = 2;
  runServeLoop(in, out, service, options);
  return out.str();
}

/// Extracts the payload of `RESP <id> ...` using its bytes= field.
std::string payloadOf(const std::string& output, const std::string& id) {
  std::string marker = "RESP " + id + " ";
  size_t pos = output.find(marker);
  EXPECT_NE(pos, std::string::npos) << output;
  size_t bytesPos = output.find("bytes=", pos);
  size_t lineEnd = output.find('\n', pos);
  EXPECT_LT(bytesPos, lineEnd);
  size_t n = std::stoul(output.substr(bytesPos + 6));
  return output.substr(lineEnd + 1, n);
}

}  // namespace

TEST(ServeProtocol, BatchSessionHitsAndByteIdenticalPayloads) {
  CompileService service;
  std::string script = "REQ one\n" + dagText("a", "b", "c") +
                       "END\nFLUSH\nREQ two\n" + dagText("a", "b", "c") +
                       "END\nSTATS\nQUIT\n";
  std::string out = runSession(script, service);
  EXPECT_NE(out.find("RESP one ok hit=0"), std::string::npos) << out;
  EXPECT_NE(out.find("RESP two ok hit=1"), std::string::npos) << out;
  EXPECT_EQ(payloadOf(out, "one"), payloadOf(out, "two"));
  EXPECT_NE(out.find("STATS-RESP bytes="), std::string::npos);
  // STATS speaks the unified MetricsRegistry schema.
  EXPECT_NE(out.find("\"schema_version\": 1"), std::string::npos) << out;
  EXPECT_NE(out.find("\"serve.hits\": 1"), std::string::npos) << out;
}

TEST(ServeProtocol, PerRequestOptionsAndErrors) {
  CompileService service;
  std::string script =
      // Unknown option: request-level error, session continues.
      "REQ bad mystery=1\n" + dagText("a", "b", "c") + "END\n" +
      // Valid per-request override.
      "REQ stt tech=stt\n" + dagText("a", "b", "c") + "END\n" +
      "BOGUS-DIRECTIVE\n"
      "FLUSH\nQUIT\n";
  std::string out = runSession(script, service);
  EXPECT_NE(out.find("RESP bad error"), std::string::npos) << out;
  EXPECT_NE(out.find("unknown option 'mystery'"), std::string::npos);
  EXPECT_NE(out.find("RESP stt ok"), std::string::npos) << out;
  EXPECT_NE(out.find("tech=stt"), std::string::npos);
  EXPECT_NE(out.find("PROTOCOL-ERROR unknown directive"),
            std::string::npos);
}

TEST(ServeProtocol, IntegersThatDoNotFitAreBadOptions) {
  // Narrowed to int, target=4294967360 would read as 64 and
  // mra=4294967298 as 2; a negative seed would wrap to a huge one.
  CompileService service;
  std::string script;
  for (const char* option : {"target=4294967360", "mra=4294967298",
                             "spare-rows=-4294967295", "fault-seed=-1"})
    script += strCat("REQ r lang=dag ", option, "\n", dagText("a", "b", "c"),
                     "END\n");
  std::string out = runSession(script + "FLUSH\nQUIT\n", service);
  size_t badOptions = 0;
  for (size_t pos = 0;
       (pos = out.find("RESP r error code=bad_option", pos)) !=
       std::string::npos;
       ++pos)
    ++badOptions;
  EXPECT_EQ(badOptions, 4u) << out;
  EXPECT_NE(out.find("target value 4294967360 is outside [-2147483648, "
                     "2147483647]"),
            std::string::npos)
      << out;
  EXPECT_EQ(service.metrics().counterValue("serve.requests"), 0u);
}

TEST(ServeProtocol, FaultSeedAcceptsOneRangeForBothFrontEnds) {
  // sherlockc's --fault-seed goes through the same parser, so both front
  // ends take [0, LONG_MAX] and neither wraps nor caps a seed at int.
  RequestOptions o;
  EXPECT_THROW(applyOption(o, "fault-seed", "-1"), Error);
  EXPECT_THROW(applyOption(o, "fault-seed", "9223372036854775808"), Error);
  EXPECT_EQ(o.faultSeed, RequestOptions{}.faultSeed);
  applyOption(o, "fault-seed", "4294967296");
  EXPECT_EQ(o.faultSeed, 4294967296u);
  applyOption(o, "fault-seed", "9223372036854775807");
  EXPECT_EQ(o.faultSeed, 9223372036854775807u);
}

TEST(ServeProtocol, TruncatedRequestReportsInsteadOfCompiling) {
  CompileService service;
  std::string out =
      runSession("REQ cut\ninput a\n", service);  // EOF before END
  EXPECT_NE(out.find("RESP cut error"), std::string::npos) << out;
  EXPECT_NE(out.find("truncated request"), std::string::npos);
  EXPECT_EQ(service.metrics().counterValue("serve.misses"), 0u);
}

TEST(ServeProtocol, EofFlushesPendingBatch) {
  CompileService service;
  // No FLUSH/QUIT: EOF must still compile and respond.
  std::string out =
      runSession("REQ tail\n" + dagText("a", "b", "c") + "END\n", service);
  EXPECT_NE(out.find("RESP tail ok"), std::string::npos) << out;
}

TEST(ServeSocket, SessionOverSocketpair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  CompileService service;
  ServeLoopOptions options;
  options.defaults = smallTarget();
  options.threads = 1;

  std::thread server([&] { serveFd(fds[0], service, options); });

  std::string script =
      "REQ s1\n" + dagText("a", "b", "c") + "END\nQUIT\n";
  ASSERT_EQ(::write(fds[1], script.data(), script.size()),
            static_cast<ssize_t>(script.size()));
  // Read until the server closes its side of the session (QUIT).
  std::string out;
  char buf[4096];
  ssize_t n;
  server.join();  // session is done; the data waits in the socket buffer
  ::shutdown(fds[0], SHUT_WR);
  while ((n = ::read(fds[1], buf, sizeof(buf))) > 0)
    out.append(buf, static_cast<size_t>(n));
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_NE(out.find("RESP s1 ok"), std::string::npos) << out;
  EXPECT_EQ(service.metrics().counterValue("serve.requests"), 1u);
}

namespace {

/// Connects a unix stream socket to `path`; -1 on failure.
int connectUnix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

TEST(ServeSocket, ClientDisconnectMidRequestDoesNotKillTheServer) {
  std::string path = ::testing::TempDir() + "sherlock_serve_sock_" +
                     std::to_string(::getpid());
  ::unlink(path.c_str());
  CompileService service;
  ServeLoopOptions options;
  options.defaults = smallTarget();
  options.threads = 1;
  std::thread server(
      [&] { runUnixSocketServer(path, service, options); });

  // Wait for the listener to come up.
  int victim = -1;
  for (int spin = 0; spin < 2000 && victim < 0; ++spin) {
    victim = connectUnix(path);
    if (victim < 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(victim, 0) << "server never bound " << path;

  // Session 1: start a request, then vanish before END. The daemon
  // sees EOF mid-body (a truncated request) and its response write
  // lands in a dead socket — neither may take the server down.
  std::string partial = "REQ dead\ninput a\n";
  ASSERT_EQ(::write(victim, partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));
  ::close(victim);

  // Session 2: a well-formed request must still be served, proving the
  // accept loop recovered.
  int client = -1;
  for (int spin = 0; spin < 2000 && client < 0; ++spin) {
    client = connectUnix(path);
    if (client < 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(client, 0);
  std::string script =
      "REQ alive\n" + dagText("a", "b", "c") + "END\nSHUTDOWN\n";
  ASSERT_EQ(::write(client, script.data(), script.size()),
            static_cast<ssize_t>(script.size()));
  ::shutdown(client, SHUT_WR);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(client, buf, sizeof(buf))) > 0)
    out.append(buf, static_cast<size_t>(n));
  ::close(client);
  server.join();
  EXPECT_NE(out.find("RESP alive ok"), std::string::npos) << out;
}
