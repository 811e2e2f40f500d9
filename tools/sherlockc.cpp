// sherlockc — the Sherlock command-line compiler driver.
//
// Compiles kernels written in the Sherlock kernel language (see
// src/frontend/parser.h for the grammar) down to CIM instructions and
// optionally simulates them:
//
//   sherlockc kernel.sk                      # print CIM assembly
//   sherlockc --emit dot kernel.sk           # DAG in graphviz format
//   sherlockc --emit stats kernel.sk         # mapping statistics
//   sherlockc --emit sim kernel.sk           # simulate (random inputs)
//   sherlockc --target 1024 --tech stt --strategy naive kernel.sk
//   sherlockc --mra 4 --nand kernel.sk       # MRA merging + NAND lowering
//   sherlockc --jobs 8 a.sk b.sk c.sk        # batch-compile in parallel
//
// With multiple input files the outputs are printed in command-line
// order, each under a `# ==> file <==` banner, regardless of which job
// finishes first; --jobs bounds the worker count (default: the
// SHERLOCK_THREADS / hardware default).
#include <algorithm>
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "device/faultmap.h"
#include "frontend/lowering.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/socket.h"
#include "ir/dot.h"
#include "ir/serialize.h"
#include "mapping/flow.h"
#include "sim/simulator.h"
#include "support/failpoint.h"
#include "support/parallel.h"
#include "support/trace.h"

using namespace sherlock;

namespace {

struct Options {
  std::vector<std::string> inputFiles;
  // --emit and the compile flags (--target ... --spare-rows, --nand, -O,
  // --default-deadline-ms); under --serve, the daemon-wide defaults.
  serve::RequestOptions compile;
  int jobs = 0;             // 0: SHERLOCK_THREADS / hardware default
  bool guarded = false;  // --emit sim: guarded Monte-Carlo execution
  // Compile-service daemon mode (src/serve): a long-running process
  // accepting kernels over the newline-delimited batch protocol, with a
  // content-addressed LRU compile cache and single-flight dedup.
  bool serve = false;       // --serve: daemon on stdin/stdout
  std::string socketPath;   // --socket: serve on a unix socket instead
  serve::ServiceOptions service;  // --cache-size
  std::string metricsOut;   // --metrics-out: JSON metrics on shutdown
  // Resilience knobs: backpressure bounds, graceful-drain grace and
  // crash-safe cache persistence (--max-inflight ... --cache-persist),
  // and the deterministic fault-injection harness.
  serve::ServeLoopOptions loop;
  std::string failpoints;         // --failpoints spec (overrides env)
  int failpointSeed = 1;          // --failpoint-seed
  // Observability: --trace-out enables the process-wide span tracer and
  // writes a Chrome trace_event JSON (Perfetto / chrome://tracing) when
  // the batch — or the serve session — finishes. Set
  // SHERLOCK_TRACE_DETERMINISTIC=1 for byte-stable virtual-clock traces.
  std::string traceOut;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [options] <kernel.sk> [more.sk ...]\n"
         "Every compiled program is statically verified (ISA/array\n"
         "rules and DAG equivalence) before it is emitted; a violation\n"
         "fails the file and lists each broken rule.\n"
         "  --emit asm|dot|dag|stats|sim|faultmap\n"
         "                             output kind (default asm)\n"
         "  --target <N>               square array dimension (default 512)\n"
         "  --tech reram|stt|pcm       NVM technology (default reram)\n"
         "  --strategy opt|naive       mapping algorithm (default opt)\n"
         "  --mra <k>                  max activated rows; k > 2 enables\n"
         "                             node substitution (default 2)\n"
         "  --fraction <f>             substitution budget in [0,1]\n"
         "  --nand                     lower XOR/OR to NAND form first\n"
         "  --jobs <N>                 compile input files with N parallel\n"
         "                             workers (default: SHERLOCK_THREADS\n"
         "                             or hardware concurrency)\n"
         "  --fault-density <f>        persistent cell-fault density: f\n"
         "                             stuck + f/2 weak cells; placement\n"
         "                             avoids them (default 0 = perfect)\n"
         "  --fault-seed <N>           fault map generation seed, in\n"
         "                             [0, 2^63 - 1] (default 1)\n"
         "  --spare-rows <N>           spare rows per column reserved as\n"
         "                             repair targets (default 0)\n"
         "  --guarded                  with --emit sim: Monte-Carlo fault\n"
         "                             injection with guarded\n"
         "                             detect-and-retry execution\n"
         "  -O                         aggressive DAG optimization\n"
         "                             (inverter folding / De Morgan)\n"
         "  --serve                    compile-service daemon: accept\n"
         "                             kernels over the newline-delimited\n"
         "                             batch protocol on stdin (see\n"
         "                             src/serve/protocol.h) with a\n"
         "                             content-addressed LRU compile\n"
         "                             cache; other flags become the\n"
         "                             request defaults\n"
         "  --socket <path>            with --serve: listen on a unix\n"
         "                             socket instead of stdin\n"
         "  --cache-size <N>           cached programs held by the\n"
         "                             daemon's LRU (default 256;\n"
         "                             0 disables caching)\n"
         "  --metrics-out <path>       write the unified metrics JSON\n"
         "                             (counters/gauges/histograms)\n"
         "                             there on daemon shutdown\n"
         "  --default-deadline-ms <ms> daemon-wide per-request deadline;\n"
         "                             requests override with\n"
         "                             deadline-ms= (default 0 = none)\n"
         "  --max-inflight <N>         concurrent compiles before\n"
         "                             requests queue (default: --jobs)\n"
         "  --max-queue <N>            queued requests beyond which new\n"
         "                             ones are shed with BUSY\n"
         "                             (default 1024)\n"
         "  --max-request-bytes <N>    cap on one request's body; larger\n"
         "                             requests answer\n"
         "                             code=request_too_large\n"
         "                             (default 4194304)\n"
         "  --retry-after-ms <N>       backoff hint carried by BUSY\n"
         "                             responses (default 25)\n"
         "  --drain-deadline-ms <ms>   grace for in-flight requests when\n"
         "                             SIGTERM/SIGINT drains the daemon\n"
         "                             (default 2000)\n"
         "  --cache-persist <path>     crash-safe cache snapshot: warm\n"
         "                             the cache from <path> on startup\n"
         "                             (corrupt entries dropped, never\n"
         "                             fatal) and atomically rewrite it\n"
         "                             whenever a flush added entries\n"
         "  --failpoints <spec>        deterministic fault injection,\n"
         "                             e.g. parse:0.1,compile:err,\n"
         "                             io:delay50ms (overrides the\n"
         "                             SHERLOCK_FAILPOINTS env var)\n"
         "  --failpoint-seed <N>       seed for probabilistic failpoints\n"
         "                             (default 1)\n"
         "  --trace-out <path>         record spans across the compile\n"
         "                             pipeline (and daemon requests)\n"
         "                             and write Chrome trace_event JSON\n"
         "                             there on exit; load in Perfetto\n"
         "                             or chrome://tracing\n";
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage(argv[0]);
      return argv[i];
    };
    auto nextInt = [&]() -> int {
      std::string v = next();
      try {
        size_t pos = 0;
        int parsed = std::stoi(v, &pos);
        if (pos == v.size()) return parsed;
      } catch (const std::exception&) {
      }
      std::cerr << "sherlockc: error: " << arg << " expects an integer, got '"
                << v << "'\n";
      usage(argv[0]);
    };
    auto nextDouble = [&]() -> double {
      std::string v = next();
      try {
        size_t pos = 0;
        double parsed = std::stod(v, &pos);
        if (pos == v.size()) return parsed;
      } catch (const std::exception&) {
      }
      std::cerr << "sherlockc: error: " << arg << " expects a number, got '"
                << v << "'\n";
      usage(argv[0]);
    };
    if (arg == "--emit") o.compile.emit = next();
    else if (arg == "--target") o.compile.targetDim = nextInt();
    else if (arg == "--tech") o.compile.tech = next();
    else if (arg == "--strategy") o.compile.strategy = next();
    else if (arg == "--mra") o.compile.mra = nextInt();
    else if (arg == "--fraction") o.compile.fraction = nextDouble();
    else if (arg == "--jobs") o.jobs = nextInt();
    else if (arg == "--fault-density") o.compile.faultDensity = nextDouble();
    else if (arg == "--fault-seed") {
      // The protocol's fault-seed= parser: both front ends accept
      // [0, LONG_MAX] and reject the rest instead of wrapping it.
      std::string v = next();
      try {
        serve::applyOption(o.compile, "fault-seed", v);
      } catch (const Error& e) {
        std::cerr << "sherlockc: error: " << arg << ": " << e.what() << "\n";
        usage(argv[0]);
      }
    }
    else if (arg == "--spare-rows") o.compile.spareRows = nextInt();
    else if (arg == "--guarded") o.guarded = true;
    else if (arg == "--nand") o.compile.nandLower = true;
    else if (arg == "-O") o.compile.aggressive = true;
    else if (arg == "--serve") o.serve = true;
    else if (arg == "--socket") o.socketPath = next();
    else if (arg == "--cache-size")
      o.service.cacheCapacity = static_cast<size_t>(std::max(0, nextInt()));
    else if (arg == "--metrics-out") o.metricsOut = next();
    else if (arg == "--default-deadline-ms")
      o.compile.deadlineMs = nextDouble();
    else if (arg == "--max-inflight") o.loop.maxInflight = nextInt();
    else if (arg == "--max-queue")
      o.loop.maxQueue = static_cast<size_t>(std::max(0, nextInt()));
    else if (arg == "--max-request-bytes")
      o.loop.maxRequestBytes = static_cast<size_t>(std::max(1, nextInt()));
    else if (arg == "--retry-after-ms") o.loop.retryAfterMs = nextInt();
    else if (arg == "--drain-deadline-ms")
      o.loop.drainDeadlineMs = nextDouble();
    else if (arg == "--cache-persist") o.loop.cachePersistPath = next();
    else if (arg == "--failpoints") o.failpoints = next();
    else if (arg == "--failpoint-seed") o.failpointSeed = nextInt();
    else if (arg == "--trace-out") o.traceOut = next();
    else if (arg == "--help" || arg == "-h") usage(argv[0]);
    else if (!arg.empty() && arg[0] == '-') usage(argv[0]);
    else o.inputFiles.push_back(arg);
  }
  if (o.inputFiles.empty() && !o.serve) usage(argv[0]);
  return o;
}

/// Compiles one kernel file and returns the emitted text. Throws Error
/// on any failure; thread-safe (no shared mutable state).
std::string processFile(const std::string& inputFile, const Options& opts,
                        const serve::CompileSetup& setup) {
  std::ifstream in(inputFile);
  if (!in) throw Error(strCat("cannot open ", inputFile));
  std::stringstream source;
  source << in.rdbuf();

  const serve::RequestOptions& request = opts.compile;
  const isa::TargetSpec& target = setup.target;
  const mapping::FlowOptions& flow = setup.flow;
  ir::Graph g =
      mapping::prepareGraph(frontend::compileKernel(source.str()), flow);

  std::ostringstream out;
  if (request.emit == "dot" || request.emit == "dag") {
    g = mapping::substitute(std::move(g), target, flow).graph;
    out << (request.emit == "dot" ? ir::toDot(g, "kernel")
                                  : ir::graphToText(g));
    return out.str();
  }
  if (request.emit == "faultmap") {
    std::optional<device::FaultMap> faultMap =
        mapping::faultMapFor(target, flow);
    out << (faultMap ? *faultMap
                     : device::FaultMap(target.numArrays, target.rows(),
                                        target.cols()))
               .toText();
    return out.str();
  }

  mapping::FlowResult compiled =
      mapping::compilePrepared(std::move(g), target, flow);
  const mapping::Program& program = compiled.compiled.program;
  const device::FaultMap* faultMap =
      compiled.faultMap ? &*compiled.faultMap : nullptr;

  if (request.emit == "asm") {
    out << "# sherlockc: " << inputFile << " -> " << target.tech.name << " "
        << request.targetDim << "x" << request.targetDim << ", "
        << request.strategy << " mapping\n"
        << isa::toAssembly(program.instructions);
    return out.str();
  }
  if (request.emit == "stats") {
    out << mapping::statsText(compiled, target, flow);
    return out.str();
  }
  sim::SimOptions sopts;
  sopts.staticVerify = false;  // compilePrepared verified the program
  sopts.faultMap = faultMap;
  if (opts.guarded) {
    sopts.guardedExecution = true;
    sopts.injectFaults = true;
    sopts.faultSeed = request.faultSeed;
  }
  auto result = sim::simulate(compiled.graph, target, program, sopts);
  out << "latency:  " << result.latencyNs / 1000.0 << " us ("
      << result.stallNs / 1000.0 << " us stalled)\n"
      << "energy:   " << result.energyPj / 1e6 << " uJ\n"
      << "P_app:    " << result.pApp << " over " << result.cimColumnOps
      << " CIM column-ops\n"
      << "verified: " << (result.verified ? "yes" : "no") << "\n";
  if (sopts.faultMap || opts.guarded)
    out << "faults:   " << result.guardedOps << " guarded ops, "
        << result.retriedOps << " retries, " << result.degradedOps
        << " degraded, " << result.stuckCellReads << " stuck-cell reads, "
        << program.stats.spareRowAllocations << " spare-row repairs\n";
  return out.str();
}

/// Graceful-drain flag: SIGTERM/SIGINT flip it; the serve loop and the
/// socket accept loop poll it (their blocking syscalls see EINTR — the
/// handlers are installed without SA_RESTART on purpose).
std::atomic<bool> gStopRequested{false};

void onStopSignal(int) { gStopRequested.store(true); }

void installStopHandlers() {
  struct sigaction sa{};
  sa.sa_handler = onStopSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked accept/read must wake up
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

/// Daemon mode: run the compile service until EOF/QUIT/SHUTDOWN/signal,
/// then dump metrics (stderr always; --metrics-out additionally as
/// JSON) and persist the cache snapshot if --cache-persist is set.
int runServe(const Options& opts) {
  serve::CompileService service(opts.service);
  const std::string& cachePersist = opts.loop.cachePersistPath;

  // Fault injection: an explicit --failpoints spec wins; otherwise the
  // SHERLOCK_FAILPOINTS environment variable (if set) applies.
  try {
    if (!opts.failpoints.empty())
      failpoint::FailPoints::instance().configure(
          opts.failpoints, static_cast<uint64_t>(opts.failpointSeed));
    else
      failpoint::FailPoints::instance().configureFromEnv();
  } catch (const Error& e) {
    std::cerr << "sherlockc: bad failpoint spec: " << e.what() << "\n";
    return 2;
  }

  if (!cachePersist.empty()) {
    serve::PersistResult warm = service.loadCache(cachePersist);
    if (warm.entries || warm.dropped)
      std::cerr << "sherlockc: cache snapshot " << cachePersist
                << ": " << warm.entries << " entries warmed, "
                << warm.dropped << " dropped\n";
  }

  installStopHandlers();

  serve::ServeLoopOptions lopts = opts.loop;
  lopts.threads = opts.jobs;
  lopts.stop = &gStopRequested;
  lopts.defaults = opts.compile;

  try {
    if (!opts.socketPath.empty()) {
      std::cerr << "sherlockc: serving on " << opts.socketPath << "\n";
      serve::runUnixSocketServer(opts.socketPath, service, lopts);
    } else {
      serve::runServeLoop(std::cin, std::cout, service, lopts);
    }
  } catch (const Error& e) {
    std::cerr << "sherlockc: serve error: " << e.what() << "\n";
    return 1;
  }

  // Final snapshot: catches entries added by the last flush and the
  // drain path (flush-time persistence already covered steady state).
  if (!cachePersist.empty() && service.cacheDirty())
    service.saveCache(cachePersist);

  const MetricsRegistry& metrics = service.metrics();
  std::cerr << "sherlockc: served " << metrics.counterValue("serve.requests")
            << " requests (" << metrics.counterValue("serve.hits")
            << " hits, " << metrics.counterValue("serve.misses")
            << " compiles, " << metrics.counterValue("serve.coalesced")
            << " coalesced, " << metrics.counterValue("serve.errors")
            << " errors, " << metrics.gaugeValue("serve.evictions")
            << " evictions; hit rate " << metrics.gaugeValue("serve.hit_rate")
            << ")\n";
  if (failpoint::FailPoints::instance().enabled())
    for (const auto& [name, count] :
         failpoint::FailPoints::instance().allTriggers())
      std::cerr << "sherlockc: failpoint " << name << ": " << count
                << " triggers\n";
  if (!opts.metricsOut.empty()) {
    std::ofstream out(opts.metricsOut);
    if (!out) {
      std::cerr << "sherlockc: cannot write " << opts.metricsOut << "\n";
      return 1;
    }
    out << service.metricsJson();
  }
  if (!opts.traceOut.empty())
    trace::Tracer::instance().writeJson(opts.traceOut);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts = parseArgs(argc, argv);
  // Under --serve the flags are the request defaults, so they must name
  // what the service emits.
  serve::CompileSetup setup;
  try {
    setup = opts.serve ? serve::compileSetup(opts.compile)
                       : serve::compileSetup(opts.compile,
                                             {"asm", "dot", "dag", "stats",
                                              "sim", "faultmap"});
  } catch (const Error& e) {
    std::cerr << "sherlockc: error: " << e.what() << "\n";
    return 2;
  }
  if (!opts.traceOut.empty()) trace::Tracer::instance().enable();
  if (opts.serve) return runServe(opts);

  struct FileResult {
    std::string text;
    std::string error;
  };

  ThreadPool pool(opts.jobs);
  std::vector<FileResult> results =
      parallelMap(pool, opts.inputFiles, [&](const std::string& file) {
        // Each input file is one logical trace track, keyed by its
        // command-line position — the trace is identical whatever pool
        // thread (and --jobs value) ends up compiling it.
        trace::ScopedTrack track(
            static_cast<uint32_t>(&file - opts.inputFiles.data()) + 1,
            file);
        trace::Span span("batch", "compile_file");
        FileResult r;
        try {
          r.text = processFile(file, opts, setup);
        } catch (const Error& e) {
          r.error = e.what();
        }
        return r;
      });

  if (!opts.traceOut.empty())
    trace::Tracer::instance().writeJson(opts.traceOut);

  bool failed = false;
  for (size_t i = 0; i < results.size(); ++i) {
    if (opts.inputFiles.size() > 1)
      std::cout << "# ==> " << opts.inputFiles[i] << " <==\n";
    if (!results[i].error.empty()) {
      std::cerr << "sherlockc: error: " << opts.inputFiles[i] << ": "
                << results[i].error << "\n";
      failed = true;
      continue;
    }
    std::cout << results[i].text;
    if (opts.inputFiles.size() > 1 && i + 1 < results.size())
      std::cout << "\n";
  }
  return failed ? 1 : 0;
}
