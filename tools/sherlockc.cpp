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
#include "ir/analysis.h"
#include "ir/dot.h"
#include "ir/serialize.h"
#include "mapping/compiler.h"
#include "mapping/program_analysis.h"
#include "sim/simulator.h"
#include "support/failpoint.h"
#include "support/parallel.h"
#include "support/trace.h"
#include "verify/verifier.h"
#include "transforms/nand_lowering.h"
#include "transforms/passes.h"
#include "transforms/substitution.h"

using namespace sherlock;

namespace {

struct Options {
  std::vector<std::string> inputFiles;
  std::string emit = "asm";  // asm | dot | dag | stats | sim | faultmap
  int targetDim = 512;
  std::string tech = "reram";
  std::string strategy = "opt";
  int mra = 2;
  double fraction = 1.0;
  bool nandLower = false;
  bool aggressive = false;  // -O: inverter folding pipeline
  bool verify = false;      // --verify: static program verification
  int jobs = 0;             // 0: SHERLOCK_THREADS / hardware default
  // Fault tolerance: a positive density generates a persistent fault map
  // (stuck cells at the given density plus weak cells at half of it),
  // placement avoids it, and --emit sim honors it.
  double faultDensity = 0.0;
  int faultSeed = 1;
  int spareRows = 0;   // per-column spare rows reserved for repair
  bool guarded = false;  // --emit sim: guarded Monte-Carlo execution
  // Compile-service daemon mode (src/serve): a long-running process
  // accepting kernels over the newline-delimited batch protocol, with a
  // content-addressed LRU compile cache and single-flight dedup. The
  // flags above become the daemon-wide request defaults.
  bool serve = false;       // --serve: daemon on stdin/stdout
  std::string socketPath;   // --socket: serve on a unix socket instead
  int cacheSize = 256;      // --cache-size: LRU capacity (0 disables)
  std::string metricsOut;   // --metrics-out: JSON metrics on shutdown
  // Resilience knobs (Issue 10): deadlines, backpressure bounds,
  // graceful-drain grace, crash-safe cache persistence, and the
  // deterministic fault-injection harness.
  double defaultDeadlineMs = 0;   // --default-deadline-ms (0 = none)
  int maxInflight = 0;            // --max-inflight (0 = --jobs/default)
  int maxQueue = 1024;            // --max-queue admission bound
  int maxRequestBytes = 4 << 20;  // --max-request-bytes
  int retryAfterMs = 25;          // --retry-after-ms BUSY hint
  double drainDeadlineMs = 2000;  // --drain-deadline-ms
  std::string cachePersist;       // --cache-persist snapshot path
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
         "  --emit asm|dot|dag|stats|sim|faultmap\n"
         "                             output kind (default asm)\n"
         "  --target <N>               square array dimension (default 512)\n"
         "  --tech reram|stt|pcm       NVM technology (default reram)\n"
         "  --strategy opt|naive       mapping algorithm (default opt)\n"
         "  --mra <k>                  max activated rows; k > 2 enables\n"
         "                             node substitution (default 2)\n"
         "  --fraction <f>             substitution budget in [0,1]\n"
         "  --nand                     lower XOR/OR to NAND form first\n"
         "  --verify                   statically verify the compiled\n"
         "                             program (ISA/array rules + DAG\n"
         "                             equivalence) and report violations\n"
         "  --jobs <N>                 compile input files with N parallel\n"
         "                             workers (default: SHERLOCK_THREADS\n"
         "                             or hardware concurrency)\n"
         "  --fault-density <f>        persistent cell-fault density: f\n"
         "                             stuck + f/2 weak cells; placement\n"
         "                             avoids them (default 0 = perfect)\n"
         "  --fault-seed <N>           fault map generation seed\n"
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
    if (arg == "--emit") o.emit = next();
    else if (arg == "--target") o.targetDim = nextInt();
    else if (arg == "--tech") o.tech = next();
    else if (arg == "--strategy") o.strategy = next();
    else if (arg == "--mra") o.mra = nextInt();
    else if (arg == "--fraction") o.fraction = nextDouble();
    else if (arg == "--jobs") o.jobs = nextInt();
    else if (arg == "--fault-density") o.faultDensity = nextDouble();
    else if (arg == "--fault-seed") o.faultSeed = nextInt();
    else if (arg == "--spare-rows") o.spareRows = nextInt();
    else if (arg == "--guarded") o.guarded = true;
    else if (arg == "--nand") o.nandLower = true;
    else if (arg == "--verify") o.verify = true;
    else if (arg == "-O") o.aggressive = true;
    else if (arg == "--serve") o.serve = true;
    else if (arg == "--socket") o.socketPath = next();
    else if (arg == "--cache-size") o.cacheSize = nextInt();
    else if (arg == "--metrics-out") o.metricsOut = next();
    else if (arg == "--default-deadline-ms") o.defaultDeadlineMs = nextDouble();
    else if (arg == "--max-inflight") o.maxInflight = nextInt();
    else if (arg == "--max-queue") o.maxQueue = nextInt();
    else if (arg == "--max-request-bytes") o.maxRequestBytes = nextInt();
    else if (arg == "--retry-after-ms") o.retryAfterMs = nextInt();
    else if (arg == "--drain-deadline-ms") o.drainDeadlineMs = nextDouble();
    else if (arg == "--cache-persist") o.cachePersist = next();
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

device::TechnologyParams techFor(const std::string& name) {
  if (name == "reram") return device::TechnologyParams::reRam();
  if (name == "stt") return device::TechnologyParams::sttMram();
  if (name == "pcm") return device::TechnologyParams::pcm();
  throw Error(strCat("unknown technology '", name, "'"));
}

/// Compiles one kernel file and returns the emitted text. Throws Error
/// on any failure; thread-safe (no shared mutable state).
std::string processFile(const std::string& inputFile, const Options& opts) {
  std::ifstream in(inputFile);
  if (!in) throw Error(strCat("cannot open ", inputFile));
  std::stringstream source;
  source << in.rdbuf();

  ir::Graph g = transforms::canonicalize(
      frontend::compileKernel(source.str()));
  if (opts.aggressive) g = transforms::foldInverters(g);
  if (opts.nandLower)
    g = transforms::canonicalize(transforms::lowerToNand(g));

  transforms::SubstitutionStats substitution;
  if (opts.mra > 2) {
    transforms::SubstitutionOptions sopt;
    sopt.maxOperands = opts.mra;
    sopt.fraction = opts.fraction;
    auto sub = transforms::substituteNodes(g, sopt);
    g = std::move(sub.graph);
    substitution = sub.stats;
  }

  std::ostringstream out;
  if (opts.emit == "dot") {
    out << ir::toDot(g, "kernel");
    return out.str();
  }
  if (opts.emit == "dag") {
    out << ir::graphToText(g);
    return out.str();
  }

  isa::TargetSpec target = isa::TargetSpec::square(
      opts.targetDim, techFor(opts.tech), opts.mra);

  std::optional<device::FaultMap> faultMap;
  if (opts.faultDensity > 0.0) {
    device::FaultMapOptions fo;
    fo.seed = static_cast<uint64_t>(opts.faultSeed);
    fo.stuckDensity = opts.faultDensity;
    fo.weakDensity = opts.faultDensity * 0.5;
    faultMap = device::FaultMap::generate(target.numArrays, target.rows(),
                                          target.cols(), fo);
  }
  if (opts.emit == "faultmap") {
    out << (faultMap ? *faultMap
                     : device::FaultMap(target.numArrays, target.rows(),
                                        target.cols()))
               .toText();
    return out.str();
  }

  mapping::CompileOptions copts;
  copts.strategy = opts.strategy == "naive" ? mapping::Strategy::Naive
                                            : mapping::Strategy::Optimized;
  copts.faults.map = faultMap ? &*faultMap : nullptr;
  copts.faults.spareRows = opts.spareRows;
  // With --verify we run the verifier ourselves (full report below)
  // instead of the facade's first-violation throw.
  if (opts.verify) copts.verify = false;
  mapping::CompileResult compiled;
  try {
    compiled = mapping::compile(g, target, copts);
  } catch (const MappingError& e) {
    if (!copts.faults.active()) throw;
    throw Error(strCat(
        "fault-aware placement failed: ", e.what(), "\n  fault map: seed ",
        opts.faultSeed, ", ", faultMap ? faultMap->stuckCellCount() : 0,
        " stuck + ", faultMap ? faultMap->weakCellCount() : 0,
        " weak cells (density ", opts.faultDensity, "), ", opts.spareRows,
        " spare rows per column\n  hint: raise --spare-rows, lower "
        "--fault-density, or enlarge --target"));
  }

  if (opts.verify) {
    verify::VerifyOptions vopts;
    vopts.faultMap = copts.faults.map;
    vopts.spareRows = copts.faults.spareRows;
    verify::VerifyResult vr =
        verify::verifyProgram(g, target, compiled.program, vopts);
    if (!vr.ok())
      throw Error(strCat("verification failed (", vr.violations.size(),
                         " violation", vr.violations.size() == 1 ? "" : "s",
                         "):\n", vr.summary()));
    out << "# verify: ok (" << vr.checkedInstructions
        << " instructions checked)\n";
  }

  if (opts.emit == "asm") {
    out << "# sherlockc: " << inputFile << " -> " << target.tech.name << " "
        << opts.targetDim << "x" << opts.targetDim << ", " << opts.strategy
        << " mapping\n"
        << isa::toAssembly(compiled.program.instructions);
    return out.str();
  }
  if (opts.emit == "stats") {
    const auto& s = compiled.program.stats;
    mapping::ProgramAnalysis analysis =
        mapping::analyzeProgram(compiled.program);
    out << "DAG:            " << g.opCount() << " ops, " << g.valueCount()
        << " values, critical path " << ir::criticalPathLength(g) << "\n";
    if (opts.mra > 2)
      out << "substitution:   " << substitution.applied << "/"
          << substitution.candidates << " merges, " << substitution.wideOps
          << " wide ops\n";
    out << "merged:         " << s.mergedInstructions << "\n"
        << "columns used:   " << compiled.program.usedColumns
        << ", peak live cells: " << compiled.program.peakLiveCells << "\n";
    if (copts.faults.active())
      out << "fault repair:   " << s.spareRowAllocations
          << " spare-row allocations ("
          << (faultMap ? faultMap->stuckCellCount() : 0) << " stuck + "
          << (faultMap ? faultMap->weakCellCount() : 0)
          << " weak cells avoided)\n";
    if (copts.strategy == mapping::Strategy::Optimized)
      out << "clusters:       " << compiled.clustering.clusters.size()
          << " (cross edges " << compiled.clustering.crossClusterEdges
          << ")\n"
          << "CIM reads:      " << analysis.cimReads << " (round floor "
          << s.roundFloor << ")\n";
    out << "\n" << analysis.toString();
    return out.str();
  }
  if (opts.emit == "sim") {
    sim::SimOptions sopts;
    sopts.faultMap = faultMap ? &*faultMap : nullptr;
    if (opts.guarded) {
      sopts.guardedExecution = true;
      sopts.injectFaults = true;
      sopts.faultSeed = static_cast<uint64_t>(opts.faultSeed);
    }
    auto result = sim::simulate(g, target, compiled.program, sopts);
    out << "latency:  " << result.latencyNs / 1000.0 << " us ("
        << result.stallNs / 1000.0 << " us stalled)\n"
        << "energy:   " << result.energyPj / 1e6 << " uJ\n"
        << "P_app:    " << result.pApp << " over " << result.cimColumnOps
        << " CIM column-ops\n"
        << "verified: " << (result.verified ? "yes" : "no") << "\n";
    if (sopts.faultMap || opts.guarded)
      out << "faults:   " << result.guardedOps << " guarded ops, "
          << result.retriedOps << " retries, " << result.degradedOps
          << " degraded, " << result.stuckCellReads
          << " stuck-cell reads, "
          << compiled.program.stats.spareRowAllocations
          << " spare-row repairs\n";
    return out.str();
  }
  throw Error(strCat("unknown --emit kind '", opts.emit, "'"));
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
  serve::ServiceOptions sopts;
  sopts.cacheCapacity =
      opts.cacheSize < 0 ? 0 : static_cast<size_t>(opts.cacheSize);
  serve::CompileService service(sopts);

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

  if (!opts.cachePersist.empty()) {
    serve::PersistResult warm = service.loadCache(opts.cachePersist);
    if (warm.entries || warm.dropped)
      std::cerr << "sherlockc: cache snapshot " << opts.cachePersist
                << ": " << warm.entries << " entries warmed, "
                << warm.dropped << " dropped\n";
  }

  installStopHandlers();

  serve::ServeLoopOptions lopts;
  lopts.threads = opts.jobs;
  lopts.maxInflight = opts.maxInflight;
  lopts.maxQueue =
      opts.maxQueue < 0 ? 0 : static_cast<size_t>(opts.maxQueue);
  lopts.maxRequestBytes = opts.maxRequestBytes < 1
                              ? 1
                              : static_cast<size_t>(opts.maxRequestBytes);
  lopts.retryAfterMs = opts.retryAfterMs;
  lopts.drainDeadlineMs = opts.drainDeadlineMs;
  lopts.cachePersistPath = opts.cachePersist;
  lopts.stop = &gStopRequested;
  lopts.defaults.deadlineMs = opts.defaultDeadlineMs;
  lopts.defaults.targetDim = opts.targetDim;
  lopts.defaults.tech = opts.tech;
  lopts.defaults.strategy = opts.strategy;
  lopts.defaults.mra = opts.mra;
  lopts.defaults.fraction = opts.fraction;
  lopts.defaults.faultDensity = opts.faultDensity;
  lopts.defaults.faultSeed = static_cast<uint64_t>(opts.faultSeed);
  lopts.defaults.spareRows = opts.spareRows;
  lopts.defaults.nandLower = opts.nandLower;
  lopts.defaults.aggressive = opts.aggressive;

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
  if (!opts.cachePersist.empty() && service.cacheDirty())
    service.saveCache(opts.cachePersist);

  serve::ServiceStats stats = service.stats();
  std::cerr << "sherlockc: served " << stats.counters.requests
            << " requests (" << stats.counters.hits << " hits, "
            << stats.counters.misses << " compiles, "
            << stats.counters.coalesced << " coalesced, "
            << stats.counters.errors << " errors, "
            << stats.counters.evictions << " evictions; hit rate "
            << stats.counters.hitRate() << ")\n";
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
          r.text = processFile(file, opts);
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
