// perfbench: the end-to-end benchmark harness of the toolchain.
//
//   perfbench --workload paper-batch|serve-mix|faulty-guarded
//             --seed N --seconds S --trace 0|1
//             [--root DIR] [--trace-out FILE]
//
// Prints one JSON object as the last line of stdout: the metrics with
// their units, the determinism record, and the attempted/failed
// operation counts. Exits 1 when any operation failed. perfbench/run.py
// builds this binary, runs it, compares the determinism record across
// runs and selects the metrics BENCHMARK.json names.
#include <iostream>
#include <string>

#include "runs.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload paper-batch|serve-mix|"
               "faulty-guarded --seed N --seconds S --trace 0|1 "
               "[--root DIR] [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      std::string value = argv[++i];
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = value == "1";
      else if (flag == "--root") args.root = value;
      else if (flag == "--trace-out") args.traceOut = value;
      else return usage("unknown flag " + flag);
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  perfbench::Report report;
  try {
    if (args.workload == "paper-batch")
      perfbench::runPaperBatch(args, report);
    else if (args.workload == "faulty-guarded")
      perfbench::runFaultyGuarded(args, report);
    else if (args.workload == "serve-mix")
      perfbench::runServeMix(args, report);
    else
      return usage("unknown workload '" + args.workload + "'");
  } catch (const std::exception& e) {
    report.fail(std::string("harness error: ") + e.what());
  }
  std::cout << report.json() << std::endl;
  return report.failed() == 0 ? 0 : 1;
}
