// Declarative sweep harness for the benchmark drivers.
//
// A bench expresses its evaluation as a flat list of SweepJob entries
// (workload name + RunConfig) built in the exact order its tables will
// consume them, then calls runSweep() once: every compile + simulate job
// executes concurrently on the shared thread pool and the results come
// back in input order. Because each job is a pure function of its config
// (all RNG use inside the pipeline is seeded per job, never shared),
// output tables are byte-identical for any SHERLOCK_THREADS value.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench/common.h"
#include "support/parallel.h"

namespace sherlock::bench {

/// One sweep entry: which workload to run and how to run it.
struct SweepJob {
  std::string workload;
  RunConfig config;
};

/// Short human-readable label for error messages.
inline std::string configLabel(const std::string& workload,
                               const RunConfig& cfg) {
  return strCat(workload, " ", device::technologyName(cfg.tech), " ",
                cfg.arrayDim, "x", cfg.arrayDim,
                cfg.flow.strategy == mapping::Strategy::Optimized ? " opt"
                                                                  : " naive",
                " mra", cfg.mra);
}

/// Runs every job's pipeline concurrently and returns the results in
/// input order. Each distinct workload graph is built once and shared
/// read-only by all jobs that reference it. When `requireVerified` is
/// set (the default), a job whose simulation fails functional
/// verification aborts the sweep with an Error naming the configuration.
inline std::vector<RunResult> runSweep(const std::vector<SweepJob>& jobs,
                                       bool requireVerified = true) {
  std::vector<std::string> names;
  for (const SweepJob& j : jobs)
    if (std::find(names.begin(), names.end(), j.workload) == names.end())
      names.push_back(j.workload);
  std::vector<ir::Graph> built =
      parallelMap(names, [](const std::string& n) { return makeWorkload(n); });
  std::map<std::string, const ir::Graph*> graphs;
  for (size_t i = 0; i < names.size(); ++i)
    graphs.emplace(names[i], &built[i]);

  return parallelMap(jobs, [&](const SweepJob& j) {
    RunResult r = runPipeline(*graphs.at(j.workload), j.config);
    if (requireVerified && !r.sim.verified)
      throw Error(strCat("verification failed: ",
                         configLabel(j.workload, j.config)));
    return r;
  });
}

}  // namespace sherlock::bench
