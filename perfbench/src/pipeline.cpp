#include "pipeline.h"

#include <sstream>

#include "isa/instruction.h"
#include "mapping/codegen.h"
#include "mapping/naive_mapper.h"
#include "mapping/opt_mapper.h"
#include "verify/verifier.h"

namespace perfbench {

using namespace sherlock;

namespace {

std::string fingerprint(const std::string& asmText, const sim::SimResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << digest(asmText) << " lat=" << r.latencyNs << " e=" << r.energyPj
      << " papp=" << r.pApp << " insts=" << r.instructionCount
      << " injected=" << r.injectedFaults << " retried=" << r.retriedOps
      << " degraded=" << r.degradedOps
      << " corrupted=" << r.corruptedLanes();
  return out.str();
}

}  // namespace

std::optional<std::string> lowerAndSimulate(const std::string& label,
                                            const ir::Graph& g,
                                            const isa::TargetSpec& target,
                                            const LowerOptions& options,
                                            PassStats& pass, Report& report) {
  try {
    mapping::PlacementPlan plan;
    {
      LayerCall call("bench.mapping", "map", &pass.mapMs);
      plan = options.optimized
                 ? mapping::mapOptimized(g, target, {}, options.faults).plan
                 : mapping::mapNaive(g, target, options.faults);
    }
    mapping::CodegenOptions cg;
    cg.mergeInstructions = options.optimized;
    cg.eagerWriteback = !options.optimized;
    cg.reuseMovedCopies = options.optimized;
    cg.faults = options.faults;
    mapping::Program program;
    {
      LayerCall call("bench.mapping", "codegen", &pass.codegenMs);
      program = mapping::generateCode(g, target, plan, cg);
    }
    verify::VerifyResult verdict;
    {
      LayerCall call("bench.verify", "check", &pass.verifyMs);
      verify::VerifyOptions vopts;
      vopts.faultMap = options.faults.map;
      vopts.spareRows = options.faults.spareRows;
      verdict = verify::verifyProgram(g, target, program, vopts);
    }
    if (!verdict.ok()) {
      report.fail(strCat(label, ": verifier rejected the program\n",
                         verdict.summary()));
      return std::nullopt;
    }
    sim::SimOptions sopts = options.sim;
    // Verified above; the simulator's own static pass would repeat the
    // verifier inside the simulate timing.
    sopts.staticVerify = false;
    sim::SimResult r;
    {
      LayerCall call("bench.sim", "simulate", &pass.simMs);
      r = sim::simulate(g, target, program, sopts);
    }
    bool faultFree = sopts.faultMap == nullptr && !sopts.injectFaults;
    if (faultFree && !r.verified) {
      report.fail(strCat(label, ": simulated outputs differ from the IR "
                                "reference evaluator"));
      return std::nullopt;
    }

    pass.opsOut += static_cast<long>(g.opCount());
    const mapping::CodegenStats& s = program.stats;
    pass.codegen.plainReads += s.plainReads;
    pass.codegen.spillWrites += s.spillWrites;
    pass.codegen.shifts += s.shifts;
    pass.codegen.mergedInstructions += s.mergedInstructions;
    pass.codegen.chainedOperands += s.chainedOperands;
    pass.codegen.spareRowAllocations += s.spareRowAllocations;
    pass.checkedInsts += verdict.checkedInstructions;
    pass.simInstLanes +=
        static_cast<double>(r.instructionCount) * sopts.laneWords;
    pass.stallNs += r.stallNs;
    pass.busWaitNs += r.busWaitNs;
    pass.injectedFaults += r.injectedFaults;
    pass.retriedOps += r.retriedOps;
    pass.degradedOps += r.degradedOps;
    pass.latencyUs.push_back(r.latencyUs());
    pass.energyUj.push_back(r.energyUj());
    pass.pApp.push_back(r.pApp);
    pass.insts.push_back(static_cast<double>(program.instructions.size()));
    if (r.corruptedLanes() == 0) ++pass.cleanRuns;
    std::string asmText = isa::toAssembly(program.instructions);
    pass.fingerprints.push_back(fingerprint(asmText, r));
    return asmText;
  } catch (const std::exception& e) {
    report.fail(strCat(label, ": ", e.what()));
    return std::nullopt;
  }
}

double sumOfMedians(const std::vector<PassStats>& passes,
                    std::vector<double> PassStats::*each) {
  double total = 0;
  for (size_t i = 0; i < (passes.front().*each).size(); ++i) {
    std::vector<double> samples;
    for (const PassStats& p : passes)
      if (i < (p.*each).size()) samples.push_back((p.*each)[i]);
    total += median(samples);
  }
  return total;
}

void reportModeled(const PassStats& pass, Report& report) {
  auto count = [](long n) { return static_cast<double>(n); };
  double runs = static_cast<double>(pass.latencyUs.size());
  report.exact("model_latency_us", geomean(pass.latencyUs), "us");
  report.exact("model_energy_uj", geomean(pass.energyUj), "uJ");
  // P_app spans ten decades across programs, so a geomean would follow
  // the near-zero tail of the smallest kernels. The mean is the failure
  // probability of a program drawn at random from the workload.
  double pAppSum = 0;
  for (double p : pass.pApp) pAppSum += p;
  report.exact("model_p_app", runs > 0 ? pAppSum / runs : 0, "prob");
  report.exact("program_insts", geomean(pass.insts), "count");
  report.exact("guarded_yield", runs > 0 ? pass.cleanRuns / runs : 0,
               "fraction");
  report.exact("transforms.ops_out", count(pass.opsOut), "count");
  report.exact("mapping.plain_reads", count(pass.codegen.plainReads),
               "count");
  report.exact("mapping.spill_writes", count(pass.codegen.spillWrites),
               "count");
  report.exact("mapping.shifts", count(pass.codegen.shifts), "count");
  report.exact("mapping.merged", count(pass.codegen.mergedInstructions),
               "count");
  report.exact("mapping.chained", count(pass.codegen.chainedOperands),
               "count");
  report.exact("mapping.spare_repairs",
               count(pass.codegen.spareRowAllocations), "count");
  report.exact("verify.checked_insts", count(pass.checkedInsts), "count");
  report.exact("sim.stall_ns", pass.stallNs, "ns");
  report.exact("sim.bus_wait_ns", pass.busWaitNs, "ns");
  report.exact("sim.injected_faults", count(pass.injectedFaults), "count");
  report.exact("sim.retried_ops", count(pass.retriedOps), "count");
  report.exact("sim.degraded_ops", count(pass.degradedOps), "count");
}

void reportLayerTimes(const std::vector<PassStats>& passes, Report& report) {
  auto med = [&](double PassStats::*field) {
    std::vector<double> v;
    for (const PassStats& p : passes) v.push_back(p.*field);
    return median(v);
  };
  const PassStats& first = passes.front();
  double codegenMs = med(&PassStats::codegenMs);
  double simMs = med(&PassStats::simMs);
  report.metric("workloads.build_ms", med(&PassStats::buildMs), "ms");
  report.metric("frontend.compile_kernel_ms", med(&PassStats::frontendMs),
                "ms");
  report.metric("ir.canonical_ms", med(&PassStats::irMs), "ms");
  report.metric("transforms.canonicalize_ms",
                med(&PassStats::canonicalizeMs), "ms");
  report.metric("transforms.substitute_ms", med(&PassStats::substituteMs),
                "ms");
  report.metric("device.faultmap_ms", med(&PassStats::faultmapMs), "ms");
  report.metric("mapping.map_ms", med(&PassStats::mapMs), "ms");
  report.metric("mapping.codegen_ms", codegenMs, "ms");
  report.metric("mapping.codegen_us_per_op",
                first.opsOut > 0 ? codegenMs * 1000.0 / first.opsOut : 0,
                "us");
  report.metric("verify.ms", med(&PassStats::verifyMs), "ms");
  report.metric("sim.ms", simMs, "ms");
  report.metric("sim.ns_per_inst",
                first.simInstLanes > 0 ? simMs * 1e6 / first.simInstLanes
                                       : 0,
                "ns");
}

double layoutInitMs(const isa::TargetSpec& target,
                    const mapping::FaultPolicy& faults) {
  Clock::time_point start = Clock::now();
  mapping::Layout layout(target, faults);
  return msSince(start);
}

}  // namespace perfbench
