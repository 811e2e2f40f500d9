// Reproduces paper Fig. 7: energy-delay product (EDP) of the optimized
// CIM configurations versus the CPU baseline, across array sizes
// (128..1024, with the Table 1 data-width pairing) and technologies.
// Values are the EDP *gain* (CPU EDP / CIM EDP) — the paper reports up to
// three orders of magnitude. All 24 CIM configurations run concurrently;
// the per-technology geomean row uses the epsilon-floored geomeanSafe so
// a degenerate EDP cannot abort the table.
#include <iostream>
#include <map>

#include "bench/json.h"
#include "bench/sweep.h"
#include "support/stats.h"
#include "support/table.h"

using namespace sherlock;
using namespace sherlock::bench;

int main(int argc, char** argv) {
  std::string jsonPath = jsonPathArg(argc, argv);
  const int dims[] = {128, 256, 512, 1024};

  std::vector<SweepJob> jobs;
  for (const char* workload : kWorkloads)
    for (auto tech : {device::Technology::ReRam, device::Technology::SttMram})
      for (int dim : dims) {
        RunConfig cfg;
        cfg.tech = tech;
        cfg.arrayDim = dim;
        cfg.flow.strategy = mapping::Strategy::Optimized;
        jobs.push_back({workload, cfg});
      }
  std::vector<RunResult> results = runSweep(jobs);

  Table t("Fig. 7 — EDP gain over CPU (CPU EDP / CIM EDP, opt mapping)");
  t.setHeader({"Benchmark", "Tech", "N=128", "N=256", "N=512", "N=1024"});
  // Per-technology gain collections for the geomean summary row.
  std::map<device::Technology, std::vector<double>> gainsByTech;
  Json configs = Json::array();
  size_t idx = 0;
  for (const char* workload : kWorkloads) {
    ir::Graph g = makeWorkload(workload);
    // The CPU processes the same bulk data.
    cpu::CpuResult cpuRes = cpu::estimateCpu(g, kBulkBits);
    for (auto tech :
         {device::Technology::ReRam, device::Technology::SttMram}) {
      std::vector<std::string> row{workload, technologyName(tech)};
      for (size_t d = 0; d < std::size(dims); ++d) {
        const RunResult& r = results[idx++];
        double gain = cpuRes.edp() / r.sim.edp();
        gainsByTech[tech].push_back(gain);
        row.push_back(Table::num(gain, 1));
        Json c = Json::object();
        c.set("workload", workload)
            .set("tech", technologyName(tech))
            .set("array_dim", dims[d])
            .set("strategy", "opt")
            .set("latency_ns", r.sim.latencyNs)
            .set("energy_pj", r.sim.energyPj)
            .set("edp_gain_vs_cpu", gain);
        configs.push(std::move(c));
      }
      t.addRow(row);
    }
    t.addSeparator();
  }
  for (auto tech : {device::Technology::ReRam, device::Technology::SttMram})
    t.addRow({"geomean", technologyName(tech),
              Table::num(geomeanSafe(gainsByTech[tech]), 1), "", "", ""});
  t.print(std::cout);

  std::cout << "\nExpected shape: gains of two to three-plus orders of "
               "magnitude over the CPU; STT-MRAM roughly an order of "
               "magnitude ahead of ReRAM (cheaper writes); distinct "
               "per-benchmark and per-size profiles.\n";

  if (!jsonPath.empty()) {
    Json root = Json::object();
    root.set("schema_version", kBenchSchemaVersion)
        .set("pr", 8)
        .set("title", "Fig. 7 reproduction")
        .set("benchmark",
             "bench_fig7: EDP gain over CPU across array sizes and "
             "technologies (opt mapping)")
        .set("metric",
             "analytic latency_ns / energy_pj / edp_gain_vs_cpu per "
             "(workload, tech, array_dim) config (deterministic)")
        .set("configs", std::move(configs));
    writeJson(jsonPath, root);
  }
  return 0;
}
