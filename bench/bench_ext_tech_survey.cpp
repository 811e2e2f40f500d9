// Extension beyond the paper's two evaluated technologies: a Table-1-style
// survey of the modeled NVM technologies (ReRAM, STT-MRAM, and PCM) —
// array-level latency/energy/area from the NVSim-stand-in model, the
// sensing reliability at the usual activation counts, and the optimized
// mapping's end-to-end results per technology on each workload (run
// concurrently through the sweep harness).
#include <iostream>

#include "bench/sweep.h"
#include "device/reliability.h"
#include "support/table.h"

using namespace sherlock;
using namespace sherlock::bench;

int main() {
  const device::Technology techs[] = {device::Technology::ReRam,
                                      device::Technology::SttMram,
                                      device::Technology::Pcm};

  Table dev("Technology survey — array-level characteristics (512x512)");
  dev.setHeader({"Tech", "HRS/LRS", "read (ns)", "write (ns)",
                 "read (pJ/cell)", "write (pJ/cell)", "cell area (F^2)",
                 "slice area (mm^2)", "P_DF AND@2", "P_DF XOR@2"});
  for (auto tech : techs) {
    auto p = device::TechnologyParams::forTechnology(tech);
    arraymodel::ArrayCostModel m(arraymodel::ArrayGeometry::square(512), p);
    dev.addRow(
        {p.name, Table::num(p.resistanceRatio(), 1),
         Table::num(m.readLatencyNs(), 2),
         Table::num(m.writeCompletionNs(), 1),
         Table::num(p.readEnergyPj, 2), Table::num(p.writeEnergyPj, 2),
         Table::num(p.cellAreaF2, 0),
         Table::num(m.cellAreaMm2() + m.peripheryAreaMm2(), 4),
         Table::sci(device::decisionFailureProbability(
                        p, device::SenseKind::And, 2),
                    1),
         Table::sci(device::decisionFailureProbability(
                        p, device::SenseKind::Xor, 2),
                    1)});
  }
  dev.print(std::cout);
  std::cout << '\n';

  std::vector<SweepJob> jobs;
  for (const char* workload : kWorkloads)
    for (auto tech : techs) {
      RunConfig cfg;
      cfg.tech = tech;
      cfg.arrayDim = 512;
      cfg.flow.strategy = mapping::Strategy::Optimized;
      jobs.push_back({workload, cfg});
    }
  // The survey intentionally reports unverified configurations too, so
  // runSweep must not abort on them.
  std::vector<RunResult> results = runSweep(jobs, /*requireVerified=*/false);

  Table app("Optimized mapping per technology (512x512, MRA = 2)");
  app.setHeader({"Benchmark", "Tech", "latency (us)", "energy (uJ)",
                 "P_app", "verified"});
  size_t idx = 0;
  for (const char* workload : kWorkloads) {
    for (auto tech : techs) {
      const RunResult& r = results[idx++];
      app.addRow({workload, technologyName(tech),
                  Table::num(r.sim.latencyUs(), 2),
                  Table::num(r.sim.energyUj(), 2),
                  Table::sci(r.sim.pApp, 2),
                  r.sim.verified ? "yes" : "NO"});
    }
    app.addSeparator();
  }
  app.print(std::cout);

  std::cout << "\nExpected shape: PCM sits between ReRAM and STT-MRAM on "
               "reliability knobs (wide gap but high variability), has the "
               "slowest and most expensive writes, and the densest cells "
               "after crossbar ReRAM.\n";
  return 0;
}
