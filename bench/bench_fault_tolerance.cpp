// Fault-tolerance evaluation: yield and overhead of fault-aware
// placement + guarded execution on persistently faulty arrays.
//
// Grid: paper workload x technology x stuck-cell density x spare-row
// budget x execution mode, several fault-map seeds per point. Every
// trial compiles against its own deterministic fault map (placement
// avoids stuck/weak cells, repairs collisions into spare rows) and runs
// with Monte-Carlo decision-failure injection; weak cells inflate the
// injected P_DF. Reported per point:
//
//   yield     — fraction of trials whose 64 output lanes all match the
//               reference evaluator,
//   retries   — guarded re-sense rounds per trial (detect-and-retry),
//   degraded  — ops that exhausted the retry budget and split to
//               single-row reads,
//   repairs   — placements served from the spare-row region,
//   latency   — overhead vs the fault-free unguarded baseline.
//
// With --json, "configs" carries each point's mean modeled latency_ns
// and energy_pj keyed by (workload, tech, array_dim, strategy,
// fault_density, spare_rows, guarded), the fault-free baselines and the
// pressure grid included: scripts/compare_bench.py gates them exactly,
// which pins every fault map, fault-aware placement and guarded run of
// the sweep.
//
// The unguarded rows are the contrast: same faulty arrays, no check
// reads — on STT-MRAM (XOR P_DF ~1e-4 per lane-op) corruption slips
// through, while guarding pushes the residual rate to ~P_DF^2.
//
// Seeding contract: trial t of a grid point uses
// faultSeed = deriveSeed(kBaseSeed, point * kTrials + t) — pure function
// of the flattened index, so the table is byte-identical for any
// SHERLOCK_THREADS value (see bench/sweep.h).
#include <chrono>
#include <iostream>

#include "bench/json.h"
#include "bench/sweep.h"
#include "support/parallel.h"
#include "support/table.h"

using namespace sherlock;
using namespace sherlock::bench;

int main(int argc, char** argv) {
  std::string jsonPath = jsonPathArg(argc, argv);
  auto wallStart = std::chrono::steady_clock::now();

  constexpr int kDim = 512;
  constexpr int kTrials = 3;
  constexpr uint64_t kBaseSeed = 0xfa'017'2024ULL;
  const double kDensities[] = {0.01, 0.02};
  const int kSpares[] = {0, 16};
  const bool kGuarded[] = {false, true};
  const device::Technology kTechs[] = {device::Technology::ReRam,
                                       device::Technology::SttMram};

  // One gateable config per grid point: trial means of the modeled
  // latency and energy.
  Json configs = Json::array();
  auto addConfig = [&](const char* workload, device::Technology tech,
                       int dim, const mapping::FlowOptions& flow,
                       bool guarded, double latencyNs, double energyPj) {
    configs.push(
        Json::object()
            .set("workload", workload)
            .set("tech", device::technologyName(tech))
            .set("array_dim", dim)
            .set("strategy",
                 flow.strategy == mapping::Strategy::Naive ? "naive" : "opt")
            .set("fault_density", flow.faultDensity)
            .set("spare_rows", flow.spareRows)
            .set("guarded", guarded)
            .set("latency_ns", latencyNs)
            .set("energy_pj", energyPj));
  };

  // Fault-free unguarded baselines (latency denominator), one per
  // workload x technology, followed by the faulty grid.
  std::vector<SweepJob> jobs;
  for (const char* w : kWorkloads)
    for (device::Technology tech : kTechs) {
      RunConfig cfg;
      cfg.tech = tech;
      cfg.arrayDim = kDim;
      jobs.push_back({w, cfg});
    }
  const size_t gridStart = jobs.size();

  size_t point = 0;
  for (const char* w : kWorkloads)
    for (device::Technology tech : kTechs)
      for (double density : kDensities)
        for (int spares : kSpares)
          for (bool guarded : kGuarded) {
            for (int t = 0; t < kTrials; ++t) {
              RunConfig cfg;
              cfg.tech = tech;
              cfg.arrayDim = kDim;
              cfg.flow.faultDensity = density;
              cfg.flow.faultSeed = deriveSeed(
                  kBaseSeed, point * kTrials + static_cast<size_t>(t));
              cfg.flow.spareRows = spares;
              cfg.injectFaults = true;
              cfg.guarded = guarded;
              jobs.push_back({w, cfg});
            }
            ++point;
          }

  // Corrupted lanes are expected on the unguarded rows; yield reports
  // them instead of aborting the sweep.
  std::vector<RunResult> results = runSweep(jobs, /*requireVerified=*/false);

  std::map<std::pair<std::string, device::Technology>, double> baseline;
  for (size_t i = 0; i < gridStart; ++i) {
    const RunConfig& cfg = jobs[i].config;
    baseline[{jobs[i].workload, cfg.tech}] = results[i].sim.latencyNs;
    addConfig(jobs[i].workload.c_str(), cfg.tech, cfg.arrayDim, cfg.flow,
              cfg.guarded, results[i].sim.latencyNs,
              results[i].sim.energyPj);
  }

  Table t(strCat("Fault tolerance: yield and overhead under persistent "
                 "cell faults (", kDim, "x", kDim, " arrays, ", kTrials,
                 " fault maps per point)"));
  t.setHeader({"workload", "tech", "density", "spares", "mode", "yield",
               "retries", "degraded", "stuck reads", "repairs",
               "latency ovh"});
  Json rows = Json::array();
  size_t job = gridStart;
  for (const char* w : kWorkloads)
    for (device::Technology tech : kTechs)
      for (double density : kDensities)
        for (int spares : kSpares)
          for (bool guarded : kGuarded) {
            int clean = 0;
            long retries = 0, degraded = 0, stuckReads = 0, repairs = 0;
            double latency = 0, energy = 0;
            const RunConfig& cfg = jobs[job].config;
            for (int tr = 0; tr < kTrials; ++tr) {
              const RunResult& r = results[job++];
              if (r.sim.corruptedLanes() == 0) ++clean;
              retries += r.sim.retriedOps;
              degraded += r.sim.degradedOps;
              stuckReads += r.sim.stuckCellReads;
              repairs += r.stats.spareRowAllocations;
              latency += r.sim.latencyNs;
              energy += r.sim.energyPj;
            }
            addConfig(w, tech, kDim, cfg.flow, guarded, latency / kTrials,
                      energy / kTrials);
            double base = baseline.at({w, tech});
            double overhead = latency / kTrials / base - 1.0;
            t.addRow({w, device::technologyName(tech),
                      Table::num(density, 3), std::to_string(spares),
                      guarded ? "guarded" : "unguarded",
                      Table::num(static_cast<double>(clean) / kTrials, 2),
                      Table::num(static_cast<double>(retries) / kTrials, 1),
                      Table::num(static_cast<double>(degraded) / kTrials, 1),
                      Table::num(
                          static_cast<double>(stuckReads) / kTrials, 0),
                      Table::num(static_cast<double>(repairs) / kTrials, 1),
                      strCat(Table::num(overhead * 100.0, 1), "%")});
            rows.push(
                Json::object()
                    .set("workload", w)
                    .set("tech", device::technologyName(tech))
                    .set("stuck_density", density)
                    .set("spare_rows", spares)
                    .set("guarded", guarded)
                    .set("yield", static_cast<double>(clean) / kTrials)
                    .set("retries_per_trial",
                         static_cast<double>(retries) / kTrials)
                    .set("degraded_per_trial",
                         static_cast<double>(degraded) / kTrials)
                    .set("stuck_reads_per_trial",
                         static_cast<double>(stuckReads) / kTrials)
                    .set("repairs_per_trial",
                         static_cast<double>(repairs) / kTrials)
                    .set("latency_overhead", overhead));
          }
  t.print(std::cout);

  // Spare-row repair utilization. At paper-scale arrays and realistic
  // densities placement sidesteps every fault without touching the
  // spare region (the all-zero repairs column above), so this compact
  // second grid shrinks the array and raises the density until column
  // main regions actually exhaust: naive mapping packs columns to their
  // exact usable capacity, so codegen temporaries spill into spares.
  constexpr int kSmallDim = 64;
  const double kPressureDensities[] = {0.3, 0.5};
  const int kPressureSpares[] = {8, 16};

  std::vector<SweepJob> pjobs;
  {
    RunConfig cfg;
    cfg.arrayDim = kSmallDim;
    cfg.flow.strategy = mapping::Strategy::Naive;
    pjobs.push_back({kWorkloads[0], cfg});
  }
  size_t ppoint = 0;
  for (double density : kPressureDensities)
    for (int spares : kPressureSpares)
      for (int tr = 0; tr < kTrials; ++tr, ++ppoint) {
        RunConfig cfg;
        cfg.arrayDim = kSmallDim;
        cfg.flow.strategy = mapping::Strategy::Naive;
        cfg.flow.faultDensity = density;
        cfg.flow.faultSeed = deriveSeed(kBaseSeed ^ 0xba11ad, ppoint);
        cfg.flow.spareRows = spares;
        cfg.injectFaults = true;
        pjobs.push_back({kWorkloads[0], cfg});
      }
  std::vector<RunResult> presults = runSweep(pjobs, /*requireVerified=*/true);
  addConfig(kWorkloads[0], pjobs[0].config.tech, kSmallDim,
            pjobs[0].config.flow, false, presults[0].sim.latencyNs,
            presults[0].sim.energyPj);

  Table p(strCat("Spare-row repair under pressure (", kWorkloads[0],
                 ", naive mapping, ", kSmallDim, "x", kSmallDim,
                 " arrays)"));
  p.setHeader({"density", "spares", "yield", "repairs", "latency ovh"});
  size_t pjob = 1;
  for (double density : kPressureDensities)
    for (int spares : kPressureSpares) {
      int clean = 0;
      long repairs = 0;
      double latency = 0, energy = 0;
      const RunConfig& cfg = pjobs[pjob].config;
      for (int tr = 0; tr < kTrials; ++tr) {
        const RunResult& r = presults[pjob++];
        if (r.sim.corruptedLanes() == 0) ++clean;
        repairs += r.stats.spareRowAllocations;
        latency += r.sim.latencyNs;
        energy += r.sim.energyPj;
      }
      addConfig(kWorkloads[0], cfg.tech, kSmallDim, cfg.flow, false,
                latency / kTrials, energy / kTrials);
      p.addRow({Table::num(density, 2), std::to_string(spares),
                Table::num(static_cast<double>(clean) / kTrials, 2),
                Table::num(static_cast<double>(repairs) / kTrials, 1),
                strCat(Table::num((latency / kTrials /
                                   presults[0].sim.latencyNs - 1.0) * 100.0,
                                  1),
                       "%")});
    }
  p.print(std::cout);

  std::cout << "\nExpected: guarded rows hold yield at (or near) 1.0 where "
               "unguarded STT-MRAM rows lose lanes; retries concentrate on "
               "weak-cell ops; repairs appear once faults or density "
               "pressure exhaust a column's main region; latency overhead "
               "stays small because only high-P_DF ops are guarded.\n";

  if (!jsonPath.empty()) {
    double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();
    Json doc = Json::object()
                   .set("schema_version", kBenchSchemaVersion)
                   .set("bench", "bench_fault_tolerance")
                   .set("array_dim", kDim)
                   .set("trials_per_point", kTrials)
                   .set("wall_seconds", wallSeconds)
                   .set("points", std::move(rows))
                   .set("configs", std::move(configs));
    writeJson(jsonPath, doc);
  }
  return 0;
}
