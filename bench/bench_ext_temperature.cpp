// Extension: operating-temperature sensitivity of the reliability model.
// The paper characterizes its cells at 27 C (Table 1); this bench derates
// the resistance-distribution sigmas with temperature and shows how the
// application failure probability of the Bitweaving kernel responds.
// The (technology x temperature) compile+simulate grid runs concurrently.
#include <iostream>

#include "bench/common.h"
#include "device/reliability.h"
#include "support/parallel.h"
#include "support/table.h"

using namespace sherlock;
using namespace sherlock::bench;

namespace {

struct Cell {
  device::Technology tech;
  double temperature;
};

}  // namespace

int main() {
  const double temps[] = {-20.0, 27.0, 85.0, 125.0};
  const device::Technology techs[] = {device::Technology::ReRam,
                                      device::Technology::SttMram};

  Table pdf("Decision failure vs temperature (2-row activation)");
  pdf.setHeader({"Tech", "sense op", "-20C", "27C", "85C", "125C"});
  for (auto tech : techs) {
    auto nominal = device::TechnologyParams::forTechnology(tech);
    for (auto [kind, name] : {std::pair{device::SenseKind::And, "AND"},
                              std::pair{device::SenseKind::Xor, "XOR"}}) {
      std::vector<std::string> row{nominal.name, name};
      for (double t : temps)
        row.push_back(Table::sci(
            device::decisionFailureProbability(nominal.atTemperature(t),
                                               kind, 2),
            1));
      pdf.addRow(row);
    }
  }
  pdf.print(std::cout);
  std::cout << '\n';

  std::vector<Cell> grid;
  for (auto tech : techs)
    for (double t : temps) grid.push_back({tech, t});

  ir::Graph g = makeWorkload("Bitweaving");
  auto pApps = parallelMap(grid, [&](const Cell& cell) {
    auto params = device::TechnologyParams::forTechnology(cell.tech)
                      .atTemperature(cell.temperature);
    isa::TargetSpec target = isa::TargetSpec::square(512, params, 2);
    auto compiled = mapping::compile(g, target);
    sim::SimOptions sopts;
    sopts.staticVerify = false;  // compile verified the program
    auto r = sim::simulate(g, target, compiled.program, sopts);
    if (!r.verified)
      throw Error(strCat("verification failed: ", params.name, " at ",
                         cell.temperature, "C"));
    return r.pApp;
  });

  Table app("Bitweaving P_app vs temperature (512x512, opt mapping)");
  app.setHeader({"Tech", "-20C", "27C", "85C", "125C"});
  size_t idx = 0;
  for (auto tech : techs) {
    std::vector<std::string> row{
        device::TechnologyParams::forTechnology(tech).name};
    for (size_t t = 0; t < std::size(temps); ++t)
      row.push_back(Table::sci(pApps[idx++], 2));
    app.addRow(row);
  }
  app.print(std::cout);

  std::cout << "\nExpected shape: monotone reliability degradation with "
               "temperature; STT-MRAM crosses into the error-tolerant-only "
               "regime well below automotive-grade 125C.\n";
  return 0;
}
