#include "mapping/program_analysis.h"

#include <sstream>

#include "support/diagnostics.h"

namespace sherlock::mapping {

double ProgramAnalysis::meanColumnsPerAccess() const {
  long accesses = 0, columns = 0;
  for (size_t k = 0; k < columnWidthHistogram.size(); ++k) {
    accesses += columnWidthHistogram[k];
    columns += static_cast<long>(k) * columnWidthHistogram[k];
  }
  return accesses == 0 ? 0.0
                       : static_cast<double>(columns) /
                             static_cast<double>(accesses);
}

std::string ProgramAnalysis::toString() const {
  std::ostringstream os;
  os << "instructions: " << instructions << " (reads " << reads << " ["
     << cimReads << " CIM, " << plainReads << " plain], writes " << writes
     << " [" << hostWrites << " host, " << writes - hostWrites
     << " spill], shifts " << shifts << ", xfers " << xfers << ")\n";
  os << "activated rows:";
  for (size_t k = 0; k < activatedRowsHistogram.size(); ++k)
    if (activatedRowsHistogram[k])
      os << " " << k << "r x" << activatedRowsHistogram[k];
  os << "\nmerge width:";
  for (size_t k = 0; k < columnWidthHistogram.size(); ++k)
    if (columnWidthHistogram[k])
      os << " " << k << "c x" << columnWidthHistogram[k];
  os << "\nop mix:";
  for (const auto& [name, count] : opMix) os << " " << name << " x" << count;
  os << "\nchained operands: " << chainedOperands
     << ", total shift distance: " << totalShiftDistance << "\n";
  os << "per array:";
  for (const auto& [array, count] : perArray)
    os << " [" << array << "] x" << count;
  os << "\nmean columns/access: " << meanColumnsPerAccess() << "\n";
  return os.str();
}

ProgramAnalysis analyzeProgram(const Program& program) {
  ProgramAnalysis a;
  auto bump = [](std::vector<long>& hist, size_t k) {
    if (hist.size() <= k) hist.resize(k + 1, 0);
    hist[k]++;
  };

  for (size_t idx = 0; idx < program.instructions.size(); ++idx) {
    const isa::Instruction& inst = program.instructions[idx];
    a.instructions++;
    a.perArray[inst.arrayId]++;
    switch (inst.kind) {
      case isa::InstKind::Read: {
        a.reads++;
        if (inst.colOps.empty())
          a.plainReads++;
        else
          a.cimReads++;
        bump(a.activatedRowsHistogram, inst.rows.size());
        bump(a.columnWidthHistogram, inst.columns.size());
        for (size_t i = 0; i < inst.colOps.size(); ++i) {
          a.opMix[ir::opName(inst.colOps[i])]++;
          if (i < inst.chainsBuffer.size() && inst.chainsBuffer[i])
            a.chainedOperands++;
        }
        break;
      }
      case isa::InstKind::Write:
        a.writes++;
        if (program.hostWriteValues.contains(idx)) a.hostWrites++;
        bump(a.columnWidthHistogram, inst.columns.size());
        break;
      case isa::InstKind::Shift:
        a.shifts++;
        a.totalShiftDistance += inst.shiftDistance;
        break;
      case isa::InstKind::Xfer:
        a.xfers++;
        // Transfers land on the destination array's port as well.
        a.perArray[inst.dstArray]++;
        break;
    }
  }
  return a;
}

}  // namespace sherlock::mapping
