// NVM technology models.
//
// The paper characterizes cells with SPICE (STT-MRAM: SPITT compact model,
// 20 nm radius, RA = 7.5 Ohm um^2, TMR 150%; ReRAM: JART VCM v1b read
// variability). We substitute analytic models: nominal LRS/HRS resistances
// derived from those parameters with relative process-variation sigmas in
// the published range. The derived conductance distributions drive the
// scouting-logic decision-failure model (reliability.h) and cell-level
// latency/energy constants drive the array model.
#pragma once

#include <string>

namespace sherlock::device {

enum class Technology { SttMram, ReRam, Pcm };

/// Returns "STT-MRAM", "ReRAM" or "PCM".
std::string technologyName(Technology tech);

/// Cell-level electrical and timing/energy parameters of one technology.
struct TechnologyParams {
  Technology tech = Technology::ReRam;
  std::string name;

  // --- Resistive states (process-variation statistics) -------------------
  double lrsOhm = 0;     ///< nominal low-resistance state ('0' per paper)
  double lrsSigma = 0;   ///< relative sigma of the LRS distribution
  double hrsOhm = 0;     ///< nominal high-resistance state ('1' per paper)
  double hrsSigma = 0;   ///< relative sigma of the HRS distribution
  /// Reference/comparator imperfection, expressed as a fraction of the
  /// single-cell sense gap (G_LRS - G_HRS).
  double referenceSigmaFrac = 0;

  // --- Cell timing & energy ---------------------------------------------
  double readLatencyNs = 0;    ///< cell sensing time (scouting read)
  double writeLatencyNs = 0;   ///< cell programming (SET/RESET or STT switch)
  double readEnergyPj = 0;     ///< per activated cell per read
  double writeEnergyPj = 0;    ///< per written cell

  /// Maximum simultaneously activatable rows the sensing scheme supports.
  int maxActivatedRows = 8;

  double lrsConductance() const { return 1.0 / lrsOhm; }
  double hrsConductance() const { return 1.0 / hrsOhm; }
  /// Single-cell sense gap in conductance.
  double senseGap() const { return lrsConductance() - hrsConductance(); }
  /// HRS/LRS resistance ratio (2.5 for TMR 150%).
  double resistanceRatio() const { return hrsOhm / lrsOhm; }

  /// STT-MRAM per Table 1: 20 nm radius, RA = 7.5 Ohm um^2 -> R_LRS =
  /// RA / (pi r^2) ~ 5.97 kOhm; TMR 150% -> R_HRS = 2.5 R_LRS. Fast,
  /// low-energy writes; small sense gap.
  static TechnologyParams sttMram();

  /// ReRAM per JART VCM-style filamentary cell: R_LRS ~ 10 kOhm with the
  /// high read variability the model family reports, R_HRS ~ 500 kOhm.
  /// Slow, energy-hungry SET/RESET; wide sense gap.
  static TechnologyParams reRam();

  /// PCM (extension beyond the paper's two technologies): very wide gap,
  /// slowest writes.
  static TechnologyParams pcm();

  static TechnologyParams forTechnology(Technology tech);
};

}  // namespace sherlock::device
