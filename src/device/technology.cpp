#include "device/technology.h"

#include <cmath>

#include "support/diagnostics.h"

namespace sherlock::device {

std::string technologyName(Technology tech) {
  switch (tech) {
    case Technology::SttMram: return "STT-MRAM";
    case Technology::ReRam: return "ReRAM";
    case Technology::Pcm: return "PCM";
  }
  throw InternalError("technologyName: invalid Technology");
}

TechnologyParams TechnologyParams::sttMram() {
  TechnologyParams p;
  p.tech = Technology::SttMram;
  p.name = technologyName(p.tech);
  // RA = 7.5 Ohm um^2 over a pi * (20 nm)^2 junction.
  double areaUm2 = M_PI * 0.020 * 0.020;
  p.lrsOhm = 7.5 / areaUm2;       // ~5.97 kOhm
  p.hrsOhm = p.lrsOhm * 2.5;      // TMR 150%
  p.lrsSigma = 0.068;             // MTJ resistance process variation
  p.hrsSigma = 0.068;
  p.referenceSigmaFrac = 0.02;
  p.readLatencyNs = 3.0;
  p.writeLatencyNs = 10.0;        // STT switching pulse
  p.readEnergyPj = 0.03;
  p.writeEnergyPj = 0.6;
  p.maxActivatedRows = 8;
  return p;
}

TechnologyParams TechnologyParams::reRam() {
  TechnologyParams p;
  p.tech = Technology::ReRam;
  p.name = technologyName(p.tech);
  p.lrsOhm = 10e3;
  p.hrsOhm = 500e3;               // filamentary HRS, wide gap
  p.lrsSigma = 0.05;              // JART VCM read variability (LRS)
  p.hrsSigma = 0.35;              // HRS far more variable (HRS instability)
  p.referenceSigmaFrac = 0.02;
  p.readLatencyNs = 3.0;
  p.writeLatencyNs = 100.0;       // SET/RESET pulse
  p.readEnergyPj = 0.04;
  p.writeEnergyPj = 4.0;
  p.maxActivatedRows = 8;
  return p;
}

TechnologyParams TechnologyParams::pcm() {
  TechnologyParams p;
  p.tech = Technology::Pcm;
  p.name = technologyName(p.tech);
  p.lrsOhm = 20e3;
  p.hrsOhm = 2e6;
  p.lrsSigma = 0.10;
  p.hrsSigma = 0.40;
  p.referenceSigmaFrac = 0.03;
  p.readLatencyNs = 5.0;
  p.writeLatencyNs = 150.0;       // RESET (melt-quench) dominated
  p.readEnergyPj = 0.05;
  p.writeEnergyPj = 8.0;
  p.maxActivatedRows = 8;
  return p;
}

TechnologyParams TechnologyParams::forTechnology(Technology tech) {
  switch (tech) {
    case Technology::SttMram: return sttMram();
    case Technology::ReRam: return reRam();
    case Technology::Pcm: return pcm();
  }
  throw InternalError("forTechnology: invalid Technology");
}

}  // namespace sherlock::device
