// The three benchmark workloads. Each one generates its inputs from
// args.seed, runs its timed phase for args.seconds, checks every output,
// and fills `report` with its metrics and determinism record. With
// args.trace the timed phase is split in two: an untraced half and a
// traced half, which give the per-layer metrics and the tracing
// overhead.
#pragma once

#include "harness.h"

namespace perfbench {

/// Serial batch: the paper trio x {naive, opt} x {1024^2 MRA 2,
/// 512^2 MRA 4} on ReRAM, compiled and simulated once per pass.
void runPaperBatch(const Args& args, Report& report);

/// Serial batch of guarded trials: BitWeaving and Sobel on STT-MRAM
/// 512^2 with a seeded fault map per trial, spare rows, and Monte-Carlo
/// injection at 8 lane words.
void runFaultyGuarded(const Args& args, Report& report);

/// Closed loop of 4 clients against one CompileService over a seeded
/// zipf-distributed kernel corpus, followed by a byte-for-byte check and
/// an out-of-service replay of every distinct kernel.
void runServeMix(const Args& args, Report& report);

}  // namespace perfbench
