// Prints a run's report: human-readable lines, then as the very last line
// of standard output one JSON object with exactly the keys correct,
// attempted, failed and metrics (end-to-end metrics untraced, per-layer
// metrics traced).
#pragma once

#include "workloads.h"

namespace perfbench {

void PrintReport(const RunOptions& options, const Outcome& outcome);

}  // namespace perfbench
