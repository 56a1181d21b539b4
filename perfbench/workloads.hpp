// The benchmark's workloads. Each fills `report` with every metric it
// measures and marks it wrong when its correctness oracle fails.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_watch_rounds(const Options& options, Report& report);
void run_reanalyze_stored(const Options& options, Report& report);

}  // namespace perfbench
