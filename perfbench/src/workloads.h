// The benchmark's workloads (see ../README.md for why each exists).

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test sizing: a few thousand events per workload.
  bool tiny = false;
  /// Where the traced run writes its Chrome trace-event file.
  std::string trace_file;
};

struct RunOutput {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// each with its unit, as the workload measured them.
  Metrics metrics;
  /// Provenance fields as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> provenance;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload; progress and the per-layer table go to stderr.
RunOutput RunWorkload(const RunConfig& config);

}  // namespace perfbench
