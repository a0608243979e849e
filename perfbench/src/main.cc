// timr_perfbench: runs one benchmark workload and prints its metrics.
//
//   timr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--size full|tiny] [--trace-file <path>]
//
// The last line of stdout is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it is {"provenance": {...}}. Normally run
// through perfbench/run.py, which builds this binary first.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::string names;
  for (const auto& name : perfbench::WorkloadNames()) {
    names += (names.empty() ? "" : "|") + name;
  }
  std::fprintf(stderr,
               "timr_perfbench: %s\nusage: timr_perfbench --workload <%s> "
               "--seed <n> --seconds <s> --trace <0|1> [--size full|tiny] "
               "[--trace-file <path>]\n",
               why.c_str(), names.c_str());
  return 2;
}

bool ParseNumber(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return !s.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &number) || number < 0) {
        return Usage("bad --seed");
      }
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || number <= 0 || number > 600) {
        return Usage("bad --seconds");
      }
      config.seconds = number;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        return Usage("--size takes full or tiny");
      }
      config.tiny = value == "tiny";
    } else if (flag == "--trace-file") {
      config.trace_file = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const auto& name : perfbench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!have_workload || !known) return Usage("unknown or missing --workload");

  const perfbench::RunOutput out = perfbench::RunWorkload(config);

  std::string provenance = "{\"provenance\": {";
  for (size_t i = 0; i < out.provenance.size(); ++i) {
    if (i > 0) provenance += ", ";
    provenance += perfbench::JsonString(out.provenance[i].first) + ": " +
                  out.provenance[i].second;
  }
  std::printf("%s}}\n", provenance.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      out.correct ? "true" : "false", static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed),
      perfbench::MetricsJson(out.metrics).c_str());
  std::fflush(stdout);
  return 0;
}
