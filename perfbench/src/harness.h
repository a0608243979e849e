// Measurement plumbing for the TiMR benchmark: a span recorder for the traced
// run (Chrome trace-event output, per-layer self time), named metrics with
// units, and the order statistics the workloads report.
//
// Spans are recorded only around calls the benchmark makes into the public
// API, from the benchmark's own thread; nothing inside the library is
// instrumented.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call (process-relative).
double NowSeconds();

/// Records nested spans when enabled; every call is a no-op otherwise.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int id = 0;
    int parent = -1;  // id of the enclosing span, -1 at top level
    int run = 0;      // the operation (job, pass, probe) the span belongs to
  };

  struct LayerTime {
    int count = 0;
    double total_s = 0;
    double self_s = 0;  // total minus the time covered by child spans
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  /// Opens a span under the innermost open one; returns its id (-1 when off).
  int Begin(const std::string& name);
  void End(int id);

  /// Self and total time per span name.
  std::map<std::string, LayerTime> Layers() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer or a disabled one records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Metrics by name. Set() keeps the first value written for a name, so a
/// workload's own measurement wins over a generic probe run after it.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  const std::map<std::string, Metric>& values() const { return values_; }

 private:
  std::map<std::string, Metric> values_;
};

/// Order statistics over a sample (all return 0 for an empty sample).
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p);

/// JSON number with the shortest round-trip spelling (never rounds away
/// digits); non-finite values become null.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// {"name": {"value": v, "unit": u}, ...}
std::string MetricsJson(const Metrics& m);

}  // namespace perfbench
