#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

int64_t NowNs() {
  static const auto kStart = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kStart)
      .count();
}

}  // namespace

double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

int Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close in LIFO order (RAII on one thread).
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, Tracer::LayerTime> Tracer::Layers() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans_) {
    LayerTime& l = out[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    const int64_t self = dur - child_ns[static_cast<size_t>(s.id)];
    ++l.count;
    l.total_s += static_cast<double>(dur) * 1e-9;
    l.self_s += static_cast<double>(self) * 1e-9;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) f << ",";
    first = false;
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    f << "\n{\"name\":" << JsonString(s.name)
      << ",\"ph\":\"X\",\"pid\":1,\"tid\":1"
      << ",\"ts\":" << JsonNumber(static_cast<double>(s.start_ns) / 1e3)
      << ",\"dur\":" << JsonNumber(dur_us)
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"run\":" << s.run << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  values_.emplace(name, Metric{value, unit});
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& m) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, metric] : m.values()) {
    if (!first) os << ", ";
    first = false;
    os << JsonString(name) << ": {\"value\": " << JsonNumber(metric.value)
       << ", \"unit\": " << JsonString(metric.unit) << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace perfbench
