#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "analysis/analyzer.h"
#include "bt/custom_reducers.h"
#include "bt/queries.h"
#include "bt/schema.h"
#include "bt/suite_runner.h"
#include "common/hash.h"
#include "mr/cluster.h"
#include "mr/rpc.h"
#include "temporal/convert.h"
#include "temporal/executor.h"
#include "timr/fragments.h"
#include "timr/live_pipeline.h"
#include "timr/suite.h"
#include "timr/timr.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

namespace T = timr::temporal;
using timr::Row;
using EventList = std::vector<T::Event>;
using Store = std::map<std::string, timr::mr::Dataset>;

// LocalCluster models this many machines, as the figure benches do; the host
// runs them on nproc threads.
constexpr int kMachines = 16;
// Set-up (generate, convert, build plans) repeats at least kSetupRounds times
// and until kSetupSeconds have passed; setup_s is the median round, so a
// one-off stall does not move it.
constexpr int kSetupRounds = 10;
constexpr double kSetupSeconds = 1.5;
// bt_procs runs each stage on this many forked workers.
constexpr int kProcWorkers = 2;
// Traced runs push this prefix of the workload's log through a LivePipeline,
// in morsels of kMorselEvents (one PushBatch plus one PushCti each), to fill
// the live.* layer metrics.
constexpr size_t kLiveProbeEvents = 30000;
constexpr size_t kMorselEvents = 128;

struct Sizing {
  int users = 0;
  double zipf = 0;  // user_activity_zipf; 0 = uniform users
};

Sizing SizingFor(const RunConfig& c) {
  Sizing s;
  if (c.workload == "bt_batch") s.users = 2000;
  if (c.workload == "bt_procs") s.users = 600;
  if (c.workload == "cq_suite") s = {250, 1.2};
  if (c.tiny) s.users = 40;
  return s;
}

timr::workload::GeneratorConfig GenConfig(uint64_t seed, const Sizing& s) {
  timr::workload::GeneratorConfig g;
  g.seed = timr::HashMix(seed + 0x9e3779b97f4a7c15ULL);
  g.num_users = s.users;
  g.vocab_size = 20000;
  g.duration = 7 * T::kDay;
  g.num_ad_classes = 10;
  if (s.zipf > 0) {
    // Skewed users without the bot multipliers, as the skew tests use: the
    // head users are heavy, not bots the pipeline would drop.
    g.user_activity_zipf = s.zipf;
    g.bot_activity_multiplier = 1.0;
    g.bot_impression_multiplier = 1.0;
  }
  return g;
}

timr::bt::BtQueryConfig BtConfig() {
  timr::bt::BtQueryConfig cfg;
  cfg.selection_period = 8 * T::kDay;  // covers the whole week
  cfg.bot_search_threshold = 60;
  cfg.bot_click_threshold = 30;
  return cfg;
}

T::PlanNodePtr Pipeline(timr::bt::Annotation a) {
  return timr::bt::BtFeaturePipeline(BtConfig(), a).node();
}

timr::Schema RowSchema() {
  return T::PointRowSchema(timr::bt::UnifiedSchema());
}

Store StoreOf(const std::vector<Row>& rows) {
  Store store;
  store[timr::bt::kBtInput] = timr::mr::Dataset::FromRows(RowSchema(), rows);
  return store;
}

bool Identical(const EventList& a, const EventList& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].le != b[i].le || a[i].re != b[i].re ||
        a[i].payload != b[i].payload) {
      return false;
    }
  }
  return true;
}

/// Resets the kernel's resident-set high-water mark (VmHWM) to the current
/// resident set, so a later PeakRssMb() covers only what ran after this.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// VmHWM of this process: its peak resident set since the last
/// ResetPeakRss(), or over its lifetime if none took effect.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Peak resident set of the largest reaped child: process-mode workers are
/// forked and reaped per stage. It counts the pages a worker shares with the
/// driver from the fork, so it is not added to the driver's peak.
double WorkerPeakRssMb() {
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(kids.ru_maxrss) / 1024.0;
}

/// Host-wide CPU time (all CPUs) and the part of it the hypervisor stole, in
/// clock ticks, from the first line of /proc/stat.
struct CpuTicks {
  double total = 0;
  double steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  double v[8] = {};
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (double x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

/// State shared by one run: the tracer, metrics and the operation tally.
struct Run {
  explicit Run(const RunConfig& c)
      : cfg(c), nproc(std::max(1u, std::thread::hardware_concurrency())) {
    tracer.set_enabled(c.trace);
  }

  /// Counts `ops` operations, all failed unless `ok`.
  void Op(bool ok, const std::string& what, int64_t ops = 1) {
    attempted += ops;
    if (!ok) {
      failed += ops;
      Check(false, what);
    }
  }

  /// A correctness check outside the counted operations (probes, reference).
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }

  const RunConfig& cfg;
  const int nproc;
  Tracer tracer;
  Metrics e2e;
  Metrics layers;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  size_t events = 0;
  int workers = 0;
  size_t samples = 0;
  size_t samples_kept = 0;  // the least-stolen samples job_s is taken over
  bool peak_rss_reset = false;
  double host_steal_share = 0;  // over the measured loop, for provenance
};

struct Input {
  timr::workload::BtLog log;
  std::vector<Row> rows;
};

/// Generates the seeded log, converts it to source rows, and calls `build`
/// for the workload's own set-up, in repeated rounds; keeps the last round.
template <typename Build>
Input Setup(Run& run, Build&& build) {
  const Sizing sizing = SizingFor(run.cfg);
  std::vector<double> total, gen;
  Input in;
  const double start = NowSeconds();
  for (int round = 0;
       round < kSetupRounds || NowSeconds() - start < kSetupSeconds; ++round) {
    ScopedSpan span(&run.tracer, "setup");
    const double t0 = NowSeconds();
    {
      ScopedSpan s(&run.tracer, "workload.GenerateBtLog");
      in.log = timr::workload::GenerateBtLog(GenConfig(run.cfg.seed, sizing));
    }
    const double t1 = NowSeconds();
    {
      ScopedSpan s(&run.tracer, "temporal.RowsFromEvents");
      auto rows = T::RowsFromEvents(in.log.events, false);
      run.Check(rows.ok(), "RowsFromEvents: " + rows.status().ToString());
      if (rows.ok()) in.rows = std::move(rows).ValueOrDie();
    }
    build(in);
    total.push_back(NowSeconds() - t0);
    gen.push_back(t1 - t0);
  }
  run.events = in.log.events.size();
  std::fprintf(stderr,
               "set-up: %zu rounds, median %.4f s, min %.4f s, max %.4f s\n",
               total.size(), Median(total), Percentile(total, 0),
               Percentile(total, 100));
  run.e2e.Set("setup_s", Median(total), "s");
  run.layers.Set("workload.gen_s", Median(gen), "s");
  return in;
}

/// One measured operation: a job, or a pass over the live feed.
struct Sample {
  double wall_s = 0;
  double sim_s = 0;
  double steal = 0;  // host steal share while the sample ran
  bool traced = false;
  timr::mr::JobStats stats;
  uint64_t engine_events = 0;  // only with collect_engine_stats
};

struct Loop {
  double warmup_s = 0;
  std::vector<Sample> samples;  // measured, after the warm-up

  std::vector<double> Walls(bool traced) const {
    std::vector<double> v;
    for (const Sample& s : samples) {
      if (s.traced == traced) v.push_back(s.wall_s);
    }
    return v;
  }
};

/// Runs `op` once as warm-up, then until `seconds` have passed and at least
/// a few samples exist. A traced run alternates untraced and traced samples,
/// so the two can be compared (harness.trace_overhead). peak_rss_mb is the
/// peak over the measured samples only, not over set-up or the reference.
template <typename Op>
Loop MeasureLoop(Run& run, double seconds, Op&& op) {
  Loop loop;
  run.tracer.set_run(0);
  loop.warmup_s = op().wall_s;
  run.peak_rss_reset = ResetPeakRss();
  if (!run.peak_rss_reset) {
    std::fprintf(stderr,
                 "perfbench: cannot reset the peak RSS; peak_rss_mb is the "
                 "process-lifetime peak\n");
  }
  const CpuTicks ticks0 = ReadCpuTicks();
  const size_t min_samples = run.cfg.tiny ? 1 : 3;
  const double start = NowSeconds();
  for (int i = 1;; ++i) {
    const size_t untraced = loop.Walls(false).size();
    const size_t traced = loop.Walls(true).size();
    if (NowSeconds() - start >= seconds && untraced >= min_samples &&
        (!run.cfg.trace || traced >= min_samples)) {
      break;
    }
    const bool trace_this = run.cfg.trace && i % 2 == 0;
    run.tracer.set_enabled(trace_this);
    run.tracer.set_run(i);
    const CpuTicks before = ReadCpuTicks();
    Sample s = op();
    const CpuTicks after = ReadCpuTicks();
    if (after.total > before.total) {
      s.steal = (after.steal - before.steal) / (after.total - before.total);
    }
    s.traced = trace_this;
    loop.samples.push_back(std::move(s));
  }
  run.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  const CpuTicks ticks1 = ReadCpuTicks();
  if (ticks1.total > ticks0.total) {
    run.host_steal_share =
        (ticks1.steal - ticks0.steal) / (ticks1.total - ticks0.total);
  }
  run.tracer.set_enabled(run.cfg.trace);
  run.samples = loop.Walls(false).size();
  std::fprintf(stderr, "warm-up %.3f s; samples (s) [host steal]:",
               loop.warmup_s);
  for (const Sample& s : loop.samples) {
    std::fprintf(stderr, " %.3f%s[%.0f%%]", s.wall_s, s.traced ? "t" : "",
                 s.steal * 100);
  }
  std::fprintf(stderr, "\n");
  run.layers.Set("harness.warmup_s", loop.warmup_s, "s");
  if (run.cfg.trace) {
    const double off = Median(loop.Walls(false));
    run.layers.Set("harness.trace_overhead",
                   (Median(loop.Walls(true)) - off) / off, "ratio");
  }
  return loop;
}

/// job_s, events_per_s and sim_s from the untraced samples during which the
/// hypervisor stole no more of the host's CPU than it did in the median
/// sample. Stolen time slows every thread of a job, and on a shared host it
/// comes in spells that have nothing to do with the program; the samples
/// least touched by it measure the program.
void SetJobMetrics(Run& run, const Loop& loop) {
  std::vector<double> steals;
  for (const Sample& s : loop.samples) {
    if (!s.traced) steals.push_back(s.steal);
  }
  const double steal_cut = Median(steals);
  std::vector<double> walls, sims;
  for (const Sample& s : loop.samples) {
    if (s.traced || s.steal > steal_cut) continue;
    walls.push_back(s.wall_s);
    sims.push_back(s.sim_s);
  }
  run.samples_kept = walls.size();
  const double job_s = Median(walls);
  run.e2e.Set("job_s", job_s, "s");
  run.e2e.Set("events_per_s", static_cast<double>(run.events) / job_s, "1/s");
  run.e2e.Set("sim_s", Median(sims), "s");
}

/// Map-reduce layer metrics summed per job over StageStats, median over jobs.
/// `parallelism` is the number of reduce slots (threads, or workers).
void SetMrLayers(Run& run, const std::vector<const timr::mr::JobStats*>& jobs,
                 int parallelism) {
  if (jobs.empty() || run.layers.Has("mr.map_s")) return;
  std::vector<double> map_s, sort_s, reduce_s, busy, skew, attempts;
  double retried = 0, restarts = 0, rpc_retries = 0, hb_timeouts = 0;
  for (const timr::mr::JobStats* job : jobs) {
    double m = 0, so = 0, re = 0, cpu = 0, worst = 0, att = 0;
    for (const auto& st : job->stages) {
      m += st.map_shuffle_seconds;
      so += st.sort_seconds;
      re += st.reduce_seconds;
      cpu += st.task_cpu_seconds_total;
      att += st.task_attempts;
      if (st.partition_seconds_median > 0) {
        worst = std::max(
            worst, st.partition_seconds_max / st.partition_seconds_median);
      }
      retried += st.retried_tasks;
      restarts += st.worker_restarts;
      rpc_retries += st.rpc_retries;
      hb_timeouts += st.heartbeat_timeouts;
    }
    map_s.push_back(m);
    sort_s.push_back(so);
    reduce_s.push_back(re);
    busy.push_back(re > 0 ? cpu / (re * parallelism) : 0);
    skew.push_back(worst);
    attempts.push_back(att);
  }
  const timr::mr::JobStats& first = *jobs.front();
  double shuffled = 0, hot = 0, split = 0, post_split = 0;
  for (const auto& st : first.stages) {
    shuffled += static_cast<double>(st.rows_shuffled);
    hot += st.hot_keys_detected;
    split += st.partitions_split;
    post_split = std::max(post_split, st.post_split_rows_ratio);
  }
  run.layers.Set("mr.map_s", Median(map_s), "s");
  run.layers.Set("mr.sort_s", Median(sort_s), "s");
  run.layers.Set("mr.reduce_s", Median(reduce_s), "s");
  run.layers.Set("mr.rows_shuffled", shuffled, "count");
  run.layers.Set("mr.reduce_busy_share", Median(busy), "ratio");
  run.layers.Set("mr.partition_cpu_skew", Median(skew), "ratio");
  run.layers.Set("mr.task_attempts", Median(attempts), "count");
  run.layers.Set("mr.retried_tasks", retried, "count");
  run.layers.Set("procs.worker_restarts", restarts, "count");
  run.layers.Set("procs.rpc_retries", rpc_retries, "count");
  run.layers.Set("procs.heartbeat_timeouts", hb_timeouts, "count");
  run.layers.Set("skew.hot_keys", hot, "count");
  run.layers.Set("skew.partitions_split", split, "count");
  run.layers.Set("skew.post_split_rows_ratio", post_split, "ratio");
  run.layers.Set("timr.stages", static_cast<double>(first.stages.size()),
                 "count");
}

void SetLayersFromLoop(Run& run, const Loop& loop, int parallelism) {
  std::vector<const timr::mr::JobStats*> jobs;
  std::vector<double> consumed, per_cpu;
  for (const Sample& s : loop.samples) {
    jobs.push_back(&s.stats);
    if (s.engine_events == 0) continue;
    double cpu = 0;
    for (const auto& st : s.stats.stages) cpu += st.task_cpu_seconds_total;
    consumed.push_back(static_cast<double>(s.engine_events));
    per_cpu.push_back(static_cast<double>(s.engine_events) / cpu);
  }
  SetMrLayers(run, jobs, parallelism);
  if (!consumed.empty()) {
    run.layers.Set("engine.events_consumed", Median(consumed), "count");
    run.layers.Set("engine.events_per_cpu_s", Median(per_cpu), "1/s");
  }
}

struct Job {
  bool ok = false;
  std::string error;
  double wall_s = 0;
  EventList output;
  timr::mr::JobStats stats;
  uint64_t engine_events = 0;

  Sample ToSample() const {
    Sample s;
    s.wall_s = wall_s;
    s.sim_s = stats.TotalSimulatedSeconds();
    s.stats = stats;
    s.engine_events = engine_events;
    return s;
  }
};

Job RunTimrJob(Run& run, timr::mr::LocalCluster* cluster,
               const T::PlanNodePtr& plan, const std::vector<Row>& rows,
               timr::framework::TimrOptions options, const std::string& span) {
  options.collect_engine_stats = run.tracer.enabled();
  Store store = StoreOf(rows);
  Job job;
  const double t0 = NowSeconds();
  auto res = [&] {
    ScopedSpan s(&run.tracer, span);
    return timr::framework::RunPlan(cluster, plan, &store, options);
  }();
  job.wall_s = NowSeconds() - t0;
  if (!res.ok()) {
    job.error = res.status().ToString();
    return job;
  }
  auto& r = res.ValueOrDie();
  job.ok = true;
  job.output = std::move(r.output);
  job.stats = std::move(r.job_stats);
  for (const auto& f : r.fragment_stats) {
    job.engine_events += f.engine_events_consumed;
  }
  return job;
}

// ------------------------------------------------------------ live feed --

struct LivePass {
  bool ok = true;
  std::string error;
  double wall_s = 0;
  double busy_s = 0;
  std::vector<double> push_s, cti_s, latency_s, late_s;
  EventList output;
};

/// One pass of `events` through a fresh LivePipeline, one PushBatch plus one
/// PushCti per morsel. rate == 0 is a closed loop (next morsel as soon as the
/// previous returns); rate > 0 an open loop, morsel i due at i × morsel/rate
/// and timed from when it was due.
LivePass RunLivePass(Run& run, const T::PlanNodePtr& plan,
                     const EventList& events, double rate) {
  LivePass pass;
  auto created = [&] {
    ScopedSpan s(&run.tracer, "timr.LivePipeline::Create");
    return timr::framework::LivePipeline::Create(plan);
  }();
  if (!created.ok()) {
    pass.ok = false;
    pass.error = created.status().ToString();
    return pass;
  }
  auto& pipe = *created.ValueOrDie();
  std::vector<T::EventBatch> morsels;
  std::vector<T::Timestamp> ctis;
  for (size_t at = 0; at < events.size(); at += kMorselEvents) {
    const size_t end = std::min(events.size(), at + kMorselEvents);
    T::EventBatch batch;
    for (size_t i = at; i < end; ++i) batch.Add(events[i]);
    morsels.push_back(std::move(batch));
    ctis.push_back(events[end - 1].le);
  }
  const double interval =
      rate > 0 ? static_cast<double>(kMorselEvents) / rate : 0;
  const double start = NowSeconds();
  for (size_t i = 0; i < morsels.size(); ++i) {
    const double due = start + static_cast<double>(i) * interval;
    if (rate > 0) {
      const double wait = due - NowSeconds();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      pass.late_s.push_back(std::max(0.0, NowSeconds() - due));
    }
    const double t0 = NowSeconds();
    timr::Status st;
    {
      ScopedSpan s(&run.tracer, "timr.LivePipeline::PushBatch");
      st = pipe.PushBatch(timr::bt::kBtInput, std::move(morsels[i]));
    }
    const double t1 = NowSeconds();
    {
      ScopedSpan s(&run.tracer, "timr.LivePipeline::PushCti");
      pipe.PushCti(ctis[i]);
    }
    const double t2 = NowSeconds();
    pass.push_s.push_back(t1 - t0);
    pass.cti_s.push_back(t2 - t1);
    pass.busy_s += t2 - t0;
    if (rate > 0) pass.latency_s.push_back(t2 - due);
    if (!st.ok() && pass.ok) {
      pass.ok = false;
      pass.error = st.ToString();
    }
  }
  {
    ScopedSpan s(&run.tracer, "timr.LivePipeline::Finish");
    pipe.Finish();
  }
  pass.wall_s = NowSeconds() - start;
  pass.output = pipe.TakeOutput();
  return pass;
}

/// Push costs from a closed-loop pass; per-morsel latency, busy share and
/// generator lateness from the open-loop passes.
void SetLiveLayers(Run& run, const LivePass& closed,
                   const std::vector<LivePass>& open) {
  std::vector<double> push_us, cti_us, latency_ms, late_ms;
  for (double s : closed.push_s) push_us.push_back(s * 1e6);
  for (double s : closed.cti_s) cti_us.push_back(s * 1e6);
  double busy = 0, wall = 0;
  for (const LivePass& p : open) {
    for (double s : p.latency_s) latency_ms.push_back(s * 1e3);
    for (double s : p.late_s) late_ms.push_back(s * 1e3);
    busy += p.busy_s;
    wall += p.wall_s;
  }
  run.layers.Set("live.push_us_p50", Median(push_us), "us");
  run.layers.Set("live.push_us_p99", Percentile(push_us, 99), "us");
  run.layers.Set("live.cti_us_p99", Percentile(cti_us, 99), "us");
  run.layers.Set("live.busy_share", busy / wall, "ratio");
  run.layers.Set("live.latency_p50_ms", Median(latency_ms), "ms");
  run.layers.Set("live.latency_p99_ms", Percentile(latency_ms, 99), "ms");
  run.layers.Set("harness.generator_late_ms_p99", Percentile(late_ms, 99),
                 "ms");
}

// --------------------------------------------------------------- probes --
// Traced runs only: time single layers on the workload's own input, and run
// the layers a workload does not exercise itself on that input so every
// per-layer metric has a measured value.

void ProbeConvert(Run& run, const Input& in) {
  std::vector<double> to_events, to_rows;
  bool round_trip = true;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = NowSeconds();
    auto events = [&] {
      ScopedSpan s(&run.tracer, "temporal.EventsFromRows");
      return T::EventsFromRows(RowSchema(), in.rows);
    }();
    to_events.push_back(NowSeconds() - t0);
    if (!events.ok()) {
      run.Check(false, "EventsFromRows: " + events.status().ToString());
      return;
    }
    t0 = NowSeconds();
    auto rows = [&] {
      ScopedSpan s(&run.tracer, "temporal.RowsFromEvents");
      return T::RowsFromEvents(events.ValueOrDie(), false);
    }();
    to_rows.push_back(NowSeconds() - t0);
    round_trip = round_trip && rows.ok() && rows.ValueOrDie() == in.rows;
  }
  run.Check(round_trip, "row -> event -> row round trip changed the rows");
  const double n = static_cast<double>(in.rows.size());
  run.layers.Set("convert.events_from_rows_ns", Median(to_events) * 1e9 / n,
                 "ns/row");
  run.layers.Set("convert.rows_from_events_ns", Median(to_rows) * 1e9 / n,
                 "ns/row");
}

void ProbeRpc(Run& run, const Input& in) {
  std::vector<double> enc, dec;
  size_t bytes = 0;
  bool round_trip = true;
  for (int rep = 0; rep < 3; ++rep) {
    timr::mr::rpc::WireWriter w;
    double t0 = NowSeconds();
    {
      ScopedSpan s(&run.tracer, "rpc.WireWriter::Rows");
      w.Rows(in.rows);
    }
    enc.push_back(NowSeconds() - t0);
    bytes = w.buf().size();
    std::vector<Row> back;
    timr::mr::rpc::WireReader r(w.buf());
    t0 = NowSeconds();
    bool ok = false;
    {
      ScopedSpan s(&run.tracer, "rpc.WireReader::Rows");
      ok = r.Rows(&back);
    }
    dec.push_back(NowSeconds() - t0);
    round_trip = round_trip && ok && r.AtEnd() && back == in.rows;
  }
  run.Check(round_trip, "wire encode/decode changed the rows");
  const double mb = static_cast<double>(bytes) / 1e6;
  run.layers.Set("rpc.encode_mb_s", mb / Median(enc), "MB/s");
  run.layers.Set("rpc.decode_mb_s", mb / Median(dec), "MB/s");
  const double n = static_cast<double>(in.rows.size());
  run.layers.Set("rpc.bytes_per_row", static_cast<double>(bytes) / n, "B/row");
}

void ProbePlans(Run& run, const std::vector<T::PlanNodePtr>& plans) {
  std::vector<double> frag_s, verify_s;
  size_t fragments = 0;
  for (int rep = 0; rep < 5; ++rep) {
    fragments = 0;
    double t0 = NowSeconds();
    for (const auto& plan : plans) {
      ScopedSpan s(&run.tracer, "timr.MakeFragments");
      auto f = timr::framework::MakeFragments(plan);
      run.Check(f.ok(), "MakeFragments: " + f.status().ToString());
      if (f.ok()) fragments += f.ValueOrDie().fragments.size();
    }
    frag_s.push_back(NowSeconds() - t0);
    t0 = NowSeconds();
    for (const auto& plan : plans) {
      ScopedSpan s(&run.tracer, "analysis.VerifyPlanForExecution");
      const timr::Status st = timr::analysis::VerifyPlanForExecution(plan);
      run.Check(st.ok(), "VerifyPlanForExecution: " + st.ToString());
    }
    verify_s.push_back(NowSeconds() - t0);
  }
  run.layers.Set("timr.fragments", static_cast<double>(fragments), "count");
  run.layers.Set("timr.make_fragments_s", Median(frag_s), "s");
  run.layers.Set("analysis.verify_s", Median(verify_s), "s");
}

/// Feature-score rows, Z rounded and sorted: the custom job emits bare rows
/// and computes Z in its own order, so equality is up to rounding.
std::vector<Row> CanonicalScores(std::vector<Row> rows) {
  for (Row& r : rows) {
    r[6] = timr::Value(std::round(r[6].AsDouble() * 1e9) / 1e9);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The BT pipeline through RunPlan on nproc threads and on one, and the
/// hand-written custom job, all on this workload's log (thread mode).
void ProbeOffline(Run& run, const Input& in, const T::PlanNodePtr& plan) {
  timr::mr::LocalCluster wide(kMachines, run.nproc);
  timr::mr::LocalCluster narrow(kMachines, 1);
  run.tracer.set_run(-1);
  const Job a = RunTimrJob(run, &wide, plan, in.rows, {},
                           "probe.RunPlan(nproc threads)");
  const Job b = RunTimrJob(run, &narrow, plan, in.rows, {},
                           "probe.RunPlan(1 thread)");
  run.Check(a.ok && b.ok, "probe RunPlan: " + a.error + b.error);
  run.Check(Identical(a.output, b.output),
            "1-thread and nproc-thread outputs differ");
  Store store = StoreOf(in.rows);
  const double t0 = NowSeconds();
  auto custom = [&] {
    ScopedSpan s(&run.tracer, "bt.RunCustomBtJob");
    return timr::bt::RunCustomBtJob(&wide, &store, BtConfig());
  }();
  const double custom_s = NowSeconds() - t0;
  if (!a.ok || !b.ok) return;
  if (!custom.ok()) {
    run.Check(false, "custom job: " + custom.status().ToString());
    return;
  }
  std::vector<Row> timr_scores;
  for (const T::Event& e : a.output) timr_scores.push_back(e.payload);
  run.Check(CanonicalScores(std::move(timr_scores)) ==
                CanonicalScores(custom.ValueOrDie().feature_scores),
            "custom job feature scores differ from the TiMR job's");
  const double custom_sim =
      custom.ValueOrDie().job_stats.TotalSimulatedSeconds();
  run.layers.Set("pool.speedup_x", b.wall_s / a.wall_s, "ratio");
  run.layers.Set("bt.custom_job_s", custom_s, "s");
  const double timr_sim = a.stats.TotalSimulatedSeconds();
  run.layers.Set("bt.overhead_vs_custom", (timr_sim - custom_sim) / custom_sim,
                 "ratio");
  Loop probe;
  probe.samples.push_back(a.ToSample());
  SetLayersFromLoop(run, probe, run.nproc);
}

/// A closed-loop pass, then an open-loop pass at half the measured capacity,
/// over a prefix of this workload's log.
void ProbeLive(Run& run, const Input& in, const T::PlanNodePtr& plan) {
  const size_t n = std::min(kLiveProbeEvents, in.log.events.size());
  const EventList prefix(in.log.events.begin(), in.log.events.begin() + n);
  run.tracer.set_run(-2);
  const LivePass closed = RunLivePass(run, plan, prefix, 0);
  std::vector<LivePass> open;
  const double rate = 0.5 * static_cast<double>(n) / closed.wall_s;
  open.push_back(RunLivePass(run, plan, prefix, rate));
  run.Check(closed.ok && open[0].ok,
            "probe live pass: " + closed.error + open[0].error);
  run.Check(T::SameTemporalRelation(closed.output, open[0].output),
            "closed- and open-loop live outputs differ");
  SetLiveLayers(run, closed, open);
}

void Probes(Run& run, const Input& in,
            const std::vector<T::PlanNodePtr>& plans) {
  if (!run.cfg.trace) return;
  const T::PlanNodePtr pipeline = Pipeline(timr::bt::Annotation::kStandard);
  ProbeConvert(run, in);
  ProbeRpc(run, in);
  ProbePlans(run, plans);
  ProbeOffline(run, in, pipeline);
  ProbeLive(run, in, pipeline);
}

// ------------------------------------------------------------ workloads --

EventList SingleNodeReference(Run& run, const Input& in) {
  ScopedSpan s(&run.tracer, "reference.Executor::Execute");
  auto ref = T::Executor::Execute(Pipeline(timr::bt::Annotation::kNone),
                                  {{timr::bt::kBtInput, in.log.events}});
  run.Check(ref.ok(), "single-node reference: " + ref.status().ToString());
  return ref.ok() ? std::move(ref).ValueOrDie() : EventList{};
}

/// bt_batch: the BT pipeline through RunPlan in thread mode, each job checked
/// against the single-node engine.
void BtBatch(Run& run) {
  T::PlanNodePtr plan;
  const Input in = Setup(run, [&](const Input&) {
    plan = Pipeline(timr::bt::Annotation::kStandard);
  });
  const EventList ref = SingleNodeReference(run, in);
  timr::mr::LocalCluster cluster(kMachines, run.nproc);
  const Loop loop = MeasureLoop(run, run.cfg.seconds, [&] {
    Job job = RunTimrJob(run, &cluster, plan, in.rows, {}, "timr.RunPlan");
    run.Op(job.ok && T::SameTemporalRelation(job.output, ref),
           "bt_batch job differs from the single-node reference " + job.error);
    return job.ToSample();
  });
  SetJobMetrics(run, loop);
  SetLayersFromLoop(run, loop, run.nproc);
  Probes(run, in, {plan});
}

/// bt_procs: the same plan on a gang of forked workers, each job byte-identical
/// to a thread-mode run of the same input.
void BtProcs(Run& run) {
  T::PlanNodePtr plan;
  const Input in = Setup(run, [&](const Input&) {
    plan = Pipeline(timr::bt::Annotation::kStandard);
  });
  run.workers = kProcWorkers;
  timr::mr::LocalCluster cluster(kMachines, run.nproc);
  const Job ref = RunTimrJob(run, &cluster, plan, in.rows, {},
                             "reference.RunPlan(threads)");
  run.Check(ref.ok, "thread-mode reference: " + ref.error);
  timr::framework::TimrOptions procs;
  procs.process.workers = kProcWorkers;
  const Loop loop = MeasureLoop(run, run.cfg.seconds, [&] {
    Job job = RunTimrJob(run, &cluster, plan, in.rows, procs,
                         "timr.RunPlan(procs)");
    run.Op(job.ok && Identical(job.output, ref.output),
           "process-mode output differs from thread mode " + job.error);
    return job.ToSample();
  });
  SetJobMetrics(run, loop);
  SetLayersFromLoop(run, loop, kProcWorkers);
  if (run.cfg.trace) {
    std::vector<double> threads_s;
    for (int i = 0; i < 3; ++i) {
      const Job t = RunTimrJob(run, &cluster, plan, in.rows, {},
                               "timr.RunPlan(threads)");
      run.Check(t.ok && Identical(t.output, ref.output),
                "thread-mode rerun differs");
      threads_s.push_back(t.wall_s);
    }
    run.layers.Set("procs.tax_x",
                   Median(loop.Walls(false)) / Median(threads_s), "ratio");
  }
  Probes(run, in, {plan});
}

/// cq_suite: the 20-CQ catalog as one merged job with shared fragments and
/// adaptive skew splitting, on a Zipf-skewed log.
void CqSuite(Run& run) {
  std::vector<std::pair<std::string, T::PlanNodePtr>> queries;
  const Input in = Setup(run, [&](const Input&) {
    queries = timr::bt::BtCqSuite(BtConfig());
  });
  timr::mr::LocalCluster cluster(kMachines, run.nproc);
  // Reference: each CQ on its own through RunPlan, nothing shared or split.
  std::vector<EventList> ref;
  for (const auto& [name, plan] : queries) {
    const Job job =
        RunTimrJob(run, &cluster, plan, in.rows, {}, "reference.RunPlan");
    run.Check(job.ok, "reference " + name + ": " + job.error);
    ref.push_back(job.output);
  }
  timr::framework::SuiteOptions options;
  options.share_fragments = true;
  options.timr.skew.adaptive_repartition = true;
  timr::framework::SuiteRunResult last;
  const Loop loop = MeasureLoop(run, run.cfg.seconds, [&] {
    options.timr.collect_engine_stats = run.tracer.enabled();
    Store store = StoreOf(in.rows);
    const double t0 = NowSeconds();
    auto res = [&] {
      ScopedSpan s(&run.tracer, "bt.RunBtCqSuite");
      return timr::bt::RunBtCqSuite(&cluster, &store, BtConfig(), options);
    }();
    Sample sample;
    sample.wall_s = NowSeconds() - t0;
    bool ok = res.ok() && res.ValueOrDie().outputs.size() == ref.size();
    if (ok) {
      last = std::move(res).ValueOrDie();
      for (size_t q = 0; q < ref.size(); ++q) {
        ok = ok && T::SameTemporalRelation(last.outputs[q], ref[q]);
      }
      sample.sim_s = last.job_stats.TotalSimulatedSeconds();
      sample.stats = last.job_stats;
      for (const auto& f : last.fragment_stats) {
        sample.engine_events += f.engine_events_consumed;
      }
    }
    run.Op(ok, "cq_suite job differs from the independent runs " +
                   (res.ok() ? std::string() : res.status().ToString()));
    return sample;
  });
  SetJobMetrics(run, loop);
  run.layers.Set("suite.shared_fragments",
                 static_cast<double>(last.shared.size()), "count");
  run.layers.Set("suite.rows_executed_once",
                 static_cast<double>(last.rows_executed_once), "count");
  run.layers.Set("timr.fragments",
                 static_cast<double>(last.fragment_stats.size()), "count");
  SetLayersFromLoop(run, loop, run.nproc);
  std::vector<T::PlanNodePtr> plans;
  for (const auto& q : queries) plans.push_back(q.second);
  Probes(run, in, plans);
}

void PrintLayerTable(const Tracer& tracer) {
  auto layers = tracer.Layers();
  std::vector<std::pair<std::string, Tracer::LayerTime>> rows(layers.begin(),
                                                               layers.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::fprintf(stderr, "\n%-40s %8s %12s %12s\n", "span (traced calls)",
               "count", "total_s", "self_s");
  for (const auto& [name, t] : rows) {
    std::fprintf(stderr, "%-40s %8d %12.6f %12.6f\n", name.c_str(), t.count,
                 t.total_s, t.self_s);
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"bt_batch", "bt_procs",
                                                  "cq_suite"};
  return kNames;
}

RunOutput RunWorkload(const RunConfig& config) {
  Run run(config);
  if (config.workload == "bt_batch") BtBatch(run);
  if (config.workload == "bt_procs") BtProcs(run);
  if (config.workload == "cq_suite") CqSuite(run);

  RunOutput out;
  out.correct = run.correct && run.failed == 0 && run.attempted > 0;
  out.attempted = run.attempted;
  out.failed = run.failed;
  const double error_rate = run.attempted > 0
                                ? static_cast<double>(run.failed) /
                                      static_cast<double>(run.attempted)
                                : 1.0;
  run.layers.Set("error_rate", error_rate, "ratio");
  run.layers.Set("procs.worker_peak_rss_mb", WorkerPeakRssMb(), "MB");
  // Layers only one workload exercises are true zeros on the others (Set
  // keeps the value a workload wrote first).
  run.layers.Set("procs.tax_x", 0, "ratio");
  run.layers.Set("suite.shared_fragments", 0, "count");
  run.layers.Set("suite.rows_executed_once", 0, "count");
  out.metrics = config.trace ? run.layers : run.e2e;
  if (config.trace) {
    PrintLayerTable(run.tracer);
    if (!config.trace_file.empty()) {
      const bool written = run.tracer.WriteChromeTrace(config.trace_file);
      if (!written) out.correct = false;
      std::fprintf(stderr, "trace file: %s%s\n", config.trace_file.c_str(),
                   written ? "" : " (write FAILED)");
    }
  }

  const Sizing sizing = SizingFor(config);
  auto& p = out.provenance;
  p.emplace_back("workload", JsonString(config.workload));
  p.emplace_back("seed", std::to_string(config.seed));
  p.emplace_back("size", JsonString(config.tiny ? "tiny" : "full"));
  p.emplace_back("users", std::to_string(sizing.users));
  p.emplace_back("user_activity_zipf", JsonNumber(sizing.zipf));
  p.emplace_back("events", std::to_string(run.events));
  p.emplace_back("machines_modelled", std::to_string(kMachines));
  p.emplace_back("nproc", std::to_string(run.nproc));
  p.emplace_back("threads", std::to_string(run.nproc));
  p.emplace_back("workers", std::to_string(run.workers));
  p.emplace_back("samples", std::to_string(run.samples));
  p.emplace_back("samples_kept", std::to_string(run.samples_kept));
  p.emplace_back("peak_rss_reset", run.peak_rss_reset ? "true" : "false");
  p.emplace_back("host_steal_share", JsonNumber(run.host_steal_share));
  p.emplace_back("seconds", JsonNumber(config.seconds));
  p.emplace_back("trace", config.trace ? "1" : "0");
  p.emplace_back("build_type", JsonString(PERFBENCH_BUILD_TYPE));
#if defined(__clang__)
  p.emplace_back("compiler", JsonString(std::string("clang ") + __VERSION__));
#else
  p.emplace_back("compiler", JsonString(std::string("gcc ") + __VERSION__));
#endif
  return out;
}

}  // namespace perfbench
