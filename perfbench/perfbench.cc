// The repository benchmark: four workloads that stress different layers
// of the simulator, each run from a seed, measured for a fixed wall time,
// and checked against an independent computation of the same outputs.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <metrics.json> [--trace-out <spans.json>]
//
// Workloads (sizes and reasons are recorded in BENCHMARK.json and
// perfbench/layers.json):
//   serial_paper     three Section 5 traces, each replayed through the six
//                    paper policies on one thread, in 256-event batches;
//   sharded_fit      an 88 MiB UpdatedPointer run split over 16 shards and
//                    4 threads (ConcurrentSimulator), buffers that fit;
//   fleet_open       16 tenants on 4 threads in a HeapService, no pressure;
//   fleet_pressured  the same tenants over half the summed quotas with the
//                    admission watermark at 0.5.
//
// --trace 0 reports the end-to-end metrics. --trace 1 is a separate run of
// the same workload that times calls into each layer from outside (the
// generator, Simulator::Append/Finish, ConcurrentSimulator::Run,
// HeapService) and reads the counters the layers already publish; it
// reports the per-layer metrics and writes its spans to --trace-out.
//
// Exit status: 0 when every output matched its reference, 1 on a mismatch
// or a failed operation, 2 on bad arguments.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "observe/json.h"
#include "observe/observer.h"
#include "service/heap_service.h"
#include "sim/concurrent_simulator.h"
#include "sim/config.h"
#include "sim/simulator.h"
#include "sim/spec.h"
#include "trace/event.h"
#include "workload/generator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using odbgc::ConcurrentSimulator;
using odbgc::EventKind;
using odbgc::HeapService;
using odbgc::Json;
using odbgc::ServiceResult;
using odbgc::ServiceSpec;
using odbgc::SimulationConfig;
using odbgc::SimulationResult;
using odbgc::Simulator;
using odbgc::Status;
using odbgc::TenantSpec;
using odbgc::TraceEvent;
using odbgc::WorkloadGenerator;
using Clock = std::chrono::steady_clock;

constexpr size_t kBatchEvents = 256;
constexpr uint32_t kThreads = 4;
constexpr uint32_t kShards = 16;
constexpr uint32_t kTenants = 16;
// Batches per window of batch_p99_us: the fewest that leave ten samples
// beyond the p99.
constexpr size_t kLatencyWindow = 1000;
// Set-up repetitions per run of the workloads whose set-up builds heaps
// only; setup_s is their median.
constexpr int kHeapSetupReps = 51;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string trace_out;
};

// Metrics, operation counts and free-form detail of one run.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    Json entry = Json::Obj();
    entry.Set("value", Json::Double(value));
    entry.Set("unit", Json::Str(unit));
    metrics_.Set(name, std::move(entry));
  }
  void Extra(const std::string& key, Json value) {
    extra_.Set(key, std::move(value));
  }

  // One operation: always attempted; failed when `ok` is false.
  bool Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      errors_.push_back(what);
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
    return ok;
  }
  bool Op(const Status& status, const std::string& what) {
    return Op(status.ok(), what + (status.ok() ? "" : ": " + status.ToString()));
  }
  bool Compare(const SimulationResult& expected, const SimulationResult& actual,
               const std::string& what) {
    const std::vector<std::string> diff = ResultMismatches(expected, actual);
    std::string fields;
    for (const std::string& field : diff) fields += " " + field;
    return Op(diff.empty(), what + " differs in" + fields);
  }

  bool correct() const { return failed_ == 0; }

  Json ToJson() const {
    Json root = Json::Obj();
    root.Set("correct", Json::Bool(correct()));
    root.Set("attempted", Json::UInt(attempted_));
    root.Set("failed", Json::UInt(failed_));
    Json errors = Json::Arr();
    for (const std::string& error : errors_) errors.Push(Json::Str(error));
    root.Set("errors", std::move(errors));
    root.Set("metrics", metrics_);
    root.Set("extra", extra_);
    return root;
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  Json metrics_ = Json::Obj();
  Json extra_ = Json::Obj();
};

// ---- Timed calls into Simulator::Append ------------------------------------

// Per-call timing of a traced replay: one histogram per event kind for
// calls that ran no collection, one for the calls that did (each of
// those also leaves a span), and the wall time of the replays from heap
// construction through Finish.
struct CallProfile {
  LogHistogram by_kind[8];
  LogHistogram collection_calls;
  double replay_seconds = 0;
  std::vector<double> finish_ms;

  double TimedSeconds() const {
    uint64_t ns = collection_calls.sum_ns();
    for (const LogHistogram& h : by_kind) ns += h.sum_ns();
    return static_cast<double>(ns) * 1e-9;
  }
};

Status GenerateTrace(const SimulationConfig& config, CompactTrace* trace) {
  WorkloadGenerator generator(config.workload, config.seed);
  return generator.Generate(trace);
}

// Replays `trace` through `sim` in kBatchEvents batches, timing each
// batch into `pauses` and adding the time spent in Append to `*seconds`.
// Each batch is decoded before its timed interval starts.
Status ReplayBatches(Simulator* sim, const CompactTrace& trace,
                     PauseDetector* pauses, double* seconds) {
  CompactTrace::Reader reader(trace);
  std::vector<TraceEvent> batch;
  batch.reserve(kBatchEvents);
  while (reader.Next(kBatchEvents, &batch)) {
    const uint64_t before = sim->heap().stats().collections;
    const auto start = Clock::now();
    for (const TraceEvent& event : batch) {
      ODBGC_RETURN_IF_ERROR(sim->Append(event));
    }
    const double elapsed = SecondsSince(start);
    *seconds += elapsed;
    pauses->Record(elapsed, before, sim->heap().stats().collections);
  }
  return Status::Ok();
}

// Replays `trace` through `sim` timing every Append. Timestamps are
// chained: each call is charged the interval since the previous call
// returned, so the wall time of the replay is attributed in full and the
// harness's own per-event cost (one clock read plus bookkeeping) lands in
// the call it precedes. bench.trace_overhead_frac reports that cost. The
// time spent decoding batches is kept out of the chain and added to
// `*decode_seconds`.
Status ReplayTimedCalls(Simulator* sim, const CompactTrace& trace,
                        CallProfile* calls, SpanRecorder* spans,
                        uint32_t parent, double* decode_seconds) {
  CompactTrace::Reader reader(trace);
  std::vector<TraceEvent> batch;
  batch.reserve(kBatchEvents);
  uint64_t collections = sim->heap().stats().collections;
  auto mark = Clock::now();
  while (reader.Next(kBatchEvents, &batch)) {
    auto last = Clock::now();
    *decode_seconds += std::chrono::duration<double>(last - mark).count();
    for (const TraceEvent& event : batch) {
      const Status status = sim->Append(event);
      const auto now = Clock::now();
      ODBGC_RETURN_IF_ERROR(status);
      const uint64_t after = sim->heap().stats().collections;
      if (after != collections) {
        collections = after;
        calls->collection_calls.Add(NanosBetween(last, now));
        spans->Add("append.collection", parent, last, now);
      } else {
        calls->by_kind[static_cast<size_t>(event.kind) & 7].Add(
            NanosBetween(last, now));
      }
      last = now;
    }
    mark = last;
  }
  return Status::Ok();
}

// Feeds generated events to a Simulator in kBatchEvents batches, timing
// each batch — a streaming solo run, equal to Simulator::Run().
class BatchReplaySink : public odbgc::TraceSink {
 public:
  BatchReplaySink(Simulator* sim, PauseDetector* pauses)
      : sim_(sim), pauses_(pauses) {
    buffer_.reserve(kBatchEvents);
  }

  Status Append(const TraceEvent& event) override {
    buffer_.push_back(event);
    return buffer_.size() == kBatchEvents ? Flush() : Status::Ok();
  }

  Status Flush() {
    if (buffer_.empty()) return Status::Ok();
    const uint64_t before = sim_->heap().stats().collections;
    const auto start = Clock::now();
    for (const TraceEvent& event : buffer_) {
      ODBGC_RETURN_IF_ERROR(sim_->Append(event));
    }
    pauses_->Record(SecondsSince(start), before,
                    sim_->heap().stats().collections);
    buffer_.clear();
    return Status::Ok();
  }

 private:
  Simulator* sim_;
  PauseDetector* pauses_;
  std::vector<TraceEvent> buffer_;
};

// A solo serial run of `config` streamed through BatchReplaySink.
struct SoloRun {
  Status status;
  SimulationResult result;
  double seconds = 0;
};

SoloRun RunSolo(const SimulationConfig& config, PauseDetector* pauses) {
  SoloRun run;
  const auto start = Clock::now();
  Simulator sim(config);
  BatchReplaySink sink(&sim, pauses);
  WorkloadGenerator generator(config.workload, config.seed);
  run.status = generator.Generate(&sink);
  if (run.status.ok()) run.status = sink.Flush();
  run.result = sim.Finish();
  run.seconds = SecondsSince(start);
  return run;
}

// Solo serial runs of a list of configs: every shard or tenant alone
// through Simulator, in order. An untraced run interleaves them with its
// measured units, a few after each, so the batch latencies they give
// sample the whole run rather than its last seconds.
class SoloReplays {
 public:
  static constexpr size_t kPerUnit = 3;

  explicit SoloReplays(std::vector<SimulationConfig> configs)
      : configs_(std::move(configs)) {}

  // Runs up to `count` more configs; a span per run when `spans` is set.
  void Next(size_t count, SpanRecorder* spans) {
    for (; count > 0 && runs_.size() < configs_.size(); --count) {
      const uint32_t span = spans != nullptr ? spans->Begin("solo") : 0;
      runs_.push_back(RunSolo(configs_[runs_.size()], &pauses_));
      if (spans != nullptr) spans->End(span);
    }
  }
  void Rest(SpanRecorder* spans) { Next(configs_.size(), spans); }

  const std::vector<SoloRun>& runs() const { return runs_; }
  const PauseDetector& pauses() const { return pauses_; }
  double seconds() const {
    double total = 0;
    for (const SoloRun& run : runs_) total += run.seconds;
    return total;
  }

 private:
  std::vector<SimulationConfig> configs_;
  std::vector<SoloRun> runs_;
  PauseDetector pauses_;
};

// Replays each config's trace with every Append timed (the sim layer's
// per-call histograms), then times Finish.
void ProfileAppends(const std::vector<SimulationConfig>& configs,
                    CallProfile* calls, SpanRecorder* spans, Report* report) {
  for (const SimulationConfig& config : configs) {
    CompactTrace trace;
    if (!report->Op(GenerateTrace(config, &trace), "generate profiled trace")) {
      return;
    }
    const auto built = Clock::now();
    Simulator sim(config);
    const uint32_t span = spans->Begin("replay.timed");
    double decode_seconds = 0;
    report->Op(
        ReplayTimedCalls(&sim, trace, calls, spans, span, &decode_seconds),
        "timed replay " + config.heap.policy_name);
    const auto finish_start = Clock::now();
    sim.Finish();
    const auto finish_end = Clock::now();
    spans->Add("finish", span, finish_start, finish_end);
    spans->End(span);
    calls->replay_seconds +=
        std::chrono::duration<double>(finish_end - built).count() -
        decode_seconds;
    calls->finish_ms.push_back(
        std::chrono::duration<double, std::milli>(finish_end - finish_start)
            .count());
  }
}

// ---- Generator alone ---------------------------------------------------------

class CountingSink : public odbgc::TraceSink {
 public:
  Status Append(const TraceEvent&) override {
    ++events_;
    return Status::Ok();
  }
  uint64_t events() const { return events_; }

 private:
  uint64_t events_ = 0;
};

struct GenProbe {
  uint64_t events = 0;
  double seconds = 0;
};

// Runs the generator alone over `configs`, a span per generator round.
GenProbe ProbeGenerator(const std::vector<SimulationConfig>& configs,
                        SpanRecorder* spans, Report* report) {
  GenProbe probe;
  for (const SimulationConfig& config : configs) {
    CountingSink sink;
    WorkloadGenerator generator(config.workload, config.seed);
    const uint32_t span = spans->Begin("generator");
    const auto start = Clock::now();
    Status status = generator.BuildInitialDatabase(&sink);
    while (status.ok() && !generator.Done()) {
      const auto round_start = Clock::now();
      status = generator.RunRound(&sink);
      spans->Add("generator.round", span, round_start, Clock::now());
    }
    probe.seconds += SecondsSince(start);
    spans->End(span);
    probe.events += sink.events();
    report->Op(status, "generator alone");
  }
  return probe;
}

void ReportGenerator(const GenProbe& probe, uint64_t workload_events,
                     double run_seconds_1thread, Report* report) {
  const double ns_per_event =
      probe.events == 0 ? 0 : probe.seconds * 1e9 / probe.events;
  report->Metric("workload.gen_ns_per_event", ns_per_event, "ns");
  // The generator's share of a one-thread run of the whole workload,
  // extrapolated at the probed rate when only part was generated.
  report->Metric("workload.gen_share",
                 ns_per_event * 1e-9 * static_cast<double>(workload_events) /
                     run_seconds_1thread,
                 "ratio");
  report->Metric("workload.trace_mb",
                 static_cast<double>(workload_events) * sizeof(TraceEvent) /
                     (1024.0 * 1024.0),
                 "MiB");
}

// ---- Shared reporting -------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

Json PercentileDetail(const std::vector<double>& samples) {
  Json detail = Json::Obj();
  detail.Set("samples", Json::UInt(samples.size()));
  const double highest = HighestSupportedPercentile(samples.size());
  detail.Set("highest_supported_percentile", Json::Double(highest));
  detail.Set("value_at_highest",
             Json::Double(highest > 0 ? Percentile(samples, highest) : 0));
  return detail;
}

// The end-to-end metrics every workload reports. events_per_s is the
// whole-run rate of the untraced units; batch_p99_us is the median over
// consecutive windows of kLatencyWindow batches of each window's p99 (see
// WindowedPercentile); pauses are pooled.
void ReportEndToEnd(const RateTally& rate,
                    const std::vector<double>& setup_seconds, double rss_mb,
                    const std::vector<double>& batches,
                    const std::vector<double>& pause, Report* report) {
  report->Metric("events_per_s", rate.Rate(), "1/s");
  report->Metric("setup_s", Median(setup_seconds), "s");
  report->Metric("peak_rss_mb", rss_mb, "MB");
  report->Op(batches.size() >= kLatencyWindow,
             "batch_p99_us needs a full window of batches, got " +
                 std::to_string(batches.size()));
  report->Op(PercentileSupported(pause.size(), 90),
             "pause_p90_ms needs more pauses than " +
                 std::to_string(pause.size()));
  report->Metric("batch_p99_us",
                 WindowedPercentile(batches, kLatencyWindow, 99), "us");
  report->Metric("pause_p50_ms", Percentile(pause, 50), "ms");
  report->Metric("pause_p90_ms", Percentile(pause, 90), "ms");
  report->Extra("batch_us", PercentileDetail(batches));
  report->Extra("pause_ms", PercentileDetail(pause));
  Json units = Json::Arr();
  for (double v : rate.unit_rates()) units.Push(Json::Double(v));
  report->Extra("unit_events_per_s", std::move(units));
}

void ReportCalls(const CallProfile& calls, Report* report) {
  const struct {
    EventKind kind;
    const char* name;
  } kKinds[] = {{EventKind::kAlloc, "alloc"},
                {EventKind::kWriteSlot, "write_slot"},
                {EventKind::kReadSlot, "read_slot"},
                {EventKind::kVisit, "visit"}};
  for (const auto& k : kKinds) {
    const LogHistogram& h = calls.by_kind[static_cast<size_t>(k.kind)];
    report->Metric(std::string("sim.") + k.name + "_ns_p50", h.Percentile(50),
                   "ns");
    report->Metric(std::string("sim.") + k.name + "_ns_p99", h.Percentile(99),
                   "ns");
  }
  report->Metric("sim.finish_ms", Median(calls.finish_ms), "ms");
  const double share = calls.replay_seconds > 0
                           ? calls.TimedSeconds() / calls.replay_seconds
                           : 0;
  report->Metric("sim.attributed_share", share, "ratio");
  Json kinds = Json::Obj();
  for (size_t k = 0; k < 8; ++k) {
    if (calls.by_kind[k].count() == 0) continue;
    Json entry = Json::Obj();
    entry.Set("calls", Json::UInt(calls.by_kind[k].count()));
    entry.Set("total_ms", Json::Double(calls.by_kind[k].sum_ns() * 1e-6));
    kinds.Set(odbgc::EventKindName(static_cast<EventKind>(k)),
              std::move(entry));
  }
  Json collection = Json::Obj();
  collection.Set("calls", Json::UInt(calls.collection_calls.count()));
  collection.Set("total_ms",
                 Json::Double(calls.collection_calls.sum_ns() * 1e-6));
  kinds.Set("collection_calls", std::move(collection));
  report->Extra("append_calls", std::move(kinds));
}

// Core, buffer and arena counters of one workload execution.
struct LayerCounters {
  double collection_ms = 0;
  double census_ms = 0;
  uint64_t live_bytes_copied = 0;
  uint64_t pointer_overwrites = 0;
  uint64_t remset_entries = 0;
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  uint64_t buffer_writebacks = 0;
  uint64_t arena_peak_frames = 0;
  uint64_t squeezed_evictions = 0;

  void AddResult(const SimulationResult& r) {
    live_bytes_copied += r.live_bytes_copied;
    pointer_overwrites += r.pointer_overwrites;
    remset_entries += r.remset_entries;
    buffer_hits += r.buffer_stats.hits;
    buffer_misses += r.buffer_stats.misses;
    buffer_writebacks += r.buffer_stats.writes_app + r.buffer_stats.writes_gc;
  }
};

void ReportLayerCounters(const LayerCounters& c, Report* report) {
  report->Metric("core.collection_ms", c.collection_ms, "ms");
  report->Metric("core.census_ms", c.census_ms, "ms");
  report->Metric("core.copy_ns_per_kb",
                 c.live_bytes_copied == 0
                     ? 0
                     : c.collection_ms * 1e6 /
                           (static_cast<double>(c.live_bytes_copied) / 1024.0),
                 "ns/KiB");
  report->Metric("core.pointer_overwrites",
                 static_cast<double>(c.pointer_overwrites), "count");
  report->Metric("core.remset_entries", static_cast<double>(c.remset_entries),
                 "count");
  const uint64_t accesses = c.buffer_hits + c.buffer_misses;
  report->Metric("buffer.miss_ratio",
                 accesses == 0 ? 0
                               : static_cast<double>(c.buffer_misses) /
                                     static_cast<double>(accesses),
                 "ratio");
  report->Metric("buffer.misses", static_cast<double>(c.buffer_misses),
                 "count");
  report->Metric("buffer.writebacks",
                 static_cast<double>(c.buffer_writebacks), "count");
  report->Metric("arena.peak_frames", static_cast<double>(c.arena_peak_frames),
                 "frames");
  report->Metric("arena.squeezed_evictions",
                 static_cast<double>(c.squeezed_evictions), "count");
}

struct ServiceLayer {
  double rounds = 0;
  double round_us = 0;
  double forced_collections = 0;
  double admission_stalls = 0;
  double orchestration_share = 0;
  double speedup_4v1 = 0;
};

void ReportService(const ServiceLayer& s, Report* report) {
  report->Metric("service.rounds", s.rounds, "count");
  report->Metric("service.round_us", s.round_us, "us");
  report->Metric("service.forced_collections", s.forced_collections, "count");
  report->Metric("service.admission_stalls", s.admission_stalls, "count");
  report->Metric("service.orchestration_share", s.orchestration_share,
                 "ratio");
  report->Metric("service.speedup_4v1", s.speedup_4v1, "x");
}

struct ShardedLayer {
  double busy_frac = 0;
  double steals = 0;
  double speedup_4v1 = 0;
};

void ReportSharded(const ShardedLayer& s, Report* report) {
  report->Metric("sharded.busy_frac", s.busy_frac, "ratio");
  report->Metric("sharded.steals", s.steals, "count");
  report->Metric("sharded.speedup_4v1", s.speedup_4v1, "x");
}

void ReportTraceOverhead(const RateTally& untraced, const RateTally& traced,
                         Report* report) {
  const double base = untraced.Rate();
  const double with_trace = traced.Rate();
  report->Metric("bench.traced_events_per_s", with_trace, "1/s");
  report->Metric("bench.trace_overhead_frac",
                 base > 0 ? (base - with_trace) / base : 0, "ratio");
}

// Runs `unit(traced)` until `seconds` have passed, at least once; with
// tracing on, the first half of the time runs untraced units and the
// second half traced ones. Stops early when a unit fails.
void RepeatUnits(const Options& options,
                 const std::function<bool(bool traced)>& unit) {
  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  auto start = Clock::now();
  do {
    if (!unit(false)) return;
  } while (SecondsSince(start) < untraced_seconds);
  if (!options.trace) return;
  start = Clock::now();
  do {
    if (!unit(true)) return;
  } while (SecondsSince(start) < options.seconds / 2);
}

// ---- serial_paper -----------------------------------------------------------

const std::vector<std::string>& PaperPolicies() {
  static const std::vector<std::string> kPolicies = {
      "UpdatedPointer", "WeightedPointer", "MutatedPartition",
      "Random",         "MostGarbage",     "NoCollection"};
  return kPolicies;
}

// Traces per serial_paper run, each a paper-base trace of its own seed
// derived from the run's. One seed's collections differ enough from
// another's (a median pause of 2.4 ms on one seed, 3.7 ms on another) that
// with a single trace the pause metrics would follow the seed.
constexpr uint32_t kSerialTraces = 3;

SimulationConfig SerialConfig(uint64_t seed, uint32_t trace,
                              const std::string& policy) {
  SimulationConfig config = odbgc::PaperBaseConfig();
  config.heap.policy_name = policy;
  config.seed = ConcurrentSimulator::ShardSeed(seed, trace);
  return config;
}

double WallMs(const Simulator& sim, const char* counter) {
  const odbgc::MetricCounter* c = sim.heap().wall_metrics()->Find(counter);
  return c == nullptr ? 0 : static_cast<double>(c->total()) * 1e-6;
}

void SerialPaper(const Options& options, Report* report, SpanRecorder* spans) {
  const std::vector<std::string>& policies = PaperPolicies();
  const size_t replays = kSerialTraces * policies.size();
  const auto config_of = [&](size_t replay) {
    return SerialConfig(options.seed,
                        static_cast<uint32_t>(replay / policies.size()),
                        policies[replay % policies.size()]);
  };

  // Set-up of each trace: generating it and constructing its six heaps.
  std::vector<CompactTrace> traces(kSerialTraces);
  std::vector<double> setup_seconds;
  for (uint32_t t = 0; t < kSerialTraces; ++t) {
    const auto start = Clock::now();
    if (!report->Op(GenerateTrace(SerialConfig(options.seed, t, policies[0]),
                                  &traces[t]),
                    "generate paper trace " + std::to_string(t))) {
      return;
    }
    for (const std::string& policy : policies) {
      Simulator sim(SerialConfig(options.seed, t, policy));
    }
    setup_seconds.push_back(SecondsSince(start));
  }

  // A unit replays every trace through every policy. Its time is the time
  // spent in Append and Finish, so decoding the stored trace is left out.
  RateTally rates[2];
  std::vector<std::vector<SimulationResult>> unit_results;
  PauseDetector pauses;
  CallProfile calls;
  LayerCounters layers;
  RepeatUnits(options, [&](bool traced) {
    const uint32_t unit_span = traced ? spans->Begin("unit") : 0;
    std::vector<SimulationResult> results;
    uint64_t events = 0;
    double seconds = 0;
    LayerCounters counters;
    for (size_t r = 0; r < replays; ++r) {
      const SimulationConfig config = config_of(r);
      const auto built = Clock::now();
      Simulator sim(config);
      const uint32_t span = traced ? spans->Begin("replay", unit_span) : 0;
      const CompactTrace& trace = traces[r / policies.size()];
      double append_seconds = 0;
      double decode_seconds = 0;
      const auto start = Clock::now();
      const Status status =
          traced ? ReplayTimedCalls(&sim, trace, &calls, spans, span,
                                    &decode_seconds)
                 : ReplayBatches(&sim, trace, &pauses, &append_seconds);
      if (!report->Op(status, "replay " + config.heap.policy_name +
                                  " on trace " +
                                  std::to_string(r / policies.size()))) {
        return false;
      }
      const auto finish_start = Clock::now();
      results.push_back(sim.Finish());
      const auto end = Clock::now();
      const double finish_seconds =
          std::chrono::duration<double>(end - finish_start).count();
      if (traced) {
        seconds += std::chrono::duration<double>(end - start).count() -
                   decode_seconds;
        spans->Add("finish", span, finish_start, end);
        spans->End(span);
        calls.replay_seconds +=
            std::chrono::duration<double>(end - built).count() -
            decode_seconds;
        calls.finish_ms.push_back(finish_seconds * 1e3);
        counters.collection_ms += WallMs(sim, "wall.collection_ns");
        counters.census_ms += WallMs(sim, "wall.census_ns");
      } else {
        seconds += append_seconds + finish_seconds;
      }
      counters.AddResult(results.back());
      events += results.back().app_events;
    }
    if (traced) {
      spans->End(unit_span);
      layers = counters;
    }
    rates[traced].Add(static_cast<double>(events), seconds);
    unit_results.push_back(std::move(results));
    return true;
  });
  const double rss_mb = PeakRssMb();

  // Reference: Simulator::Run() of every trace's config under every
  // policy, on kThreads workers.
  std::vector<SimulationResult> expected(replays);
  std::vector<Status> statuses(replays);
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (size_t r = next++; r < replays; r = next++) {
        Simulator sim(config_of(r));
        statuses[r] = sim.Run();
        expected[r] = sim.Finish();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (size_t r = 0; r < replays; ++r) {
    const std::string what = config_of(r).heap.policy_name + " on trace " +
                             std::to_string(r / policies.size());
    if (!report->Op(statuses[r], "Simulator::Run " + what)) continue;
    for (size_t u = 0; u < unit_results.size(); ++u) {
      if (r < unit_results[u].size()) {
        report->Compare(expected[r], unit_results[u][r],
                        "replay of " + what + " in unit " + std::to_string(u));
      }
    }
  }

  if (!options.trace) {
    ReportEndToEnd(rates[0], setup_seconds, rss_mb, pauses.batch_us(),
                   pauses.pause_ms(), report);
    return;
  }
  ReportTraceOverhead(rates[0], rates[1], report);
  ReportCalls(calls, report);
  report->Op(calls.replay_seconds > 0 &&
                 calls.TimedSeconds() >= 0.9 * calls.replay_seconds,
             "timed Append calls cover under 90% of the traced replay");
  ReportLayerCounters(layers, report);
  const GenProbe gen = ProbeGenerator({config_of(0)}, spans, report);
  // One policy's one-thread run of the first trace: generation plus the
  // replay at the untraced rate.
  const uint64_t events = traces[0].size();
  const double run_1thread =
      gen.seconds + static_cast<double>(events) / rates[0].Rate();
  ReportGenerator(gen, events, run_1thread, report);
  ReportService({}, report);
  ReportSharded({}, report);
}

// Collection pauses and census time the heaps of a ConcurrentSimulator or
// HeapService run publish as phase events. Both runtimes serialize
// delivery to one observer, so no locking is needed here.
class PhaseRecorder : public odbgc::SimObserver {
 public:
  void OnPhase(const odbgc::PhaseEvent& event) override {
    if (std::strcmp(event.phase, "collection") == 0) {
      collection_ms.push_back(static_cast<double>(event.wall_ns) * 1e-6);
    } else if (std::strcmp(event.phase, "census") == 0) {
      census_ns += event.wall_ns;
    }
  }
  std::vector<double> collection_ms;
  uint64_t census_ns = 0;
};

// The heaps a ConcurrentSimulator or HeapService run hosts, built through
// Simulator. Those runtimes build their heaps inside Run, so set-up times
// this construction separately (events_per_s pays it as well).
class HostedHeaps {
 public:
  explicit HostedHeaps(const std::vector<SimulationConfig>& configs) {
    for (const SimulationConfig& config : configs) {
      heaps_.push_back(std::make_unique<Simulator>(config));
    }
  }

 private:
  std::vector<std::unique_ptr<Simulator>> heaps_;
};

// ---- sharded_fit ------------------------------------------------------------

SimulationConfig ShardedConfig(uint64_t seed, uint32_t threads) {
  SimulationConfig config = odbgc::PaperBaseConfig();
  config.workload = config.workload.WithTotalAllocation(88ull << 20);
  config.heap.buffer_pages = 1024;  // A shard's database fits in its buffer.
  config.heap.policy_name = "UpdatedPointer";
  config.seed = seed;
  config.mutator_threads = threads;
  config.trace_shards = kShards;
  return config;
}

// Sums one wall-clock counter over every shard heap of a run, in ms.
double ShardWallMs(const ConcurrentSimulator& sim, const std::string& name) {
  uint64_t ns = 0;
  for (const auto& shard : sim.shard_wall_metrics()) {
    for (const odbgc::MetricSample& sample : shard) {
      if (sample.name == name) ns += sample.total();
    }
  }
  return static_cast<double>(ns) * 1e-6;
}

struct ShardedRun {
  Status status;
  SimulationResult aggregate;
  std::vector<SimulationResult> shards;
  double seconds = 0;
  double busy_frac = 0;
  uint64_t steals = 0;
  double collection_ms = 0;
  double census_ms = 0;
  std::vector<double> pause_ms;
};

ShardedRun RunSharded(SimulationConfig config, SpanRecorder* spans,
                      uint32_t parent) {
  ShardedRun run;
  PhaseRecorder phases;
  config.heap.observer = &phases;
  ConcurrentSimulator sim(config);
  const uint32_t span = spans != nullptr ? spans->Begin("run", parent) : 0;
  const auto start = Clock::now();
  run.status = sim.Run();
  if (run.status.ok()) {
    run.aggregate = sim.Finish();
    run.shards = sim.shard_results();
  }
  run.seconds = SecondsSince(start);
  if (spans != nullptr) spans->End(span);
  double busy = 0;
  for (double seconds : sim.worker_busy_seconds()) busy += seconds;
  run.busy_frac = busy / (config.mutator_threads * run.seconds);
  run.steals = sim.scheduler_steals();
  run.collection_ms = ShardWallMs(sim, "wall.collection_ns");
  run.census_ms = ShardWallMs(sim, "wall.census_ns");
  run.pause_ms = std::move(phases.collection_ms);
  return run;
}

// Collection pauses of the first `units` runs, pooled.
template <typename Run>
std::vector<double> UnitPauses(const std::vector<Run>& runs, size_t units) {
  std::vector<double> pauses;
  for (size_t u = 0; u < units && u < runs.size(); ++u) {
    pauses.insert(pauses.end(), runs[u].pause_ms.begin(),
                  runs[u].pause_ms.end());
  }
  return pauses;
}

void ShardedFit(const Options& options, Report* report, SpanRecorder* spans) {
  std::vector<double> setup_seconds;
  for (int rep = 0; rep < kHeapSetupReps; ++rep) {
    const auto start = Clock::now();
    ConcurrentSimulator sim(ShardedConfig(options.seed, kThreads));
    std::vector<SimulationConfig> shards;
    for (uint32_t i = 0; i < kShards; ++i) shards.push_back(sim.ShardConfig(i));
    const HostedHeaps heaps(shards);
    setup_seconds.push_back(SecondsSince(start));
  }

  // Untraced reference: every shard replayed alone through the serial
  // Simulator, whose batches also give batch_p99_us.
  const ConcurrentSimulator plan(ShardedConfig(options.seed, kThreads));
  std::vector<SimulationConfig> shard_configs;
  for (uint32_t i = 0; i < kShards; ++i) {
    shard_configs.push_back(plan.ShardConfig(i));
  }
  SoloReplays solos(std::move(shard_configs));

  RateTally rates[2];
  std::vector<ShardedRun> runs;
  RepeatUnits(options, [&](bool traced) {
    const uint32_t unit_span = traced ? spans->Begin("unit") : 0;
    ShardedRun run = RunSharded(ShardedConfig(options.seed, kThreads),
                                traced ? spans : nullptr, unit_span);
    if (traced) spans->End(unit_span);
    if (!report->Op(run.status, "ConcurrentSimulator::Run")) return false;
    rates[traced].Add(static_cast<double>(run.aggregate.app_events),
                      run.seconds);
    runs.push_back(std::move(run));
    if (!options.trace) solos.Next(SoloReplays::kPerUnit, nullptr);
    return true;
  });
  const double rss_mb = PeakRssMb();
  if (runs.empty()) return;
  for (size_t u = 1; u < runs.size(); ++u) {
    report->Compare(runs[0].aggregate, runs[u].aggregate,
                    "aggregate of unit " + std::to_string(u));
  }

  if (!options.trace) {
    solos.Rest(nullptr);
    std::vector<SimulationResult> solo;
    for (uint32_t i = 0; i < kShards; ++i) {
      const SoloRun& run = solos.runs()[i];
      if (!report->Op(run.status, "serial shard " + std::to_string(i))) {
        continue;
      }
      report->Compare(run.result, runs[0].shards[i],
                      "shard " + std::to_string(i));
      solo.push_back(run.result);
    }
    if (solo.size() == kShards) {
      report->Compare(ConcurrentSimulator::AggregateResults(solo),
                      runs[0].aggregate, "aggregate against serial shards");
    }
    ReportEndToEnd(rates[0], setup_seconds, rss_mb, solos.pauses().batch_us(),
                   UnitPauses(runs, rates[0].unit_rates().size()), report);
    return;
  }

  // Reference: the same run on one thread.
  const uint32_t one_span = spans->Begin("run.1thread");
  ShardedRun one = RunSharded(ShardedConfig(options.seed, 1), nullptr, 0);
  spans->End(one_span);
  if (report->Op(one.status, "ConcurrentSimulator::Run at 1 thread")) {
    report->Compare(one.aggregate, runs[0].aggregate,
                    "4-thread aggregate against 1 thread");
  }
  ReportTraceOverhead(rates[0], rates[1], report);

  std::vector<double> walls;
  ShardedLayer sharded;
  std::vector<double> busy;
  std::vector<double> steals;
  for (size_t u = 0; u < rates[0].unit_rates().size(); ++u) {
    walls.push_back(runs[u].seconds);
    busy.push_back(runs[u].busy_frac);
    steals.push_back(static_cast<double>(runs[u].steals));
  }
  sharded.busy_frac = Median(busy);
  sharded.steals = Median(steals);
  sharded.speedup_4v1 = one.seconds / Median(walls);

  LayerCounters layers;
  const ShardedRun& traced = runs.back();
  layers.collection_ms = traced.collection_ms;
  layers.census_ms = traced.census_ms;
  for (const SimulationResult& shard : traced.shards) layers.AddResult(shard);
  ReportLayerCounters(layers, report);

  // Per-call timing and the generator alone, on a subset of the shards.
  CallProfile calls;
  ProfileAppends({plan.ShardConfig(0), plan.ShardConfig(1)}, &calls, spans,
                 report);
  ReportCalls(calls, report);
  std::vector<SimulationConfig> gen_configs;
  for (uint32_t i = 0; i < 4; ++i) gen_configs.push_back(plan.ShardConfig(i));
  const GenProbe gen = ProbeGenerator(gen_configs, spans, report);
  ReportGenerator(gen, runs[0].aggregate.app_events, one.seconds, report);
  ReportService({}, report);
  ReportSharded(sharded, report);
}

// ---- fleet_open and fleet_pressured ------------------------------------------

const std::vector<std::string>& FleetPolicies() {
  static const std::vector<std::string> kPolicies = {
      "UpdatedPointer",   "MostGarbage", "WeightedPointer",
      "MutatedPartition", "Random",      "PoolPressure"};
  return kPolicies;
}

// The tenant geometry of bench/mt_tenants (1 KiB pages, 16-page partitions
// and quota, trigger 25), scaled to allocate 4 MiB.
SimulationConfig TenantConfig(uint64_t seed, const std::string& policy) {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.heap.overwrite_trigger = 25;
  config.heap.policy_name = policy;
  config.workload.target_live_bytes = 96ull << 10;
  config.workload.total_alloc_bytes = 960ull << 10;
  config.workload.tree_nodes_min = 50;
  config.workload.tree_nodes_max = 150;
  config.workload.large_object_size = 4096;
  config.workload = config.workload.WithTotalAllocation(4ull << 20);
  config.seed = seed;
  return config;
}

std::vector<SimulationConfig> TenantConfigs(uint64_t seed) {
  std::vector<SimulationConfig> configs;
  for (uint32_t i = 0; i < kTenants; ++i) {
    configs.push_back(
        TenantConfig(ConcurrentSimulator::ShardSeed(seed, i),
                     FleetPolicies()[i % FleetPolicies().size()]));
  }
  return configs;
}

ServiceSpec FleetSpec(uint64_t seed, uint32_t threads, bool pressured) {
  ServiceSpec spec =
      ServiceSpec::Hosting({}).WithThreads(threads).WithStepsPerRound(8);
  uint64_t quota_sum = 0;
  const std::vector<SimulationConfig> configs = TenantConfigs(seed);
  for (size_t i = 0; i < configs.size(); ++i) {
    quota_sum += configs[i].heap.buffer_pages;
    spec.tenants.push_back(
        TenantSpec::Base(configs[i]).Named("t" + std::to_string(i)));
  }
  if (pressured) {
    spec.shared_frame_budget = quota_sum / 2;
    spec.admission_watermark = 0.5;
  }
  return spec;
}

struct FleetRun {
  Status status;
  ServiceResult result;
  double seconds = 0;
  std::vector<double> pause_ms;
  uint64_t census_ns = 0;
};

FleetRun RunFleet(ServiceSpec spec, SpanRecorder* spans, uint32_t parent) {
  FleetRun run;
  PhaseRecorder phases;
  spec.observer = &phases;
  HeapService service(std::move(spec));
  const uint32_t span = spans != nullptr ? spans->Begin("run", parent) : 0;
  const auto start = Clock::now();
  run.status = service.Run();
  if (run.status.ok()) run.result = service.Finish();
  run.seconds = SecondsSince(start);
  if (spans != nullptr) spans->End(span);
  run.pause_ms = std::move(phases.collection_ms);
  run.census_ns = phases.census_ns;
  return run;
}

void CompareFleets(const ServiceResult& expected, const ServiceResult& actual,
                   const std::string& what, Report* report) {
  report->Compare(expected.aggregate, actual.aggregate, what + " aggregate");
  for (size_t t = 0; t < expected.tenants.size(); ++t) {
    report->Compare(expected.tenants[t], actual.tenants[t],
                    what + " tenant " + std::to_string(t));
  }
  report->Op(expected.rounds == actual.rounds &&
                 expected.forced_collections == actual.forced_collections &&
                 expected.admission_stalls == actual.admission_stalls,
             what + " service schedule differs");
}

void Fleet(const Options& options, bool pressured, Report* report,
           SpanRecorder* spans) {
  std::vector<double> setup_seconds;
  for (int rep = 0; rep < kHeapSetupReps; ++rep) {
    const auto start = Clock::now();
    HeapService service(FleetSpec(options.seed, kThreads, pressured));
    const HostedHeaps heaps(TenantConfigs(options.seed));
    setup_seconds.push_back(SecondsSince(start));
  }

  // Solo runs of every tenant: an open fleet's tenants must equal them, a
  // pressured fleet's tenants replay the same event streams, and in an
  // untraced run their batches give batch_p99_us.
  const std::vector<SimulationConfig> configs = TenantConfigs(options.seed);
  SoloReplays solos(configs);

  RateTally rates[2];
  std::vector<FleetRun> runs;
  RepeatUnits(options, [&](bool traced) {
    const uint32_t unit_span = traced ? spans->Begin("unit") : 0;
    FleetRun run = RunFleet(FleetSpec(options.seed, kThreads, pressured),
                            traced ? spans : nullptr, unit_span);
    if (traced) spans->End(unit_span);
    if (!report->Op(run.status, "HeapService::Run")) return false;
    rates[traced].Add(static_cast<double>(run.result.aggregate.app_events),
                      run.seconds);
    runs.push_back(std::move(run));
    if (!options.trace) solos.Next(SoloReplays::kPerUnit, nullptr);
    return true;
  });
  const double rss_mb = PeakRssMb();
  if (runs.empty()) return;
  for (size_t u = 1; u < runs.size(); ++u) {
    CompareFleets(runs[0].result, runs[u].result, "unit " + std::to_string(u),
                  report);
  }
  const ServiceResult& first = runs[0].result;

  // Reference: the same fleet on one thread (always under pressure, where
  // tenants interact; in the traced run also for the open fleet's speedup).
  FleetRun one;
  if (pressured || options.trace) {
    const uint32_t span = options.trace ? spans->Begin("run.1thread") : 0;
    one = RunFleet(FleetSpec(options.seed, 1, pressured), nullptr, 0);
    if (options.trace) spans->End(span);
    if (report->Op(one.status, "HeapService::Run at 1 thread")) {
      CompareFleets(one.result, first, "4-thread fleet against 1 thread",
                    report);
    }
  }

  if (!options.trace || !pressured) {
    solos.Rest(options.trace ? spans : nullptr);
    std::vector<SimulationResult> solo;
    for (size_t t = 0; t < configs.size(); ++t) {
      const SoloRun& run = solos.runs()[t];
      const std::string what = "solo tenant " + std::to_string(t);
      if (!report->Op(run.status, what)) continue;
      if (pressured) {
        report->Op(run.result.app_events == first.tenants[t].app_events &&
                       run.result.bytes_allocated ==
                           first.tenants[t].bytes_allocated &&
                       run.result.pointer_overwrites ==
                           first.tenants[t].pointer_overwrites,
                   what + " event stream differs from the fleet's");
      } else {
        report->Compare(run.result, first.tenants[t], what);
      }
      solo.push_back(run.result);
    }
    if (!pressured && solo.size() == configs.size()) {
      SimulationResult sum = ConcurrentSimulator::AggregateResults(solo);
      report->Compare(sum, first.aggregate, "aggregate against solo tenants");
    }
  }

  if (!options.trace) {
    ReportEndToEnd(rates[0], setup_seconds, rss_mb, solos.pauses().batch_us(),
                   UnitPauses(runs, rates[0].unit_rates().size()), report);
    return;
  }
  ReportTraceOverhead(rates[0], rates[1], report);

  std::vector<double> walls;
  for (size_t u = 0; u < rates[0].unit_rates().size(); ++u) {
    walls.push_back(runs[u].seconds);
  }
  ServiceLayer service;
  service.rounds = static_cast<double>(first.rounds);
  service.round_us = Median(walls) * 1e6 / static_cast<double>(first.rounds);
  service.forced_collections = static_cast<double>(first.forced_collections);
  service.admission_stalls = static_cast<double>(first.admission_stalls);
  service.speedup_4v1 = one.seconds / Median(walls);
  if (!pressured) {
    service.orchestration_share = 1 - solos.seconds() / one.seconds;
  }

  LayerCounters layers;
  for (double ms : runs.back().pause_ms) layers.collection_ms += ms;
  layers.census_ms = static_cast<double>(runs.back().census_ns) * 1e-6;
  const ServiceResult& traced = runs.back().result;
  for (const SimulationResult& tenant : traced.tenants) {
    layers.AddResult(tenant);
  }
  layers.arena_peak_frames = traced.peak_occupancy_frames;
  layers.squeezed_evictions = traced.squeezed_evictions;
  ReportLayerCounters(layers, report);

  // Per-call timing on one tenant of each policy; the generator alone over
  // every tenant.
  CallProfile calls;
  ProfileAppends({configs.begin(), configs.begin() + FleetPolicies().size()},
                 &calls, spans, report);
  ReportCalls(calls, report);
  const GenProbe gen = ProbeGenerator(configs, spans, report);
  ReportGenerator(gen, first.aggregate.app_events, one.seconds, report);
  ReportService(service, report);
  ReportSharded({}, report);
}

// ---- Command line -----------------------------------------------------------

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options->seconds > 0) ||
          options->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--out") {
      options->out = value;
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->out.empty();
}

Json Provenance(const Options& options) {
  Json provenance = Json::Obj();
  provenance.Set("workload", Json::Str(options.workload));
  provenance.Set("seed", Json::UInt(options.seed));
  provenance.Set("seconds", Json::Double(options.seconds));
  provenance.Set("trace", Json::Bool(options.trace));
  provenance.Set("compiler", Json::Str(__VERSION__));
  provenance.Set("build_type", Json::Str(PERFBENCH_BUILD_TYPE));
  provenance.Set("hardware_concurrency",
                 Json::UInt(std::thread::hardware_concurrency()));
  return provenance;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out <file> [--trace-out <file>]\n");
    return 2;
  }
  Report report;
  SpanRecorder spans;
  if (options.workload == "serial_paper") {
    SerialPaper(options, &report, &spans);
  } else if (options.workload == "sharded_fit") {
    ShardedFit(options, &report, &spans);
  } else if (options.workload == "fleet_open") {
    Fleet(options, /*pressured=*/false, &report, &spans);
  } else if (options.workload == "fleet_pressured") {
    Fleet(options, /*pressured=*/true, &report, &spans);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  if (options.trace) {
    Json self = Json::Obj();
    for (const auto& [name, seconds] : spans.SelfSecondsByName()) {
      self.Set(name, Json::Double(seconds));
    }
    report.Extra("span_self_seconds", std::move(self));
    if (!options.trace_out.empty()) {
      std::ofstream trace_file(options.trace_out);
      trace_file << spans.ToTraceJson();
      report.Op(trace_file.good(), "write " + options.trace_out);
    }
  }
  Json root = report.ToJson();
  root.Set("provenance", Provenance(options));
  std::ofstream out(options.out);
  out << root.Dump();
  if (!out.good()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", options.out.c_str());
    return 1;
  }
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
