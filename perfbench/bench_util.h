// Measurement helpers for the repository benchmark (perfbench.cc): the
// percentile rule, the whole-run rate, pause detection over replay
// batches, the result comparison behind the output check, compact trace
// storage, a log-linear latency histogram, and an in-memory span recorder. Kept apart from the workloads so the unit
// tests (bench_util_test.cc) exercise exactly the code the benchmark runs.
#ifndef ODBGC_PERFBENCH_BENCH_UTIL_H_
#define ODBGC_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "trace/event.h"

namespace perfbench {

/// Samples a percentile needs beyond it before it is reported: a timing
/// is given as its median plus the highest percentile that still has at
/// least this many samples above it.
inline constexpr uint64_t kMinSamplesBeyond = 10;

/// Nearest-rank index (0-based) of percentile `p` (0 < p <= 100) in a
/// sorted sample of `n` > 0 values.
uint64_t PercentileRank(uint64_t n, double p);

/// True if percentile `p` of `n` samples has at least kMinSamplesBeyond
/// samples strictly above its rank.
bool PercentileSupported(uint64_t n, double p);

/// The highest percentile of `n` samples with kMinSamplesBeyond samples
/// beyond it, in percent; 0 when `n` is too small for any.
double HighestSupportedPercentile(uint64_t n);

/// Percentile `p` of `samples` by nearest rank (sorts a copy). 0 for an
/// empty sample.
double Percentile(std::vector<double> samples, double p);

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty vector.
double Median(std::vector<double> values);

/// Percentile `p` of each consecutive window of `window` samples (a
/// trailing partial window is dropped), then the median over windows: the
/// tail a typical stretch of the run sees, which a burst of interference
/// confined to a few windows barely moves. 0 when no window is full.
double WindowedPercentile(const std::vector<double>& samples, size_t window,
                          double p);

/// Events and wall time of a run's measured units. The run's rate is
/// their totals' quotient, so every measured second counts once: with few
/// units the median of per-unit rates follows whichever unit the host
/// slowed or sped up, while the whole-run rate averages that out.
class RateTally {
 public:
  void Add(double events, double seconds);
  /// Events per second over every unit; 0 before the first unit.
  double Rate() const;
  const std::vector<double>& unit_rates() const { return unit_rates_; }

 private:
  double events_ = 0;
  double seconds_ = 0;
  std::vector<double> unit_rates_;
};

/// Splits a replay into batch latencies and collection pauses: a batch
/// is a pause iff HeapStats::collections advanced while it applied.
class PauseDetector {
 public:
  /// Records one batch that took `seconds`, with the heap's collection
  /// count read before and after it.
  void Record(double seconds, uint64_t collections_before,
              uint64_t collections_after);

  /// Batches with no collection, in microseconds.
  const std::vector<double>& batch_us() const { return batch_us_; }
  /// Batches during which a collection ran, in milliseconds.
  const std::vector<double>& pause_ms() const { return pause_ms_; }

 private:
  std::vector<double> batch_us_;
  std::vector<double> pause_ms_;
};

/// Names of the deterministic SimulationResult fields on which `actual`
/// differs from `expected`; empty when they agree. Wall-clock fields are
/// not compared.
std::vector<std::string> ResultMismatches(const odbgc::SimulationResult& expected,
                                          const odbgc::SimulationResult& actual);

/// A stored trace as variable-length records: one byte for the kind and
/// which fields are non-zero, the object id as a zigzag delta from the
/// previous event's, then each non-zero field as a LEB128 varint. About
/// 3 bytes per event instead of sizeof(TraceEvent), so the traces a run
/// replays take a small share of its memory next to the heaps. Records
/// are kept in fixed-size chunks that never split one, so storing a trace
/// never holds two copies of it.
class CompactTrace : public odbgc::TraceSink {
 public:
  odbgc::Status Append(const odbgc::TraceEvent& event) override;

  uint64_t size() const { return events_; }
  uint64_t bytes() const;

  /// Decodes a trace front to back.
  class Reader {
   public:
    explicit Reader(const CompactTrace& trace) : trace_(&trace) {}
    /// Replaces `out` with the next events, at most `max` of them; false
    /// (and `out` empty) once the trace is exhausted.
    bool Next(size_t max, std::vector<odbgc::TraceEvent>* out);

   private:
    const CompactTrace* trace_;
    size_t chunk_ = 0;
    size_t offset_ = 0;
    uint64_t object_ = 0;
  };

 private:
  static constexpr size_t kChunkBytes = size_t{1} << 20;
  // Kind/presence byte, object delta, five varint fields, flags byte.
  static constexpr size_t kMaxRecordBytes = 1 + 10 + 5 * 10 + 1;

  std::vector<std::vector<uint8_t>> chunks_;
  uint64_t events_ = 0;
  uint64_t object_ = 0;
};

/// Log-linear histogram of nanosecond durations: exact below 32 ns, then
/// 32 sub-buckets per power of two (about 3% resolution). Percentiles
/// report the midpoint of the bucket holding the nearest-rank sample.
class LogHistogram {
 public:
  void Add(uint64_t ns);
  uint64_t count() const { return count_; }
  uint64_t sum_ns() const { return sum_ns_; }
  double Percentile(double p) const;

  static size_t BucketOf(uint64_t ns);
  static uint64_t BucketLow(size_t bucket);
  static uint64_t BucketHigh(size_t bucket);

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
};

/// Spans kept in memory and written out when the run ends. Single
/// threaded: every span is opened and closed on the benchmark's main
/// thread.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    uint32_t id = 0;
    uint32_t parent = 0;  // 0: no parent.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span; returns its id (ids start at 1).
  uint32_t Begin(std::string name, uint32_t parent = 0);
  void End(uint32_t id);
  /// Records an already-measured interval.
  uint32_t Add(std::string name, uint32_t parent, Clock::time_point start,
               Clock::time_point end);

  /// Wall time of each span minus the part its direct children cover,
  /// summed by span name, in seconds.
  std::vector<std::pair<std::string, double>> SelfSecondsByName() const;

  /// Chrome trace-event JSON ("X" events, microsecond timestamps).
  std::string ToTraceJson() const;

 private:
  int64_t Offset(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // ODBGC_PERFBENCH_BENCH_UTIL_H_
