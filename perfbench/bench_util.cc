#include "bench_util.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint64_t PercentileRank(uint64_t n, double p) {
  if (n == 0) return 0;
  const double exact = std::ceil(p / 100.0 * static_cast<double>(n));
  const uint64_t rank = exact < 1.0 ? 0 : static_cast<uint64_t>(exact) - 1;
  return std::min(rank, n - 1);
}

bool PercentileSupported(uint64_t n, double p) {
  return n > 0 && n - 1 - PercentileRank(n, p) >= kMinSamplesBeyond;
}

double HighestSupportedPercentile(uint64_t n) {
  if (n <= kMinSamplesBeyond) return 0.0;
  return 100.0 * static_cast<double>(n - kMinSamplesBeyond) /
         static_cast<double>(n);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const uint64_t rank = PercentileRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double WindowedPercentile(const std::vector<double>& samples, size_t window,
                          double p) {
  std::vector<double> per_window;
  for (size_t begin = 0; window > 0 && begin + window <= samples.size();
       begin += window) {
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + begin,
                            samples.begin() + begin + window),
        p));
  }
  return Median(std::move(per_window));
}

void RateTally::Add(double events, double seconds) {
  events_ += events;
  seconds_ += seconds;
  unit_rates_.push_back(seconds > 0 ? events / seconds : 0.0);
}

double RateTally::Rate() const {
  return seconds_ > 0 ? events_ / seconds_ : 0.0;
}

void PauseDetector::Record(double seconds, uint64_t collections_before,
                           uint64_t collections_after) {
  if (collections_after != collections_before) {
    pause_ms_.push_back(seconds * 1e3);
  } else {
    batch_us_.push_back(seconds * 1e6);
  }
}

std::vector<std::string> ResultMismatches(
    const odbgc::SimulationResult& expected,
    const odbgc::SimulationResult& actual) {
  std::vector<std::string> out;
  const auto check = [&](const char* name, uint64_t a, uint64_t b) {
    if (a != b) out.push_back(name);
  };
  check("app_events", expected.app_events, actual.app_events);
  check("app_io", expected.app_io, actual.app_io);
  check("gc_io", expected.gc_io, actual.gc_io);
  check("collections", expected.collections, actual.collections);
  check("garbage_reclaimed_bytes", expected.garbage_reclaimed_bytes,
        actual.garbage_reclaimed_bytes);
  check("max_storage_bytes", expected.max_storage_bytes,
        actual.max_storage_bytes);
  check("live_bytes_copied", expected.live_bytes_copied,
        actual.live_bytes_copied);
  check("unreclaimed_garbage_bytes", expected.unreclaimed_garbage_bytes,
        actual.unreclaimed_garbage_bytes);
  check("final_live_bytes", expected.final_live_bytes,
        actual.final_live_bytes);
  check("remset_entries", expected.remset_entries, actual.remset_entries);
  check("bytes_allocated", expected.bytes_allocated, actual.bytes_allocated);
  check("pointer_overwrites", expected.pointer_overwrites,
        actual.pointer_overwrites);
  return out;
}

namespace {

// Presence bits of a CompactTrace record's first byte; the low three
// bits hold the EventKind.
constexpr uint8_t kHasSlot = 1 << 3;
constexpr uint8_t kHasTarget = 1 << 4;
constexpr uint8_t kHasSize = 1 << 5;
constexpr uint8_t kHasNumSlots = 1 << 6;
constexpr uint8_t kHasAllocHint = 1 << 7;  // parent_hint and flags.

void PutVarint(uint64_t value, std::vector<uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

uint64_t GetVarint(const uint8_t** pos) {
  uint64_t value = 0;
  for (int shift = 0;; shift += 7) {
    const uint8_t byte = *(*pos)++;
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
  }
}

}  // namespace

odbgc::Status CompactTrace::Append(const odbgc::TraceEvent& event) {
  const uint8_t kind = static_cast<uint8_t>(event.kind);
  if (kind > 7) {
    return odbgc::Status::InvalidArgument("event kind does not fit 3 bits");
  }
  if (chunks_.empty() ||
      chunks_.back().size() + kMaxRecordBytes > kChunkBytes) {
    chunks_.emplace_back();
    chunks_.back().reserve(kChunkBytes);
  }
  std::vector<uint8_t>* out = &chunks_.back();
  uint8_t head = kind;
  if (event.slot != 0) head |= kHasSlot;
  if (event.target != 0) head |= kHasTarget;
  if (event.size != 0) head |= kHasSize;
  if (event.num_slots != 0) head |= kHasNumSlots;
  if (event.parent_hint != 0 || event.flags != 0) head |= kHasAllocHint;
  out->push_back(head);
  const uint64_t delta = event.object - object_;  // Wraps; zigzag below.
  object_ = event.object;
  PutVarint((delta << 1) ^ (0 - (delta >> 63)), out);
  if (head & kHasSlot) PutVarint(event.slot, out);
  if (head & kHasTarget) PutVarint(event.target, out);
  if (head & kHasSize) PutVarint(event.size, out);
  if (head & kHasNumSlots) PutVarint(event.num_slots, out);
  if (head & kHasAllocHint) {
    PutVarint(event.parent_hint, out);
    out->push_back(event.flags);
  }
  ++events_;
  return odbgc::Status::Ok();
}

uint64_t CompactTrace::bytes() const {
  uint64_t total = 0;
  for (const std::vector<uint8_t>& chunk : chunks_) total += chunk.size();
  return total;
}

bool CompactTrace::Reader::Next(size_t max,
                                std::vector<odbgc::TraceEvent>* out) {
  out->clear();
  while (out->size() < max && chunk_ < trace_->chunks_.size()) {
    const std::vector<uint8_t>& bytes = trace_->chunks_[chunk_];
    if (offset_ == bytes.size()) {
      ++chunk_;
      offset_ = 0;
      continue;
    }
    const uint8_t* pos = bytes.data() + offset_;
    odbgc::TraceEvent event;
    const uint8_t head = *pos++;
    event.kind = static_cast<odbgc::EventKind>(head & 7);
    const uint64_t zigzag = GetVarint(&pos);
    object_ += (zigzag >> 1) ^ (0 - (zigzag & 1));
    event.object = object_;
    if (head & kHasSlot) event.slot = static_cast<uint32_t>(GetVarint(&pos));
    if (head & kHasTarget) event.target = GetVarint(&pos);
    if (head & kHasSize) event.size = static_cast<uint32_t>(GetVarint(&pos));
    if (head & kHasNumSlots) {
      event.num_slots = static_cast<uint32_t>(GetVarint(&pos));
    }
    if (head & kHasAllocHint) {
      event.parent_hint = GetVarint(&pos);
      event.flags = *pos++;
    }
    offset_ = static_cast<size_t>(pos - bytes.data());
    out->push_back(event);
  }
  return !out->empty();
}

size_t LogHistogram::BucketOf(uint64_t ns) {
  if (ns < 32) return static_cast<size_t>(ns);
  const int exponent = 63 - std::countl_zero(ns);  // >= 5.
  const uint64_t sub = (ns >> (exponent - 5)) & 31;
  return 32 + static_cast<size_t>(exponent - 5) * 32 + sub;
}

uint64_t LogHistogram::BucketLow(size_t bucket) {
  if (bucket < 32) return bucket;
  const size_t exponent = (bucket - 32) / 32 + 5;
  const uint64_t sub = (bucket - 32) % 32;
  return (32 + sub) << (exponent - 5);
}

uint64_t LogHistogram::BucketHigh(size_t bucket) {
  if (bucket < 32) return bucket + 1;
  const size_t exponent = (bucket - 32) / 32 + 5;
  return BucketLow(bucket) + (uint64_t{1} << (exponent - 5));
}

void LogHistogram::Add(uint64_t ns) {
  const size_t bucket = BucketOf(ns);
  if (bucket >= buckets_.size()) buckets_.resize(bucket + 1, 0);
  ++buckets_[bucket];
  ++count_;
  sum_ns_ += ns;
}

double LogHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const uint64_t rank = PercentileRank(count_, p);
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen > rank) {
      return (static_cast<double>(BucketLow(b)) +
              static_cast<double>(BucketHigh(b))) /
             2.0;
    }
  }
  return static_cast<double>(BucketHigh(buckets_.size() - 1));
}

int64_t SpanRecorder::Offset(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

uint32_t SpanRecorder::Begin(std::string name, uint32_t parent) {
  Span span;
  span.name = std::move(name);
  span.id = static_cast<uint32_t>(spans_.size()) + 1;
  span.parent = parent;
  span.start_ns = Offset(Clock::now());
  span.end_ns = span.start_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(uint32_t id) {
  spans_[id - 1].end_ns = Offset(Clock::now());
}

uint32_t SpanRecorder::Add(std::string name, uint32_t parent,
                           Clock::time_point start, Clock::time_point end) {
  Span span;
  span.name = std::move(name);
  span.id = static_cast<uint32_t>(spans_.size()) + 1;
  span.parent = parent;
  span.start_ns = Offset(start);
  span.end_ns = Offset(end);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<std::pair<std::string, double>> SpanRecorder::SelfSecondsByName()
    const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      self[span.parent - 1] -= span.end_ns - span.start_ns;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& entry) {
      return entry.first == spans_[i].name;
    });
    if (it == out.end()) {
      out.emplace_back(spans_[i].name, 0.0);
      it = out.end() - 1;
    }
    it->second += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

std::string SpanRecorder::ToTraceJson() const {
  std::string out = "{\"traceEvents\": [\n";
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, "
                  "\"parent\": %u}}%s\n",
                  span.name.c_str(), static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  span.id, span.parent, i + 1 < spans_.size() ? "," : "");
    out += line;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
