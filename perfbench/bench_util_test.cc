#include "bench_util.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileRuleTest, NeedsTenSamplesBeyond) {
  // p90 of 100 samples is rank 89 (0-based): exactly ten lie beyond it.
  EXPECT_EQ(PercentileRank(100, 90), 89u);
  EXPECT_TRUE(PercentileSupported(100, 90));
  EXPECT_FALSE(PercentileSupported(99, 90));
  EXPECT_TRUE(PercentileSupported(1000, 99));
  EXPECT_FALSE(PercentileSupported(999, 99));
  EXPECT_FALSE(PercentileSupported(10, 50));
  EXPECT_TRUE(PercentileSupported(20, 50));
  EXPECT_FALSE(PercentileSupported(0, 50));
}

TEST(PercentileRuleTest, HighestSupportedPercentile) {
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(160), 93.75);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10), 0.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(0), 0.0);
  for (uint64_t n : {11u, 57u, 160u, 1000u, 12345u}) {
    const double p = HighestSupportedPercentile(n);
    EXPECT_TRUE(PercentileSupported(n, p)) << n;
    EXPECT_FALSE(PercentileSupported(n, p + 0.01)) << n;
  }
}

TEST(PercentileRuleTest, NearestRankValues) {
  std::vector<double> samples(100);
  std::iota(samples.rbegin(), samples.rend(), 1.0);  // 100 .. 1.
  EXPECT_DOUBLE_EQ(Percentile(samples, 50), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 90), 90.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 100), 100.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(PercentileRuleTest, WindowedPercentileIgnoresABurstInOneWindow) {
  std::vector<double> samples;
  for (int window = 0; window < 5; ++window) {
    for (int i = 1; i <= 100; ++i) samples.push_back(i);
  }
  // A burst: the third window's tail is ten times slower.
  for (int i = 290; i < 300; ++i) samples[i] *= 10;
  samples.push_back(1e9);  // Partial trailing window: dropped.
  EXPECT_DOUBLE_EQ(WindowedPercentile(samples, 100, 90), 90.0);
  EXPECT_GT(Percentile(samples, 99), 900.0);  // Pooled: the burst shows.
  EXPECT_DOUBLE_EQ(WindowedPercentile(samples, 1000, 90), 0.0);
}

TEST(RateTallyTest, WholeRunRateWeighsEverySecond) {
  RateTally tally;
  EXPECT_DOUBLE_EQ(tally.Rate(), 0.0);
  tally.Add(100, 1.0);  // 100/s.
  tally.Add(100, 1.0);  // 100/s.
  tally.Add(100, 3.0);  // A slowed unit: 33/s.
  EXPECT_DOUBLE_EQ(tally.Rate(), 60.0);
  EXPECT_EQ(tally.unit_rates().size(), 3u);
  EXPECT_DOUBLE_EQ(tally.unit_rates()[0], 100.0);
  EXPECT_NEAR(tally.unit_rates()[2], 33.333333, 1e-5);
}

TEST(PauseDetectorTest, PauseIffCollectionsAdvanced) {
  PauseDetector detector;
  detector.Record(0.000010, 5, 5);  // 10 us batch, no collection.
  detector.Record(0.002, 5, 6);     // 2 ms, one collection.
  detector.Record(0.000020, 6, 6);
  detector.Record(0.003, 6, 8);  // Two collections in one batch: one pause.
  ASSERT_EQ(detector.batch_us().size(), 2u);
  ASSERT_EQ(detector.pause_ms().size(), 2u);
  EXPECT_DOUBLE_EQ(detector.batch_us()[0], 10.0);
  EXPECT_DOUBLE_EQ(detector.batch_us()[1], 20.0);
  EXPECT_DOUBLE_EQ(detector.pause_ms()[0], 2.0);
  EXPECT_DOUBLE_EQ(detector.pause_ms()[1], 3.0);
}

TEST(ResultComparisonTest, ReportsDifferingFieldsOnly) {
  odbgc::SimulationResult a;
  a.app_events = 100;
  a.app_io = 7;
  a.collections = 3;
  a.max_storage_bytes = 4096;
  odbgc::SimulationResult b = a;
  EXPECT_TRUE(ResultMismatches(a, b).empty());

  // Wall-clock fields are outside the comparison.
  b.run_wall_seconds = 12.5;
  b.estimated_device_time_ms = 3;
  EXPECT_TRUE(ResultMismatches(a, b).empty());

  b.gc_io = 1;
  b.garbage_reclaimed_bytes = 10;
  const std::vector<std::string> diff = ResultMismatches(a, b);
  EXPECT_EQ(diff, (std::vector<std::string>{"gc_io",
                                            "garbage_reclaimed_bytes"}));
}

TEST(CompactTraceTest, RoundTripsEveryField) {
  std::vector<odbgc::TraceEvent> events = {
      odbgc::TraceEvent::Alloc(1, 4096, 3, 0, 1),
      odbgc::TraceEvent::Alloc(2, 64, 2, 1),
      odbgc::TraceEvent::WriteSlot(1, 2, 2),
      odbgc::TraceEvent::WriteSlot(2, 0, 0),  // Null store.
      odbgc::TraceEvent::ReadSlot(1, 1),
      odbgc::TraceEvent::Visit(uint64_t{1} << 40),  // Large forward delta.
      odbgc::TraceEvent::WriteData(2),              // Backward delta.
      odbgc::TraceEvent::AddRoot(7),
      odbgc::TraceEvent::RemoveRoot(7)};
  // Enough records to fill several chunks.
  for (uint64_t i = 0; i < 600000; ++i) {
    events.push_back(odbgc::TraceEvent::WriteSlot(i * 7919 % 100003,
                                                  static_cast<uint32_t>(i % 5),
                                                  i * 31 % 9973));
  }
  CompactTrace trace;
  for (const odbgc::TraceEvent& event : events) {
    ASSERT_TRUE(trace.Append(event).ok());
  }
  EXPECT_EQ(trace.size(), events.size());
  EXPECT_LT(trace.bytes(), events.size() * 8);

  CompactTrace::Reader reader(trace);
  std::vector<odbgc::TraceEvent> batch;
  std::vector<odbgc::TraceEvent> decoded;
  while (reader.Next(256, &batch)) {
    ASSERT_LE(batch.size(), 256u);
    decoded.insert(decoded.end(), batch.begin(), batch.end());
  }
  EXPECT_TRUE(batch.empty());
  ASSERT_EQ(decoded.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(decoded[i], events[i]) << i << ": " << events[i].ToString();
  }
}

TEST(LogHistogramTest, BucketsCoverEveryValueOnce) {
  for (uint64_t v : {0ull, 1ull, 31ull, 32ull, 33ull, 63ull, 64ull, 100ull,
                     1000ull, 123456789ull}) {
    const size_t b = LogHistogram::BucketOf(v);
    EXPECT_LE(LogHistogram::BucketLow(b), v) << v;
    EXPECT_LT(v, LogHistogram::BucketHigh(b)) << v;
    EXPECT_EQ(LogHistogram::BucketOf(LogHistogram::BucketHigh(b)), b + 1) << v;
  }
}

TEST(LogHistogramTest, PercentilesWithinBucketResolution) {
  LogHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Add(v * 10);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum_ns(), 5005000u);
  EXPECT_NEAR(h.Percentile(50), 5000, 5000 * 0.04);
  EXPECT_NEAR(h.Percentile(99), 9900, 9900 * 0.04);
  EXPECT_NEAR(h.Percentile(100), 10000, 10000 * 0.04);
}

TEST(SpanRecorderTest, SelfTimeExcludesChildren) {
  SpanRecorder spans;
  const auto t0 = SpanRecorder::Clock::now();
  const auto ms = [&](int n) { return t0 + std::chrono::milliseconds(n); };
  const uint32_t parent = spans.Add("replay", 0, ms(0), ms(10));
  spans.Add("append.collection", parent, ms(2), ms(5));
  spans.Add("finish", parent, ms(8), ms(10));
  double replay = -1, collection = -1;
  for (const auto& [name, seconds] : spans.SelfSecondsByName()) {
    if (name == "replay") replay = seconds;
    if (name == "append.collection") collection = seconds;
  }
  EXPECT_NEAR(replay, 0.005, 1e-9);
  EXPECT_NEAR(collection, 0.003, 1e-9);
}

}  // namespace
}  // namespace perfbench
