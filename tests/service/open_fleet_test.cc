// Open fleets (no watermark) and the barrier count (DESIGN.md §16):
//
//  1. The service ledger is pinned — rounds, departures, the occupancy
//     peak, every tenant's residency peak and event count of a fleet with
//     a late arrival and a departure equal the figures of the same fleet
//     run with one barrier after every round.
//  2. Thread invariance — the whole ServiceResult of that fleet is the
//     same at 1, 2 and 4 worker threads.
//  3. Barriers — an open fleet runs one barrier per interaction (arrival,
//     departure, the end), a pressured fleet one per round.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/selection_policy.h"
#include "observe/manifest.h"
#include "service/heap_service.h"
#include "sim/spec.h"

namespace odbgc {
namespace {

SimulationConfig SmallTenant(const std::string& policy_name, uint64_t seed) {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.heap.overwrite_trigger = 25;
  config.heap.policy_name = policy_name;
  config.workload.target_live_bytes = 96ull << 10;
  config.workload.total_alloc_bytes = 240ull << 10;
  config.workload.tree_nodes_min = 50;
  config.workload.tree_nodes_max = 150;
  config.workload.large_object_size = 4096;
  config.seed = seed;
  return config;
}

std::string TenantName(size_t i) {
  std::string name = "t";
  name += std::to_string(i);
  return name;
}

/// Eight tenants over one shared arena, K = 8, no watermark. Quotas grow
/// with the tenant id (48..384 frames), so the later tenants never fill
/// theirs and their residency peaks depend on when the ledger samples.
/// Tenant 6 arrives at round 3 and tenant 7 departs at round 9.
ServiceSpec OpenFleet(uint32_t threads) {
  const std::vector<std::string>& policies = PaperPolicyNames();
  ServiceSpec spec;
  for (size_t i = 0; i < 8; ++i) {
    spec.tenants.push_back(
        TenantSpec::Base(SmallTenant(policies[i % policies.size()], 300 + i))
            .Named(TenantName(i)));
    spec.tenants.back().config.heap.buffer_pages = 48 * (i + 1);
  }
  spec.tenants[6].arrival_round = 3;
  spec.tenants[7].departure_round = 9;
  return std::move(spec).WithThreads(threads).WithStepsPerRound(8);
}

/// A fleet over 3/4 of the summed quotas with the watermark armed.
ServiceSpec PressuredFleet(uint32_t threads) {
  const std::vector<std::string>& policies = PaperPolicyNames();
  ServiceSpec spec;
  for (size_t i = 0; i < 6; ++i) {
    const std::string& policy = policies[1 + i % (policies.size() - 1)];
    spec.tenants.push_back(
        TenantSpec::Base(SmallTenant(policy, 100 + i)).Named(TenantName(i)));
  }
  return std::move(spec)
      .WithThreads(threads)
      .WithFrameBudget(6 * 16 * 3 / 4)
      .WithWatermark(0.5)
      .WithStepsPerRound(4);
}

/// The deterministic `result` section of a tenant's manifest: every
/// counter of the SimulationResult, no wall clock.
std::string ResultText(const SimulationResult& result) {
  return BuildManifest(SimulationConfig{}, result).Get("result")->Dump();
}

void ExpectServiceResultsIdentical(const ServiceResult& a,
                                   const ServiceResult& b) {
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(ResultText(a.tenants[t]), ResultText(b.tenants[t]))
        << "tenant " << t;
  }
  EXPECT_EQ(ResultText(a.aggregate), ResultText(b.aggregate));
  EXPECT_EQ(a.tenant_names, b.tenant_names);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.forced_collections, b.forced_collections);
  EXPECT_EQ(a.admission_stalls, b.admission_stalls);
  EXPECT_EQ(a.forced_admissions, b.forced_admissions);
  EXPECT_EQ(a.shared_frame_budget, b.shared_frame_budget);
  EXPECT_EQ(a.watermark_frames, b.watermark_frames);
  EXPECT_EQ(a.peak_occupancy_frames, b.peak_occupancy_frames);
  EXPECT_EQ(a.shared_pool, b.shared_pool);
  EXPECT_EQ(a.squeezed_evictions, b.squeezed_evictions);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.tenant_peak_resident_frames, b.tenant_peak_resident_frames);
  EXPECT_EQ(a.tenant_admission_stalls, b.tenant_admission_stalls);
}

// The figures below were recorded from this fleet when the service ran a
// barrier after every round and sampled the ledger there. Tenant 7 departs
// at the barrier that ends its ninth round, before that barrier samples,
// so its last round's residency never enters its peak.
TEST(OpenFleetLedgerTest, PinnedAgainstPerRoundBarriers) {
  auto result = RunService(OpenFleet(1));
  ASSERT_TRUE(result.status().ok()) << result.status().message();
  EXPECT_EQ(result->rounds, 27u);
  EXPECT_EQ(result->departures, 1u);
  EXPECT_EQ(result->peak_occupancy_frames, 993u);
  EXPECT_EQ(result->tenant_peak_resident_frames,
            (std::vector<uint64_t>{48, 96, 144, 192, 199, 205, 237, 180}));
  const std::vector<uint64_t> events = {19153, 15062, 19896, 20829,
                                        15158, 17421, 20578, 9372};
  ASSERT_EQ(result->tenants.size(), events.size());
  for (size_t t = 0; t < events.size(); ++t) {
    EXPECT_EQ(result->tenants[t].app_events, events[t]) << "tenant " << t;
  }
  EXPECT_EQ(result->squeezed_evictions, 0u);
}

TEST(OpenFleetLedgerTest, ThreadCountInvariant) {
  auto base = RunService(OpenFleet(1));
  ASSERT_TRUE(base.status().ok()) << base.status().message();
  for (uint32_t threads : {2u, 4u}) {
    auto other = RunService(OpenFleet(threads));
    ASSERT_TRUE(other.status().ok()) << other.status().message();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectServiceResultsIdentical(*base, *other);
  }
}

TEST(OpenFleetBarrierTest, OneBarrierPerInteraction) {
  // Segments [0, 3), [3, 9) and [9, end): the arrival, the departure and
  // the fleet's end.
  auto result = RunService(OpenFleet(4));
  ASSERT_TRUE(result.status().ok()) << result.status().message();
  EXPECT_EQ(result->barriers, 3u);
}

TEST(OpenFleetBarrierTest, FleetWithoutArrivalsRunsOneSegment) {
  for (bool shared : {true, false}) {
    ServiceSpec spec = OpenFleet(2).WithSharedPool(shared);
    spec.tenants[6].arrival_round = 0;
    spec.tenants[7].departure_round = 0;
    auto result = RunService(std::move(spec));
    ASSERT_TRUE(result.status().ok()) << result.status().message();
    EXPECT_GT(result->rounds, 1u);
    EXPECT_EQ(result->barriers, 1u) << "shared=" << shared;
  }
}

TEST(OpenFleetBarrierTest, PressuredFleetRunsABarrierEveryRound) {
  auto result = RunService(PressuredFleet(2));
  ASSERT_TRUE(result.status().ok()) << result.status().message();
  EXPECT_GT(result->admission_stalls, 0u);  // The pressure is real.
  EXPECT_EQ(result->barriers, result->rounds);
}

TEST(OpenFleetBarrierTest, ArenaThatCanRunDryRunsABarrierEveryRound) {
  // No watermark, but an arena below the summed quotas: tenants squeeze
  // one another, so they keep interleaving round by round.
  ServiceSpec spec = OpenFleet(2);
  spec.tenants[6].arrival_round = 0;
  spec.tenants[7].departure_round = 0;
  auto result = RunService(std::move(spec).WithFrameBudget(1000));
  ASSERT_TRUE(result.status().ok()) << result.status().message();
  EXPECT_EQ(result->barriers, result->rounds);
}

}  // namespace
}  // namespace odbgc
