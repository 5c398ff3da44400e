#ifndef ODBGC_SIM_CONCURRENT_SIMULATOR_H_
#define ODBGC_SIM_CONCURRENT_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.h"
#include "sim/metrics.h"
#include "util/metrics_registry.h"
#include "util/status.h"

namespace odbgc {

/// The sharded multi-threaded runtime (DESIGN.md §14).
///
/// The run's workload is split into `trace_shards` deterministic shards —
/// each an independently seeded generator stream over a proportional
/// slice of the allocation volume, driving its own private heap. Shards
/// are the determinism unit: a shard's event stream and heap are a pure
/// function of (config, shard index), never of thread scheduling. Threads
/// are the parallelism unit: `mutator_threads` workers of one
/// work-stealing TaskPool (DESIGN.md §15) run the shards.
///
/// Every shard heap runs the same serial engine code as Simulator and
/// HeapService tenants. A shard's event stream is cut into batches of
/// events; each batch runs as one task and, when it is done, submits the
/// shard's next batch as its continuation. So exactly one batch per shard
/// is in flight, its stream applies strictly in order, and the pool's
/// deque hand-off orders one batch's heap writes before the next batch's
/// reads, whichever worker runs it. Idle workers steal other shards'
/// batches and, when parallel marking is enabled, marking strips of a
/// busy shard's census. Nothing else is shared between shards, so no
/// epoch or lock guards a heap. The verification story:
///
///   ConcurrentSimulator(config with N threads).Run+Finish
///     == aggregate of each shard replayed through the serial Simulator
///
/// bitwise, for every field except wall-clock/measured ones, and for any
/// thread count. The equivalence suites (tests/sim/
/// concurrent_equivalence_test.cc, work_stealing_equivalence_test.cc)
/// hold all six paper policies to this.
///
/// Aggregation over shard results is per-field summation (I/O, events,
/// allocation, reclamation, remembered-set entries, estimated device
/// time; max_storage/max_partitions sum the per-shard high-water marks —
/// the footprint bound of the sharded database as a whole). Named metrics
/// merge through MergeMetricSamples. Time series are a per-shard notion
/// and stay empty in the aggregate.
///
/// Not supported (rejected by Run): durability (wal_dir /
/// checkpoint_every_rounds — checkpointing a multi-heap run is future
/// work), and mutator_threads > shard count or > kMaxMutatorThreads.
class ConcurrentSimulator {
 public:
  /// Upper bound on mutator_threads: keeps CLI input from asking for an
  /// unbounded number of worker threads.
  static constexpr uint32_t kMaxMutatorThreads = 64;

  explicit ConcurrentSimulator(const SimulationConfig& config);

  /// Validates the concurrency configuration, then runs every shard to
  /// completion across the configured worker threads. First shard error
  /// (in shard order) wins.
  Status Run();

  /// Aggregates the per-shard results. Call once, after Run succeeds.
  SimulationResult Finish();

  /// Effective shard count (trace_shards, defaulted to mutator_threads).
  uint32_t shard_count() const;

  /// Per-shard results, in shard order (valid after Run).
  const std::vector<SimulationResult>& shard_results() const {
    return shard_results_;
  }

  /// Per-shard wall-clock profile ("wall.*_ns" from each shard heap's
  /// self-profiling registry), in shard order — per-thread phase timing
  /// attribution for the profiling harness (valid after Run).
  const std::vector<std::vector<MetricSample>>& shard_wall_metrics() const {
    return shard_wall_metrics_;
  }

  /// Per-worker wall time spent executing scheduler tasks, in seconds
  /// (valid after Run). busy/wall
  /// per worker is the scheduler-efficiency number the concurrency bench
  /// reports. Nested helping (a worker executing other tasks while it
  /// waits on a marking wave) double-counts the nested span in its outer
  /// task, so treat values as an upper bound.
  const std::vector<double>& worker_busy_seconds() const {
    return worker_busy_seconds_;
  }

  /// Batches that executed on a different worker than the one that
  /// enqueued them — the load-balancing
  /// diagnostic: zero on a balanced run means stealing never needed to
  /// kick in; large on a skewed run means it did its job.
  uint64_t scheduler_steals() const { return scheduler_steals_; }

  /// The configuration of shard `index`: the derived seed and the
  /// workload slice. Exposed so the serial oracle in the equivalence
  /// suite replays exactly the shards a concurrent run executes.
  SimulationConfig ShardConfig(uint32_t index) const;

  /// The seed shard `index` derives from `base_seed` (splitmix over the
  /// pair, so shard streams never overlap the base stream or each other).
  static uint64_t ShardSeed(uint64_t base_seed, uint32_t shard);

  /// Sums `parts` into one result under the aggregation rule above —
  /// shared by Finish and by the serial oracle. `parts` must be nonempty;
  /// identity fields (policy, seed, device) come from the first part.
  static SimulationResult AggregateResults(
      const std::vector<SimulationResult>& parts);

 private:
  Status ValidateConcurrency() const;

  SimulationConfig config_;
  bool ran_ = false;
  std::vector<SimulationResult> shard_results_;
  std::vector<std::vector<MetricSample>> shard_wall_metrics_;
  std::vector<double> worker_busy_seconds_;
  uint64_t scheduler_steals_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_SIM_CONCURRENT_SIMULATOR_H_
