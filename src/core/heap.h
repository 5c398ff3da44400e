#ifndef ODBGC_CORE_HEAP_H_
#define ODBGC_CORE_HEAP_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/heap_core.h"

namespace odbgc {

/// A garbage-collected partitioned object database: the library's main
/// entry point, and the mutator-facing facade over the HeapCore engine
/// (core/heap_core.h, which holds HeapOptions/HeapStats and the whole
/// component stack).
///
/// The facade exists so the application surface stays a stable,
/// single-threaded mutator API: internal layers (the simulators, the
/// recovery engine) reach the engine through core() for engine-level
/// state such as the marking pool; applications never need to. Every
/// forwarder is inline, so the split costs the hot paths nothing beyond
/// one pointer indirection.
class CollectedHeap {
 public:
  explicit CollectedHeap(const HeapOptions& options)
      : core_(std::make_unique<HeapCore>(options)) {}

  /// Reconstructs a heap from a checkpoint image; see HeapCore::FromImage.
  static Result<std::unique_ptr<CollectedHeap>> FromImage(
      const HeapOptions& options, const StoreImage& image);

  /// Captures the database state for checkpointing.
  StoreImage ExtractImage() const { return core_->ExtractImage(); }

  CollectedHeap(const CollectedHeap&) = delete;
  CollectedHeap& operator=(const CollectedHeap&) = delete;

  /// The engine, for internal layers that need more than the mutator API
  /// (marking pool, recovery). Application code should not need it.
  HeapCore& core() { return *core_; }
  const HeapCore& core() const { return *core_; }

  // -- Application API (see ObjectStore for the I/O charging model) -------

  /// Allocates an object; may grow the database and may trigger a pending
  /// collection.
  Result<ObjectId> Allocate(uint32_t size, uint32_t num_slots,
                            ObjectId parent_hint = kNullObjectId,
                            uint8_t flags = 0) {
    return core_->Allocate(size, num_slots, parent_hint, flags);
  }

  /// Stores a pointer, running the write barrier; may trigger a
  /// collection.
  Status WriteSlot(ObjectId source, uint32_t slot, ObjectId target) {
    return core_->WriteSlot(source, slot, target);
  }

  Result<ObjectId> ReadSlot(ObjectId source, uint32_t slot) {
    return core_->ReadSlot(source, slot);
  }
  Status VisitObject(ObjectId object) { return core_->VisitObject(object); }
  Status WriteData(ObjectId object) { return core_->WriteData(object); }

  /// Adds a database root (weight 1 when weights are maintained).
  Status AddRoot(ObjectId object) { return core_->AddRoot(object); }
  Status RemoveRoot(ObjectId object) { return core_->RemoveRoot(object); }

  // -- Collection ----------------------------------------------------------

  /// Runs one policy-selected collection immediately (regardless of the
  /// trigger). Returns the result, or FailedPrecondition if the policy
  /// declined (NoCollection / no candidates).
  Result<CollectionResult> CollectNow() { return core_->CollectNow(); }

  /// Collects a specific partition (bypasses the policy).
  Result<CollectionResult> CollectPartition(PartitionId victim) {
    return core_->CollectPartition(victim);
  }

  /// Runs a whole-database mark-and-copy collection (see
  /// GlobalMarkCollector): reclaims everything unreachable, including
  /// nepotism victims and cross-partition dead cycles.
  Result<GlobalCollectionResult> CollectFullDatabase() {
    return core_->CollectFullDatabase();
  }

  /// Partitions eligible for collection right now.
  std::vector<PartitionId> CollectionCandidates() const {
    return core_->CollectionCandidates();
  }

  // -- Introspection ---------------------------------------------------------

  const ObjectStore& store() const { return core_->store(); }
  ObjectStore& mutable_store() { return core_->mutable_store(); }
  const BufferPool& buffer() const { return core_->buffer(); }
  BufferPool& mutable_buffer() { return core_->mutable_buffer(); }
  const PageDevice& disk() const { return core_->device(); }
  PageDevice& mutable_disk() { return core_->mutable_device(); }
  const PageDevice& device() const { return core_->device(); }
  PageDevice& mutable_device() { return core_->mutable_device(); }
  /// The stack-wide metrics registry (device + buffer counters, phases).
  MetricsRegistry* metrics() const { return core_->metrics(); }
  /// Wall-clock self-profiling counters; see HeapCore::wall_metrics().
  MetricsRegistry* wall_metrics() const { return core_->wall_metrics(); }
  /// Pre-registered handles into wall_metrics() for hot-path scopes.
  WallPhaseTimers* wall_timers() const { return core_->wall_timers(); }
  const InterPartitionIndex& index() const { return core_->index(); }
  const WriteBarrier& barrier() const { return core_->barrier(); }
  const WeightTracker* weights() const { return core_->weights(); }
  SelectionPolicy& policy() { return core_->policy(); }
  const HeapStats& stats() const { return core_->stats(); }
  const HeapOptions& options() const { return core_->options(); }

  /// Application/collector I/O so far (buffer pool counters).
  uint64_t app_io() const { return core_->app_io(); }
  uint64_t gc_io() const { return core_->gc_io(); }
  uint64_t total_io() const { return core_->total_io(); }

  /// True if the overwrite trigger has fired and a collection will run at
  /// the end of the current/next heap operation.
  bool collection_pending() const { return core_->collection_pending(); }

  /// Results of every collection performed, in order.
  const std::vector<CollectionResult>& collection_log() const {
    return core_->collection_log();
  }

  /// Zeroes every measurement while leaving the database untouched; see
  /// HeapCore::ResetMeasurement.
  void ResetMeasurement() { core_->ResetMeasurement(); }

  /// Serializes heap runtime state; see HeapCore::SaveRuntimeState.
  void SaveRuntimeState(std::ostream& out) const {
    core_->SaveRuntimeState(out);
  }

  /// Restores state written by SaveRuntimeState; see
  /// HeapCore::LoadRuntimeState.
  Status LoadRuntimeState(std::istream& in) {
    return core_->LoadRuntimeState(in);
  }

 private:
  explicit CollectedHeap(std::unique_ptr<HeapCore> core)
      : core_(std::move(core)) {}

  std::unique_ptr<HeapCore> core_;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_HEAP_H_
