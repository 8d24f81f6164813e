#pragma once
/// \file replication_cache.hpp
/// Cross-call replicated-factor cache for the serving layer: the
/// generalization of `Elision::ReplicationReuse` from within one FusedMM
/// call to across calls. When a stationary factor (e.g. the trained A in
/// an ALS server) is replicated by a blocking fiber all-gather, each
/// rank parks its gathered working block here; later calls against the
/// same factor skip the replication collective entirely — zero
/// replication words and messages — as long as the cache is complete
/// and keyed to the same (plan, factor) generation.
///
/// Fill discipline makes this safe under the simulated SPMD runtime:
/// the hit/miss decision is taken ONCE per run, on the driver thread,
/// before any rank starts (see detail::cache_use). A per-rank decision
/// could split a fiber into mixed hit/miss members — some skipping the
/// collective others are blocked in — and deadlock the ring. During a
/// filling (miss) run, ranks write disjoint slots (their own) and the
/// completion counter is only consulted by the NEXT run, after the
/// world joined.
///
/// The cache must be invalidated (or re-keyed) whenever the factor
/// values change or the shards move (reshard / new Plan); the serving
/// layer does this between batches, never while a world is running.
/// Fault-armed and Pipelined-schedule runs bypass the cache (see
/// detail::cache_use).

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "dense/dense_matrix.hpp"

namespace dsk {

class ReplicationCache {
 public:
  explicit ReplicationCache(int num_ranks)
      : slots_(static_cast<std::size_t>(num_ranks)) {}

  int num_ranks() const { return static_cast<int>(slots_.size()); }

  /// Generation key (plan fingerprint + factor version). Changing the
  /// key drops every cached block. Call between runs only.
  void set_key(std::uint64_t key) {
    if (key != key_) invalidate();
    key_ = key;
  }
  std::uint64_t key() const { return key_; }

  /// Drop all cached blocks. Call between runs only (the serving layer
  /// invalidates on reshard and on factor updates).
  void invalidate() {
    for (auto& slot : slots_) slot.reset();
    filled_.store(0, std::memory_order_release);
  }

  /// Every rank has parked its block — the next run may hit.
  bool complete() const {
    return filled_.load(std::memory_order_acquire) == num_ranks();
  }

  /// The cached replicated block for `rank`. Only valid when complete().
  const DenseMatrix& block(int rank) const {
    const auto& slot = slots_[static_cast<std::size_t>(rank)];
    check(slot.has_value(), "ReplicationCache: no block cached for rank ",
          rank);
    return *slot;
  }

  /// Park `rank`'s freshly gathered block (called from rank threads on a
  /// miss run; each rank writes only its own slot, first write wins).
  void store(int rank, DenseMatrix parked) {
    auto& slot = slots_[static_cast<std::size_t>(rank)];
    if (slot.has_value()) return;
    slot.emplace(std::move(parked));
    filled_.fetch_add(1, std::memory_order_release);
  }

  /// Driver-thread accounting: one cache-consulting run happened.
  void note_run(bool hit) { (hit ? hits_ : misses_) += 1; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::vector<std::optional<DenseMatrix>> slots_;
  std::atomic<int> filled_{0};
  std::uint64_t key_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

} // namespace dsk
