#pragma once
/// \file recovery.hpp
/// Crash-recovery state for the simulated runtime: a per-step journal of
/// the shift loops (so a recovered world resumes propagation mid-ring
/// instead of replaying every step) and a replica store modeling the
/// per-rank sparse-value shards that the 2.5D families hold redundantly
/// (row-ring copies for dense replication, fiber copies for sparse
/// replication) — the redundancy a crashed rank's shard is rebuilt from.

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "runtime/fault.hpp"
#include "runtime/mailbox.hpp"

namespace dsk {

/// Journal of run_shift_loop progress across recovery attempts. Each rank
/// records, after every completed shift step, the resident channel blocks
/// plus an optional driver-state blob (stationary accumulators). Between
/// attempts seal() fixes the global resume point per loop: the last step
/// EVERY rank completed — all ranks restart from the same step with their
/// own journaled residents and drained mailboxes, which is a consistent
/// cut of the ring protocol (the messages of later steps are regenerated
/// by the resumed senders).
///
/// Loops are identified by per-rank call order, which lines up across
/// ranks because the SPMD bodies are symmetric. Threading: each rank
/// writes only its own slot while the world runs; seal() runs between
/// attempts (ordered by thread join/spawn), so no locking is needed.
class StepJournal {
 public:
  struct Snapshot {
    std::vector<MessageWords> blocks;
    MessageWords state;
  };

  explicit StepJournal(int num_ranks) : ranks_(num_ranks) {}

  /// Called by each rank at the top of every run_shift_loop; returns the
  /// loop id.
  int begin_loop(int rank);

  /// The step to resume AFTER (restore its snapshot, continue at
  /// resume+1), or -1 to execute the loop from the start.
  int resume_step(int rank, int loop_id) const;

  const Snapshot& snapshot(int rank, int loop_id, int step) const;

  void record_step(int rank, int loop_id, int step, Snapshot snapshot);

  /// Between attempts: recompute the per-loop global resume points.
  void seal();

  /// At the start of each attempt: rewind every rank's loop-id counter.
  void begin_attempt();

  /// Checkpoint cadence: retain only every interval-th step snapshot
  /// (1 = every step, the default; 0 and negatives clamp to 1). seal()
  /// rounds each resume point down to the newest retained snapshot.
  void set_interval(int interval) { interval_ = interval > 0 ? interval : 1; }

  /// True when the snapshot taken after `step` is retained under the
  /// configured interval — callers skip building the blob otherwise.
  bool wants_snapshot(int step) const {
    return (step + 1) % interval_ == 0;
  }

  /// Total steps skipped by journal resume across all ranks (diagnostic;
  /// atomic because every rank thread counts concurrently).
  std::uint64_t resumed_steps() const {
    return resumed_steps_.load(std::memory_order_relaxed);
  }
  void count_resumed(int steps) {
    resumed_steps_.fetch_add(static_cast<std::uint64_t>(steps),
                             std::memory_order_relaxed);
  }

 private:
  struct LoopLog {
    bool started = false;
    std::vector<Snapshot> done; ///< indexed by step; contiguous prefix
    int last = -1;              ///< last contiguously recorded step
  };
  struct RankLog {
    int cursor = 0;
    std::vector<LoopLog> loops;
  };
  std::vector<RankLog> ranks_;
  std::vector<int> resume_; ///< sealed per-loop resume step
  int interval_ = 1;
  std::atomic<std::uint64_t> resumed_steps_{0};
};

/// Per-rank copies of the replicated sparse-value shards of a 2.5D
/// family, with FNV-1a digests. Each rank owns one shard and retains
/// replica copies of its peers' shards (what the row ring / fiber
/// traffic materializes on every kernel call). A crash scrubs the rank's
/// memory — owned shard and retained replicas; reconstruct() rebuilds
/// the shard from a digest-valid surviving replica, or throws WorldError
/// when no peer holds one (q == 1 rings / c == 1 fibers have no
/// redundancy to recover from).
///
/// All mutation happens between world attempts on the recovery thread;
/// during a run the rank threads only read their own shards.
class ReplicaStore {
 public:
  explicit ReplicaStore(int num_ranks);

  /// Register rank's owned shard and the peers that replicate it.
  void set_shard(int rank, std::vector<Scalar> values,
                 std::vector<int> peers);

  /// Materialize every peer's replica copies and the shard digests. Call
  /// once after all set_shard calls, before the world runs.
  void finalize();

  /// The rank's live shard — fault-mode kernels read values through
  /// this instead of the shared setup tables.
  const std::vector<Scalar>& values(int rank) const;

  /// Simulate the crash: NaN-fill the rank's owned shard and discard the
  /// replica copies it held for others.
  void scrub(int rank);

  struct Repair {
    int source_rank = -1;
    std::uint64_t words = 0;
  };
  /// Rebuild the rank's shard (and its retained replicas) from a
  /// digest-valid peer. Throws WorldError when no valid replica survives.
  Repair reconstruct(int rank);

  /// True when reconstruct() would succeed: some surviving peer holds a
  /// digest-valid replica of the rank's shard.
  bool can_reconstruct(int rank) const;

  /// Fallback when no replica survives: install externally checkpointed
  /// values as the rank's shard (verified against the recorded digest)
  /// and refill the replica copies the rank retains for others. The
  /// Repair's source_rank is -1 — the bytes came from stable storage,
  /// not a peer.
  Repair adopt(int rank, std::vector<Scalar> values);

  std::uint64_t digest(int rank) const;

 private:
  struct Entry {
    std::vector<Scalar> owned;
    std::vector<int> peers;
    std::uint64_t digest = 0;
    bool valid = false;
    /// Replica copies this rank retains, keyed by the owner rank.
    std::map<int, std::vector<Scalar>> replicas;
  };
  std::vector<Entry> entries_;
};

} // namespace dsk
