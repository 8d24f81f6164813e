#pragma once
/// \file engine.hpp
/// Internal: the pass engine under every distributed driver, plus the
/// per-family driver factories. Not part of the public API.
///
/// The paper's unified kernel (Section IV-A) gives SDDMM, SpMM-A and
/// SpMM-B one communication skeleton per data distribution, and FusedMM
/// is an SDDMM feeding an SpMM under an eliding strategy (Section IV-B).
/// The engine composes every op out of a family's per-rank passes:
///
///   * `sddmm()` — replication plus the dot loop; returns the working
///     block (kept for an eliding SpMM) and the dots per local piece;
///   * `spmm(in, out)` — one SpMM pass in either orientation, over the
///     stored values (the kernels) or the SDDMM outputs (FusedMM);
///   * `fused(out)` — LocalKernelFusion (1.5D dense shifting only).
///
/// Everything around the passes is written once, here: the result the
/// passes write into, the wire codec, the single cache decision, the
/// fault stores and their recovery hook, the live-value routing (the
/// fault-free path reads the setup tables by reference), the world the
/// run happens on, the repetition loop and the elision logic (FusedMM
/// without elision replicates again; ReplicationReuse reuses the SDDMM
/// pass's block). A family supplies geometry only: its setup snapshot,
/// its rank-local shard values and replica peers, and its Rank passes.

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "dist/algorithm.hpp"
#include "dist/shards.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/collectives.hpp"
#include "runtime/recovery.hpp"
#include "runtime/world.hpp"

namespace dsk::detail {

std::unique_ptr<DistAlgorithm> make_dense_shift_15d(
    int p, int c, const AlgorithmOptions& options);
std::unique_ptr<DistAlgorithm> make_sparse_shift_15d(
    int p, int c, const AlgorithmOptions& options);
std::unique_ptr<DistAlgorithm> make_dense_repl_25d(
    int p, int c, const AlgorithmOptions& options);
std::unique_ptr<DistAlgorithm> make_sparse_repl_25d(
    int p, int c, const AlgorithmOptions& options);
std::unique_ptr<DistAlgorithm> make_baseline_1d(
    int p, int c, const AlgorithmOptions& options);

/// Copy of a shard's CSR with its stored values replaced (the FusedMM
/// SpMM passes run the SDDMM output values through the same pattern).
CsrMatrix csr_with_values(const CsrMatrix& pattern,
                          std::span<const Scalar> values);

/// Run the SPMD body on the resident world if one is given (its size
/// must match num_ranks), else on a one-shot world.
WorldStats run_in(SimWorld* world, int num_ranks,
                  const std::function<void(Comm&)>& body,
                  const WorldOptions& options);

/// One run's cache decision, taken once on the driver thread so every
/// rank agrees: on a hit, the blocking replicate paths return the
/// parked block without touching the wire; on a miss they gather as
/// usual and park the result for the next run.
struct CacheUse {
  ReplicationCache* cache = nullptr;
  bool hit = false;
};

/// Resolve the cache for one run of `op` and record the hit/miss. Only
/// the kernels that replicate a stationary A (SDDMM, SpMM-B) consult
/// it; caching is off whenever faults are armed (a crashed attempt
/// could abandon a partial fill).
CacheUse cache_use(const Op& op, const ExecuteOptions& exec,
                   const AlgorithmOptions& options);

/// The rank-local sparse memory a crash scrubs, and what heals it.
struct FaultStores {
  std::optional<ReplicaStore> replicas;
  std::optional<CheckpointStore> checkpoints;

  /// The rank's live shard values while crashes are armed, else null
  /// (the passes then read the setup tables directly).
  const std::vector<Scalar>* live(int rank) const {
    return replicas ? &replicas->values(rank) : nullptr;
  }
};

/// World options for one run. With crashes in the fault plan, every
/// rank's shard values go into the digest-verified checkpoint store and
/// into a replica store held by its `replica_peers`; on_crash scrubs the
/// crashed rank and rebuilds its shard from a digest-valid peer replica,
/// or — when it has no peers (an empty list: checkpoint-only families,
/// q == 1 rings, c == 1 fibers) or none survives — restores the
/// checkpoint and adopts the restored bytes back into the replica store.
WorldOptions fault_options(
    const AlgorithmOptions& options, int p,
    const std::function<std::vector<Scalar>(int)>& shard_values,
    const std::function<std::vector<int>(int)>& replica_peers,
    FaultStores& stores);

/// What one rank's passes run with, fixed by the engine per run.
struct RankRun {
  Comm& comm;
  const AlgorithmOptions& options;
  const WireCodec& codec;
  /// The run's cache decision (empty unless this op consults a cache).
  const CacheUse& cache;
  /// The rank's live shard values under armed crashes, else null.
  const std::vector<Scalar>* live;
  const DenseMatrix& a;
  const DenseMatrix& b;
};

/// One local piece after an SDDMM pass: the values the dots scale, the
/// global entry slot of each, and the dot products themselves.
struct SampledPiece {
  std::span<const Scalar> values;
  std::span<const Index> entries;
  std::vector<Scalar> dots;
};

struct SddmmOut {
  /// The replicated working block; an eliding SpMM pass reuses it.
  DenseMatrix a_work;
  std::vector<SampledPiece> pieces;
};

/// Per local piece, in SddmmOut order: the values an SpMM pass
/// multiplies by.
using PieceValues = std::vector<std::vector<Scalar>>;

struct SpmmIn {
  FusedOrientation orientation = FusedOrientation::A;
  /// Null for the SpMM kernels (the stored values); FusedMM passes the
  /// SDDMM outputs.
  const PieceValues* values = nullptr;
  /// FusedMM: the SDDMM pass's working block. The kernels replicate
  /// their own.
  const DenseMatrix* a_work = nullptr;
  /// FusedMM without elision: an SpMM-B pass replicates A again, and the
  /// gathered copy goes unused (the bits are the SDDMM pass's). SpMM-A
  /// never reads A, so it never replicates it.
  bool repeat = false;
};

/// One rank's passes in one run. A family derives its Rank from this;
/// run() composes the requested op out of the passes.
class RankPasses {
 public:
  explicit RankPasses(const RankRun& run) : run_(run), comm_(run.comm) {}
  RankPasses(const RankPasses&) = delete;
  RankPasses& operator=(const RankPasses&) = delete;
  virtual ~RankPasses() = default;

  virtual SddmmOut sddmm() = 0;
  virtual void spmm(const SpmmIn& in, DenseMatrix& out) = 0;
  /// LocalKernelFusion in orientation A (the engine runs orientation B
  /// as orientation A of the transposed problem).
  virtual void fused(DenseMatrix& out);
  /// The SDDMM kernel's output: every local piece's dots scaled by its
  /// values and scattered to the global entry order.
  virtual void write_sddmm(const SddmmOut& sd, std::span<Scalar> out);

  /// The repetition loop and elision logic of `op`.
  void run(const Op& op, KernelResult& out);

 protected:
  const RankRun& run_;
  Comm& comm_;
};

/// A rank's value-owning pieces as its kernels read them. Fault-free
/// these are the setup tables themselves, by reference; under armed
/// crashes the values come from the rank's live shard (split across the
/// pieces in order) and the CSRs are revalued copies of it.
class LivePieces {
 public:
  LivePieces(std::vector<const SparseShard*> pieces,
             const std::vector<Scalar>* live);

  std::size_t size() const { return pieces_.size(); }
  const SparseShard& shard(std::size_t j) const { return *pieces_[j]; }
  std::span<const Scalar> values(std::size_t j) const;
  const CsrMatrix& csr(std::size_t j) const;
  /// The CSR piece j multiplies by in an SpMM pass: its stored values
  /// for the kernels, else the pass's values (revalued into scratch).
  const CsrMatrix& csr(std::size_t j, const PieceValues* values,
                       CsrMatrix& scratch) const;
  /// Piece j ready for an SDDMM pass to fill in its dots.
  SampledPiece sampled(std::size_t j) const;

 private:
  std::vector<const SparseShard*> pieces_;
  const std::vector<Scalar>* live_;
  std::vector<std::size_t> offsets_;
  std::vector<CsrMatrix> live_csr_;
};

/// The concatenated values of a rank's pieces — its rank-local sparse
/// memory, in LivePieces order.
std::vector<Scalar> concat_values(
    const std::vector<const SparseShard*>& pieces);

/// A rank's seat in the fiber that replicates its A-side working block.
/// The rank's canonical chunk — rows [row0, row0 + rows) and columns
/// [col0, col0 + cols) of the A-shaped matrices — is what it contributes
/// to the all-gather in (cut from the run's A when a gather starts) and
/// where its share of the output reduce-scatter lands. `wants` holds the
/// fiber members' row supports in fiber order (the row-sparse
/// collectives' plan).
class Fiber {
 public:
  Fiber(const RankRun& run, std::vector<int> members,
        std::span<const std::vector<Index>> wants, Index row0, Index rows,
        Index col0, Index cols);

  /// Blocking all-gather (a cache hit returns the parked block with no
  /// traffic; a filling run parks what it gathered).
  DenseMatrix gather(const CacheUse& cache = {});
  void reduce(const DenseMatrix& partial, DenseMatrix& out);

 private:
  DenseMatrix source() const;

  const RankRun& run_;
  Group group_;
  std::span<const std::vector<Index>> wants_;
  Index row0_;
  Index rows_;
  Index col0_;
  Index cols_;
};

/// A ring a rank's payloads circulate on, in ring_channel's direction,
/// with the wire schedule of each payload kind (read-only input,
/// mutating accumulator) built on first use and kept for the run.
/// `touch` gives the rows of block `origin` that its consumer at `step`
/// reads or writes (see make_ring_compression; the rank holds block
/// `origin0` at step 0); a null touch marks payloads that are already
/// sparsity-sized and travel uncompressed.
class Ring {
 public:
  using Touch = std::function<std::span<const Index>(int origin, int step)>;

  Ring(const RankRun& run, std::vector<int> members, int pos, int tag,
       Index block_rows = 0, Index width = 0, int origin0 = 0,
       Touch touch = nullptr);
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  int size() const { return static_cast<int>(members_.size()); }
  /// A channel starting from `start`; the loop must not outlive the Ring.
  ShiftChannel channel(bool mutates, MessageWords start);

 private:
  const RankRun& run_;
  std::vector<int> members_;
  int pos_;
  int tag_;
  Index block_rows_;
  Index width_;
  int origin0_;
  Touch touch_;
  std::optional<ShiftCompression> compression_[2];
};

/// Journal hooks for a stationary dense accumulator.
ShiftJournalHooks journal_dense(DenseMatrix& m);
/// Journal hooks for stationary per-piece dot vectors.
ShiftJournalHooks journal_dots(std::vector<SampledPiece>& pieces);

/// A family's driver: the engine's run_op composed over F's geometry.
/// F provides `Setup`, `Setup make_setup(s, r)`, `shard_values(su,
/// rank)`, a `Rank` class derived from RankPasses and constructed from
/// (F, Setup, RankRun), and `kCachesReplication` (false for families
/// with no A fiber to cache). It may hide check_op (reject ops it does
/// not run) and replica_peers (default: none — checkpoint-only).
template <class F>
class GridFamily : public DistAlgorithm {
 public:
  using DistAlgorithm::DistAlgorithm;

  void check_op(const Op&) const {}
  std::vector<int> replica_peers(int) const { return {}; }

 protected:
  std::shared_ptr<const PlanData> do_make_plan(const CooMatrix& s,
                                               Index r) const final {
    return std::make_shared<Snapshot>(self().make_setup(s, r));
  }

  WorldStats run_op(const Op& op, const PlanData& plan,
                    const ExecuteOptions& exec, const DenseMatrix& a,
                    const DenseMatrix& b, KernelResult& out) const final {
    const auto* snap = dynamic_cast<const Snapshot*>(&plan);
    check(snap != nullptr, to_string(kind()),
          ": plan was not built by this driver");
    const auto& su = snap->setup;
    self().check_op(op);
    const WireCodec codec = effective_wire_codec(options(), exec);
    const CacheUse cache =
        F::kCachesReplication ? cache_use(op, exec, options()) : CacheUse{};
    FaultStores stores;
    const WorldOptions wo = fault_options(
        options(), p(),
        [&](int rank) { return self().shard_values(su, rank); },
        [&](int rank) { return self().replica_peers(rank); }, stores);
    return run_in(exec.world, p(), [&](Comm& comm) {
      const RankRun run{comm,  options(), codec, cache,
                        stores.live(comm.rank()), a, b};
      typename F::Rank rank(self(), su, run);
      rank.run(op, out);
    }, wo);
  }

 private:
  struct Snapshot final : PlanData {
    explicit Snapshot(typename F::Setup s) : setup(std::move(s)) {}
    typename F::Setup setup;
  };

  const F& self() const { return static_cast<const F&>(*this); }
};

} // namespace dsk::detail
