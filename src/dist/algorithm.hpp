#pragma once
/// \file algorithm.hpp
/// The distributed algorithm drivers (paper Section V): 1.5D
/// dense-shifting (Algorithm 1), 1.5D sparse-shifting, the 2.5D
/// dense-replicating (Algorithm 2) and sparse-replicating variants, and
/// the PETSc-like 1D block-row baseline. Every driver runs the unified
/// kernel (SDDMM / SpMMA / SpMMB — Section IV-A) and FusedMM in both
/// orientations with the communication-eliding strategies of Section
/// IV-B, over the simulated runtime with word-exact cost accounting.
///
/// All algorithms verify against the same serial references; the cost
/// property tests additionally assert that the measured replication and
/// propagation words equal the paper's Table III closed forms exactly on
/// load-balanced inputs.

#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "dense/dense_matrix.hpp"
#include "dist/shift_loop.hpp"
#include "runtime/stats.hpp"
#include "sparse/coo.hpp"

namespace dsk {

/// Tuning knobs shared by every algorithm family. The schedule selects
/// the propagation engine (see shift_loop.hpp); all schedules produce
/// bit-identical outputs and identical word counts, so the default is
/// the overlapping one. Pipelined additionally streams the replication
/// all-gather into the first shift step in `chunk_rows`-row pieces
/// (0 = auto: quarter blocks); the knob is rejected by run_shift_loop's
/// callers only through the CLI — programmatically it is simply unused
/// outside the Pipelined schedule. Families with no fiber replication
/// of dense row blocks (2.5D sparse replicating, 1D baseline) treat
/// Pipelined exactly as DoubleBuffered.
///
/// `replication` selects how the replication-phase fiber collectives
/// move the A-side row blocks (SpComm3D direction): Dense ships whole
/// blocks through the ring collectives — the paper's Table III cost,
/// kept as the default so the exact cost-model tests stay exact;
/// SparseRows ships only the rows in the local sparse block's support
/// plus an index header; Auto picks whichever moves fewer words for the
/// fiber at hand. All three modes produce bit-identical outputs. The
/// knob is a no-op for families whose replication traffic is already
/// sparsity-sized (2.5D sparse replicating) or absent (1D baseline).
/// `propagation` selects how the propagation-phase cyclic shifts move
/// the dense B-side blocks (the nonzero-granular SpComm3D direction
/// applied to the shift loop): Dense forwards whole blocks — the
/// paper's Table III cost, kept as the default so the exact cost-model
/// tests stay exact; SparseCols ships, per hop, only the block rows in
/// the column support the rest of the ring trip still consumes (or, for
/// circulating accumulators, has written so far) as
/// [count, cols..., values...] messages; Auto decides per hop, so
/// max-per-rank propagation words never exceed Dense. All modes are
/// bit-identical. The knob is a no-op for channels that are already
/// sparsity-sized (the circulating COO triplets of 1.5D sparse shifting
/// and the 2.5D S pieces) and for the 1D baseline's support-sized
/// fetches; the 2.5D sparse-replicating family compresses BOTH of its
/// circulating dense slices (rows by row support, columns by column
/// support).
struct FaultPlan;

struct AlgorithmOptions {
  ShiftSchedule schedule = ShiftSchedule::DoubleBuffered;
  ReplicationMode replication = ReplicationMode::Dense;
  PropagationMode propagation = PropagationMode::Dense;
  /// Pipelined schedule only: rows per replication chunk (0 = auto).
  Index chunk_rows = 0;
  /// Borrowed fault plan (must outlive the run); null = fault-free.
  /// Every driver recovers injected rank crashes: the 2.5D families
  /// rebuild the lost shard from their replicas (falling back to the
  /// digest-verified checkpoint store when no peer survives), and the
  /// 1.5D/1D families — which hold no redundancy — restore it from the
  /// checkpoint store directly, then resume journaled shift loops.
  const FaultPlan* faults = nullptr;
  /// Crash-recovery knobs, only read when `faults` injects crashes:
  /// journal/checkpoint snapshot cadence in shift steps (0 = every
  /// step) and the recovery-attempt budget.
  int checkpoint_interval = 0;
  int max_recoveries = 4;
  /// Graceful degradation: when recovery is impossible or the budget is
  /// exhausted, re-shard the padded problem onto the largest valid
  /// smaller grid and re-run fault-free from the checkpointed inputs
  /// instead of surfacing the WorldError.
  bool degrade = false;
  /// Wire codec for every block message class (dense hops, row/col
  /// support messages, circulating triplets, bare value fibers).
  /// `wire_precision` selects the value encoding: Full keeps the
  /// historical one-word-per-value layout (and Table III exactness);
  /// F32 / BF16 pack 2 / 4 values per word, shrinking wire words at a
  /// documented accuracy cost. `index_codec` selects the support-header
  /// encoding: Raw keeps the historical one-word-per-index layout;
  /// DeltaVarint / Bitmap shrink dense-support headers; Auto picks the
  /// smallest per message. Dot-sum collectives (allreduce / broadcast /
  /// scalar gathers), checkpoints, and journal snapshots always stay
  /// full precision — the codec governs block wire traffic only.
  WirePrecision wire_precision = WirePrecision::Full;
  IndexCodec index_codec = IndexCodec::Raw;
};

/// Result of one unified kernel call. `dense` holds the global SpMM
/// output (empty for SDDMM); `sddmm_values` holds the SDDMM output
/// values in the input matrix's entry order (empty for SpMM).
struct KernelResult {
  DenseMatrix dense;
  std::vector<Scalar> sddmm_values;
  WorldStats stats;
};

class SimWorld;
class ReplicationCache;

/// Type-erased per-driver setup snapshot (grid, shards, support unions,
/// compression schedules) built once by `DistAlgorithm::make_plan_data`
/// and reusable across calls. Each driver derives its own snapshot and
/// rejects foreign ones, so a plan can only be executed by the driver
/// configuration that built it. Immutable after construction, except
/// for the snapshot of the transposed problem that FusedMM-B under
/// LocalKernelFusion runs on: the first such execute builds it, once,
/// and every later one (on any thread) reuses it.
struct PlanData {
  PlanData() = default;
  PlanData(const PlanData&) = delete;
  PlanData& operator=(const PlanData&) = delete;
  virtual ~PlanData() = default;

 private:
  friend class DistAlgorithm;
  mutable std::once_flag transposed_once_;
  mutable std::shared_ptr<const PlanData> transposed_;
};

/// Per-request execution environment. `world` is an optional resident
/// SimWorld reused across requests (must have exactly the driver's p
/// ranks); `cache` is an optional cross-call replicated-factor cache
/// (see dist/replication_cache.hpp) consulted by the blocking
/// replication prologues — ignored by families whose replication is
/// already sparsity-sized and whenever faults are armed. Both borrowed,
/// both optional — defaults execute on a one-shot world with no cache.
/// `wire_precision` / `index_codec`, when set, override the driver
/// options' wire codec for this request only (see effective_wire_codec)
/// — a serving layer can trade accuracy for wire words per request
/// without rebuilding the Plan.
struct ExecuteOptions {
  SimWorld* world = nullptr;
  ReplicationCache* cache = nullptr;
  std::optional<WirePrecision> wire_precision;
  std::optional<IndexCodec> index_codec;
};

/// Per-call execution context for the plan/execute path: the prebuilt
/// setup snapshot plus the request's execution environment.
struct ExecContext {
  const PlanData* plan = nullptr;
  ExecuteOptions exec;
};

/// The wire codec one call runs with: the driver options' settings
/// unless the request overrides them.
WireCodec effective_wire_codec(const AlgorithmOptions& options,
                               const ExecuteOptions& exec);

/// Result of a FusedMM call: the A-shaped (orientation A) or B-shaped
/// (orientation B) global output.
struct FusedResult {
  DenseMatrix output;
  WorldStats stats;
};

namespace detail {

/// One engine call: a unified kernel, or FusedMM repeated `repetitions`
/// times under an eliding strategy.
struct Op {
  bool fused = false;
  Mode mode = Mode::SDDMM;
  FusedOrientation orientation = FusedOrientation::A;
  Elision elision = Elision::None;
  int repetitions = 1;
};

} // namespace detail

class DistAlgorithm {
 public:
  DistAlgorithm(AlgorithmKind kind, int p, int c,
                const AlgorithmOptions& options)
      : kind_(kind), p_(p), c_(c), options_(options) {}
  virtual ~DistAlgorithm() = default;

  AlgorithmKind kind() const { return kind_; }
  int p() const { return p_; }
  int c() const { return c_; }
  const AlgorithmOptions& options() const { return options_; }

  /// True when the family admits the eliding strategy (paper Figure 1:
  /// local kernel fusion needs co-located full rows, so only 1.5D dense
  /// shifting supports it; 2.5D sparse replication elides nothing).
  virtual bool supports(Elision elision) const = 0;

  /// Throws unless (m, n, r) divide the family's block grid (the
  /// multiples advertised by dims_requirement in dist/problem.hpp).
  void validate_dims(Index m, Index n, Index r) const;

  /// Build this driver's setup snapshot for (s, r) without running
  /// anything: grid placement, shards, row/col support unions, and
  /// compression schedules. The snapshot is immutable and reusable —
  /// pass it back through ExecContext::plan to skip per-call setup.
  /// Prefer the `Plan` wrapper in dist/plan.hpp, which also fingerprints
  /// the inputs the snapshot was built from.
  std::shared_ptr<const PlanData> make_plan_data(const CooMatrix& s,
                                                 Index r) const;

  /// Run one unified kernel over the simulated machine and gather the
  /// global result. Inputs: s sorted with unique entries, a sized
  /// s.rows() x r, b sized s.cols() x r. SpMMA reads only b, SpMMB only
  /// a, SDDMM both. Builds the setup fresh (stats report one setup
  /// build) and runs on a one-shot world.
  KernelResult run_kernel(Mode mode, const CooMatrix& s,
                          const DenseMatrix& a, const DenseMatrix& b) const;

  /// Plan/execute variant: run against a prebuilt snapshot (and
  /// optionally a resident world and replication cache). ctx.plan must
  /// come from this driver configuration's make_plan_data for the same
  /// (s, r); stats report zero setup builds. Bit-identical to the fresh
  /// overload.
  KernelResult run_kernel(const ExecContext& ctx, Mode mode,
                          const CooMatrix& s, const DenseMatrix& a,
                          const DenseMatrix& b) const;

  /// Run FusedMM (SDDMM feeding SpMM) `repetitions` times with the given
  /// eliding strategy; communication scales exactly linearly in
  /// repetitions and the output is that of a single call. Orientation B
  /// under LocalKernelFusion runs the transposed problem and so builds
  /// its snapshot too: a fresh call reports two setup builds, and a
  /// planned one reports one on the first such execute of a plan.
  FusedResult run_fusedmm(FusedOrientation orientation, Elision elision,
                          const CooMatrix& s, const DenseMatrix& a,
                          const DenseMatrix& b, int repetitions = 1) const;

  /// Plan/execute variant of run_fusedmm (see the kernel overload).
  FusedResult run_fusedmm(const ExecContext& ctx,
                          FusedOrientation orientation, Elision elision,
                          const CooMatrix& s, const DenseMatrix& a,
                          const DenseMatrix& b, int repetitions = 1) const;

 protected:
  virtual std::shared_ptr<const PlanData> do_make_plan(const CooMatrix& s,
                                                       Index r) const = 0;

  /// The pass engine (dist/engine.hpp): run `op` against a snapshot
  /// this driver built, into the result `run` allocated, and return the
  /// run's stats.
  virtual WorldStats run_op(const detail::Op& op, const PlanData& plan,
                            const ExecuteOptions& exec,
                            const DenseMatrix& a, const DenseMatrix& b,
                            KernelResult& out) const = 0;

 private:
  struct SetupTally;

  /// The one call path behind run_kernel and run_fusedmm: plan (fresh
  /// when `plan` is null), allocate the result, run, and degrade onto a
  /// smaller grid when a crash is permanent and the options allow it.
  KernelResult run(const detail::Op& op, const PlanData* plan,
                   const ExecuteOptions& exec, const CooMatrix& s,
                   const DenseMatrix& a, const DenseMatrix& b) const;
  std::shared_ptr<const PlanData> build_plan(const CooMatrix& s, Index r,
                                             SetupTally& tally) const;
  const PlanData& transposed_plan(const PlanData& plan, const CooMatrix& s,
                                  Index r, SetupTally& tally) const;

  AlgorithmKind kind_;
  int p_;
  int c_;
  AlgorithmOptions options_;
};

/// True when (p, c) forms a valid grid for the family (c | p; 2.5D
/// additionally needs p/c square; the baseline has no replication).
bool valid_config(AlgorithmKind kind, int p, int c);

/// The largest valid (p', c') with p' < p and c' <= c — the surviving
/// grid a degraded run re-plans onto after losing a rank. Throws when no
/// smaller valid configuration exists (p == 1).
std::pair<int, int> shrink_config(AlgorithmKind kind, int p, int c);

/// Build a driver; throws on invalid (p, c).
std::unique_ptr<DistAlgorithm> make_algorithm(
    AlgorithmKind kind, int p, int c, const AlgorithmOptions& options = {});

} // namespace dsk
