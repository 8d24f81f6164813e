#include "dist/algorithm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "dist/engine.hpp"
#include "dist/grid.hpp"
#include "dist/problem.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/world.hpp"

namespace dsk {

WireCodec effective_wire_codec(const AlgorithmOptions& options,
                               const ExecuteOptions& exec) {
  WireCodec codec{options.wire_precision, options.index_codec};
  if (exec.wire_precision) codec.precision = *exec.wire_precision;
  if (exec.index_codec) codec.index_codec = *exec.index_codec;
  return codec;
}

void DistAlgorithm::validate_dims(Index m, Index n, Index r) const {
  check(m >= 1 && n >= 1 && r >= 1, "validate_dims: empty problem ", m,
        " x ", n, " x ", r);
  const auto req = dims_requirement(kind_, p_, c_);
  check(m % req.m_multiple == 0, to_string(kind_), ": m = ", m,
        " is not a multiple of ", req.m_multiple, " (p=", p_, " c=", c_,
        "); call pad_problem first");
  check(n % req.n_multiple == 0, to_string(kind_), ": n = ", n,
        " is not a multiple of ", req.n_multiple, " (p=", p_, " c=", c_,
        "); call pad_problem first");
  check(r % req.r_multiple == 0, to_string(kind_), ": r = ", r,
        " is not a multiple of ", req.r_multiple, " (p=", p_, " c=", c_,
        "); call pad_problem first");
}

namespace {

void validate_inputs(const DistAlgorithm& algo, const CooMatrix& s,
                     const DenseMatrix& a, const DenseMatrix& b) {
  check(s.is_sorted_unique(),
        to_string(algo.kind()),
        ": sparse input must be sorted with unique entries "
        "(call sort_and_combine first)");
  check(a.rows() == s.rows(), to_string(algo.kind()), ": A has ", a.rows(),
        " rows, S has ", s.rows());
  check(b.rows() == s.cols(), to_string(algo.kind()), ": B has ", b.rows(),
        " rows, S has ", s.cols(), " cols");
  check(a.cols() == b.cols(), to_string(algo.kind()), ": A width ",
        a.cols(), " != B width ", b.cols());
  algo.validate_dims(s.rows(), s.cols(), a.cols());
}

/// Degradation only arms itself when the options ask for it AND the plan
/// can actually crash a rank — fault-free runs never pay for the input
/// checkpoint.
bool degrade_armed(const AlgorithmOptions& options) {
  return options.degrade && options.faults != nullptr &&
         options.faults->enabled() && !options.faults->crashes.empty();
}

/// Rows of the op's dense output: A-shaped (m) or B-shaped (n).
Index output_rows(const detail::Op& op, const CooMatrix& s) {
  const bool b_shaped = op.fused ? op.orientation == FusedOrientation::B
                                 : op.mode == Mode::SpMMB;
  return b_shaped ? s.cols() : s.rows();
}

const PlanData* required_plan(const ExecContext& ctx, AlgorithmKind kind) {
  check(ctx.plan != nullptr, to_string(kind),
        ": ExecContext carries no plan; build one with make_plan_data");
  return ctx.plan;
}

} // namespace

/// Snapshot builds made by one call, counted where they happen.
struct DistAlgorithm::SetupTally {
  int builds = 0;
  double seconds = 0.0;
};

std::shared_ptr<const PlanData> DistAlgorithm::make_plan_data(
    const CooMatrix& s, Index r) const {
  check(s.is_sorted_unique(), to_string(kind_),
        ": sparse input must be sorted with unique entries "
        "(call sort_and_combine first)");
  validate_dims(s.rows(), s.cols(), r);
  return do_make_plan(s, r);
}

std::shared_ptr<const PlanData> DistAlgorithm::build_plan(
    const CooMatrix& s, Index r, SetupTally& tally) const {
  Timer timer;
  auto plan = do_make_plan(s, r);
  tally.builds += 1;
  tally.seconds += timer.seconds();
  return plan;
}

/// FusedMM-B under LocalKernelFusion fuses along full rows of the
/// B-shaped output, which is the transposed problem: FusedMMB(S, A, B) =
/// FusedMMA(S^T, B, A). Its snapshot is built on the first such call
/// against `plan` and kept there; call_once makes concurrent executes of
/// a shared Plan build it exactly once (and only the builder counts it).
const PlanData& DistAlgorithm::transposed_plan(const PlanData& plan,
                                               const CooMatrix& s, Index r,
                                               SetupTally& tally) const {
  std::call_once(plan.transposed_once_, [&] {
    Timer timer;
    CooMatrix st = s.transposed();
    st.sort_and_combine();
    plan.transposed_ = do_make_plan(st, r);
    tally.builds += 1;
    tally.seconds += timer.seconds();
  });
  return *plan.transposed_;
}

KernelResult DistAlgorithm::run(const detail::Op& op, const PlanData* plan,
                                const ExecuteOptions& exec,
                                const CooMatrix& s, const DenseMatrix& a,
                                const DenseMatrix& b) const {
  if (op.fused) {
    check(supports(op.elision), to_string(kind_), " does not support ",
          to_string(op.elision));
    check(op.repetitions >= 1,
          "run_fusedmm: repetitions must be positive, got ",
          op.repetitions);
  }
  validate_inputs(*this, s, a, b);
  SetupTally tally;
  std::shared_ptr<const PlanData> fresh;
  if (plan == nullptr) {
    fresh = build_plan(s, a.cols(), tally);
    plan = fresh.get();
  }
  // Degradation restores the sparse input through the digest-verified
  // stable store — the re-plan must not trust memory a crashed world
  // touched — so the values are checkpointed before the world runs.
  std::optional<CheckpointStore> inputs;
  if (degrade_armed(options_)) {
    inputs.emplace(1);
    inputs->save_shard(0, std::vector<Scalar>(s.values().begin(),
                                              s.values().end()));
  }
  KernelResult out;
  if (!op.fused && op.mode == Mode::SDDMM) {
    out.sddmm_values.assign(static_cast<std::size_t>(s.nnz()), Scalar{0});
  } else {
    out.dense = DenseMatrix(output_rows(op, s), a.cols());
  }
  try {
    if (op.fused && op.elision == Elision::LocalKernelFusion &&
        op.orientation == FusedOrientation::B) {
      detail::Op transposed = op;
      transposed.orientation = FusedOrientation::A;
      out.stats = run_op(transposed,
                         transposed_plan(*plan, s, a.cols(), tally), exec,
                         b, a, out);
    } else {
      out.stats = run_op(op, *plan, exec, a, b, out);
    }
  } catch (const WorldError& e) {
    if (!inputs || e.crash().rank < 0) throw;
    // shrink_and_replan: the crashed rank is permanently lost; re-shard
    // the padded problem onto the largest valid surviving grid and
    // re-run from the checkpointed inputs. The shrunken world runs
    // fault-free: the dead rank is gone from the new grid, and replaying
    // the crash plan against renumbered ranks would be meaningless.
    // Per-call codec overrides would be lost across the re-plan, so the
    // effective codec is baked into the degraded driver's options.
    const auto [p2, c2] = shrink_config(kind_, p_, c_);
    inputs->restore(0);
    CooMatrix healed = s;
    const auto& values = inputs->values(0);
    std::copy(values.begin(), values.end(), healed.values().begin());
    AlgorithmOptions dopts = options_;
    dopts.faults = nullptr;
    dopts.degrade = false;
    const WireCodec wc = effective_wire_codec(options_, exec);
    dopts.wire_precision = wc.precision;
    dopts.index_codec = wc.index_codec;
    const auto sub = make_algorithm(kind_, p2, c2, dopts);
    const PaddedProblem padded = pad_problem(kind_, p2, c2, healed, a, b);
    out = sub->run(op, nullptr, {}, padded.s, padded.a, padded.b);
    if (!op.fused && op.mode == Mode::SDDMM) {
      // Padding adds no nonzeros, so the SDDMM values come back in the
      // original entry order already.
      check(out.sddmm_values.size() == static_cast<std::size_t>(s.nnz()),
            "degraded SDDMM returned ", out.sddmm_values.size(),
            " values for ", s.nnz(), " nonzeros");
    } else {
      out.dense = unpad_dense(out.dense, output_rows(op, s), a.cols());
    }
    out.stats.set_degradation(e.crash().rank, p_, p2);
  }
  // A degraded re-plan is reported through the degradation fields; the
  // setup builds are this call's own.
  out.stats.set_setup(tally.builds, tally.seconds);
  return out;
}

KernelResult DistAlgorithm::run_kernel(Mode mode, const CooMatrix& s,
                                       const DenseMatrix& a,
                                       const DenseMatrix& b) const {
  detail::Op op;
  op.mode = mode;
  return run(op, nullptr, {}, s, a, b);
}

KernelResult DistAlgorithm::run_kernel(const ExecContext& ctx, Mode mode,
                                       const CooMatrix& s,
                                       const DenseMatrix& a,
                                       const DenseMatrix& b) const {
  detail::Op op;
  op.mode = mode;
  return run(op, required_plan(ctx, kind_), ctx.exec, s, a, b);
}

FusedResult DistAlgorithm::run_fusedmm(FusedOrientation orientation,
                                       Elision elision, const CooMatrix& s,
                                       const DenseMatrix& a,
                                       const DenseMatrix& b,
                                       int repetitions) const {
  detail::Op op{true, Mode::SDDMM, orientation, elision, repetitions};
  KernelResult out = run(op, nullptr, {}, s, a, b);
  return {std::move(out.dense), std::move(out.stats)};
}

FusedResult DistAlgorithm::run_fusedmm(const ExecContext& ctx,
                                       FusedOrientation orientation,
                                       Elision elision, const CooMatrix& s,
                                       const DenseMatrix& a,
                                       const DenseMatrix& b,
                                       int repetitions) const {
  detail::Op op{true, Mode::SDDMM, orientation, elision, repetitions};
  KernelResult out = run(op, required_plan(ctx, kind_), ctx.exec, s, a, b);
  return {std::move(out.dense), std::move(out.stats)};
}

bool valid_config(AlgorithmKind kind, int p, int c) {
  switch (kind) {
    case AlgorithmKind::DenseShift15D:
    case AlgorithmKind::SparseShift15D:
      return Grid15D::valid(p, c);
    case AlgorithmKind::DenseRepl25D:
    case AlgorithmKind::SparseRepl25D:
      return Grid25D::valid(p, c);
    case AlgorithmKind::Baseline1D:
      return p >= 1 && c == 1;
  }
  return false;
}

std::pair<int, int> shrink_config(AlgorithmKind kind, int p, int c) {
  for (int p2 = p - 1; p2 >= 1; --p2) {
    for (int c2 = std::min(c, p2); c2 >= 1; --c2) {
      if (valid_config(kind, p2, c2)) return {p2, c2};
    }
  }
  fail("shrink_config: no valid ", to_string(kind),
       " grid smaller than p=", p, " c=", c);
}

std::unique_ptr<DistAlgorithm> make_algorithm(AlgorithmKind kind, int p,
                                              int c,
                                              const AlgorithmOptions& options) {
  check(valid_config(kind, p, c), "make_algorithm: invalid grid ",
        to_string(kind), " p=", p, " c=", c);
  switch (kind) {
    case AlgorithmKind::DenseShift15D:
      return detail::make_dense_shift_15d(p, c, options);
    case AlgorithmKind::SparseShift15D:
      return detail::make_sparse_shift_15d(p, c, options);
    case AlgorithmKind::DenseRepl25D:
      return detail::make_dense_repl_25d(p, c, options);
    case AlgorithmKind::SparseRepl25D:
      return detail::make_sparse_repl_25d(p, c, options);
    case AlgorithmKind::Baseline1D:
      return detail::make_baseline_1d(p, c, options);
  }
  fail("make_algorithm: unknown algorithm kind");
}

namespace detail {
namespace {

/// The PETSc-like 1D block-row baseline (paper Section VI-A): S, A, and
/// B in block rows of m/p (resp. n/p); SpMMA fetches the remote B rows
/// its column support touches, point to point, with no replication to
/// amortize them. The communication plan (which rows each pair
/// exchanges) is computed at setup, like PETSc's cached VecScatter; the
/// fetch payloads are charged to Phase::Propagation. The baseline holds
/// no redundancy, so crash recovery restores each rank's CSR values
/// from the checkpoint store and re-runs the body in full (there are no
/// shift loops to journal; the one-shot crash triggers never re-fire).
class Baseline1D final : public GridFamily<Baseline1D> {
 public:
  Baseline1D(int p, int c, const AlgorithmOptions& options)
      : GridFamily(AlgorithmKind::Baseline1D, p, c, options) {}

  bool supports(Elision elision) const override {
    return elision == Elision::None;
  }

  static constexpr bool kCachesReplication = false;

  struct Setup {
    Index m = 0, n = 0, r = 0;
    Index row_blk = 0, col_blk = 0;
    /// Per rank: local block CSR with columns remapped to positions in
    /// `cols` (the sorted distinct global columns it touches).
    std::vector<SparseShard> shards;
    std::vector<std::vector<Index>> cols;
    /// needs[k][o]: global B rows rank k fetches from owner o.
    std::vector<std::vector<std::vector<Index>>> needs;
  };

  Setup make_setup(const CooMatrix& s, Index r) const {
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    check(su.m % p() == 0 && su.n % p() == 0,
          "1D-Baseline: m = ", su.m, ", n = ", su.n,
          " must be multiples of p = ", p(),
          "; call pad_problem first");
    su.row_blk = su.m / p();
    su.col_blk = su.n / p();
    su.cols.resize(static_cast<std::size_t>(p()));
    // Distinct column support per rank (entries are sorted, so a block's
    // columns arrive row-major; collect and sort-unique).
    std::vector<std::vector<Index>> support(
        static_cast<std::size_t>(p()));
    for (Index k = 0; k < s.nnz(); ++k) {
      const auto e = s.entry(k);
      support[static_cast<std::size_t>(e.row / su.row_blk)].push_back(
          e.col);
    }
    for (int k = 0; k < p(); ++k) {
      auto& cols = support[static_cast<std::size_t>(k)];
      std::sort(cols.begin(), cols.end());
      cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
      su.cols[static_cast<std::size_t>(k)] = std::move(cols);
    }
    su.shards = shard_coo(
        s, p(), [&](Index row, Index) { return static_cast<int>(row / su.row_blk); },
        [&](Index row, Index col) {
          const auto k = static_cast<std::size_t>(row / su.row_blk);
          const auto& cols = su.cols[k];
          const auto it = std::lower_bound(cols.begin(), cols.end(), col);
          return std::pair<Index, Index>(
              row % su.row_blk,
              static_cast<Index>(std::distance(cols.begin(), it)));
        },
        [&](int bucket) {
          return std::pair<Index, Index>(
              su.row_blk,
              static_cast<Index>(
                  su.cols[static_cast<std::size_t>(bucket)].size()));
        });
    su.needs.assign(static_cast<std::size_t>(p()),
                    std::vector<std::vector<Index>>(
                        static_cast<std::size_t>(p())));
    for (int k = 0; k < p(); ++k) {
      for (const Index col : su.cols[static_cast<std::size_t>(k)]) {
        const int owner = static_cast<int>(col / su.col_blk);
        if (owner != k) {
          su.needs[static_cast<std::size_t>(k)]
                  [static_cast<std::size_t>(owner)]
                      .push_back(col);
        }
      }
    }
    return su;
  }

  void check_op(const Op& op) const {
    check(op.fused || op.mode == Mode::SpMMA,
          "1D-Baseline supports SpMMA only (the paper's baseline runs "
          "FusedMM as two SpMM calls)");
    check(!op.fused || op.orientation == FusedOrientation::A,
          "1D-Baseline supports FusedMM orientation A only");
  }

  std::vector<Scalar> shard_values(const Setup& su, int rank) const {
    return concat_values({&su.shards[static_cast<std::size_t>(rank)]});
  }

  class Rank final : public RankPasses {
   public:
    Rank(const Baseline1D& f, const Setup& su, const RankRun& run)
        : RankPasses(run),
          f_(f),
          su_(su),
          rank_(run.comm.rank()),
          shard_({&su.shards[static_cast<std::size_t>(rank_)]}, run.live) {}

    /// The fetched B rows are the working block; the dots come from the
    /// rank's own A rows.
    SddmmOut sddmm() override {
      SddmmOut sd;
      sd.a_work = fetch_b();
      sd.pieces.push_back(shard_.sampled(0));
      PhaseScope scope(comm_.stats(), Phase::Computation);
      const DenseMatrix a_block =
          run_.a.row_block(rank_ * su_.row_blk, (rank_ + 1) * su_.row_blk);
      comm_.stats().add_flops(masked_dot_products(
          shard_.csr(0), a_block, sd.a_work, sd.pieces[0].dots));
      return sd;
    }

    /// SpMM-A over freshly fetched rows. FusedMM's pair fetches the same
    /// rows twice: the baseline has no elision to offer.
    void spmm(const SpmmIn& in, DenseMatrix& out) override {
      const DenseMatrix work = fetch_b();
      PhaseScope scope(comm_.stats(), Phase::Computation);
      DenseMatrix block(su_.row_blk, su_.r);
      CsrMatrix scratch;
      comm_.stats().add_flops(
          spmm_a(shard_.csr(0, in.values, scratch), work, block));
      place_block(out, block, rank_ * su_.row_blk, 0);
    }

   private:
    /// Fetch remote B rows per the plan and assemble the rank's
    /// compacted working set (distinct columns x r). The reply payload
    /// is a bare value run (row order fixed by the shared plan, so no
    /// index header travels) routed through the wire-codec layer.
    DenseMatrix fetch_b() const {
      const auto& mine = su_.cols[static_cast<std::size_t>(rank_)];
      DenseMatrix work(static_cast<Index>(mine.size()), su_.r);
      {
        PhaseScope scope(comm_.stats(), Phase::Propagation);
        // Buffered sends first (deadlock-free), then blocking receives.
        for (int t = 0; t < f_.p(); ++t) {
          if (t == rank_) continue;
          const auto& rows = su_.needs[static_cast<std::size_t>(t)]
                                      [static_cast<std::size_t>(rank_)];
          if (rows.empty()) continue;
          std::vector<Scalar> values;
          values.reserve(rows.size() * static_cast<std::size_t>(su_.r));
          for (const Index g : rows) {
            const auto row = run_.b.row(g);
            values.insert(values.end(), row.begin(), row.end());
          }
          comm_.send_words(t, kTagFetchReply,
                           encode_values(values, run_.codec));
        }
        for (int o = 0; o < f_.p(); ++o) {
          if (o == rank_) continue;
          const auto& rows = su_.needs[static_cast<std::size_t>(rank_)]
                                      [static_cast<std::size_t>(o)];
          if (rows.empty()) continue;
          const auto values = decode_values(
              comm_.recv_words(o, kTagFetchReply),
              static_cast<std::int64_t>(rows.size()) * su_.r, run_.codec);
          for (std::size_t k = 0; k < rows.size(); ++k) {
            const Index g = rows[k];
            const auto* row =
                values.data() + k * static_cast<std::size_t>(su_.r);
            const auto it = std::lower_bound(mine.begin(), mine.end(), g);
            const auto local =
                static_cast<Index>(std::distance(mine.begin(), it));
            std::copy(row, row + su_.r, work.row(local).begin());
          }
        }
      }
      // Local columns straight from the owner's block (no communication).
      for (std::size_t i = 0; i < mine.size(); ++i) {
        const Index g = mine[i];
        if (g / su_.col_blk == rank_) {
          const auto row = run_.b.row(g);
          std::copy(row.begin(), row.end(),
                    work.row(static_cast<Index>(i)).begin());
        }
      }
      return work;
    }

    const Baseline1D& f_;
    const Setup& su_;
    int rank_;
    LivePieces shard_;
  };
};

} // namespace

std::unique_ptr<DistAlgorithm> make_baseline_1d(
    int p, int c, const AlgorithmOptions& options) {
  return std::make_unique<Baseline1D>(p, c, options);
}

} // namespace detail
} // namespace dsk
