/// \file algorithm_25d.cpp
/// The 2.5D algorithm family (paper Algorithm 2 and its
/// sparse-replicating sibling) on the q x q x c grid of dist/grid.hpp.
///
/// Dense replicating: S lives in q x (q*c) blocks and circulates along
/// row rings together with n/(qc)-row blocks of B along column rings,
/// Cannon-style, while the dense A side is replicated along fibers
/// (all-gather in, reduce-scatter out) — both a sparse and a dense block
/// move on every shift, which is why the propagation term carries both
/// 3*nnz/p and n*r/p words per step.
///
/// Sparse replicating: the q x q cells of S are replicated across the c
/// fiber ranks (pattern at setup, values by an all-gather each call) and
/// stay put; both dense matrices circulate as m*r/p slices, skewed
/// Cannon-style so the A and B slices resident on a rank always cover
/// the same width range. SDDMM dot products accumulate in a stationary
/// per-cell buffer and are summed across the fiber with one all-reduce.
///
/// Both families hold their sparse values redundantly, so a crashed
/// rank's shard is rebuilt from a peer replica (row-ring peers for
/// dense replication, fiber peers for sparse replication), falling back
/// to the checkpoint store when no peer survives.

#include "common/error.hpp"
#include "dist/engine.hpp"
#include "dist/grid.hpp"
#include "local/schedule.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"

namespace dsk::detail {
namespace {

/// The peers of `rank` among `members` (everyone but itself).
std::vector<int> peers_in(const std::vector<int>& members, int rank) {
  std::vector<int> peers;
  for (const int m : members) {
    if (m != rank) peers.push_back(m);
  }
  return peers;
}

// --------------------------------------------------------- dense replicate

class DenseRepl25D final : public GridFamily<DenseRepl25D> {
 public:
  DenseRepl25D(int p, int c, const AlgorithmOptions& options)
      : GridFamily(AlgorithmKind::DenseRepl25D, p, c, options),
        grid_(p, c) {}

  bool supports(Elision elision) const override {
    return elision != Elision::LocalKernelFusion;
  }

  static constexpr bool kCachesReplication = true;

  struct Setup {
    Index m = 0, n = 0, r = 0;
    Index mq = 0;  ///< S row-block height m / q
    Index mqc = 0; ///< canonical A chunk height m / (qc)
    Index nqc = 0; ///< shifting B block height n / (qc)
    Index rq = 0;  ///< width slice r / q
    /// Piece (u, k, w): S block of row-block u and column block k*c+w.
    std::vector<SparseShard> pieces;
    /// Row support of rank (u, *, w)'s mq-row working block (union over
    /// its q pieces — independent of v), stored at u*c + w so each
    /// fiber's c member supports are contiguous in fiber (w) order.
    std::vector<std::vector<Index>> support;
  };

  Setup make_setup(const CooMatrix& s, Index r) const {
    const int q = grid_.q();
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    const Index qc = static_cast<Index>(q) * c();
    check(su.m % qc == 0 && su.n % qc == 0 && su.r % q == 0,
          "2.5D-DenseRepl: m = ", su.m, ", n = ", su.n,
          " must be multiples of q*c = ", qc, " and r = ", su.r,
          " a multiple of q = ", q, "; call pad_problem first");
    su.mq = su.m / q;
    su.mqc = su.mq / c();
    su.nqc = su.n / qc;
    su.rq = su.r / q;
    su.pieces = shard_coo(
        s, q * q * c(),
        [&](Index row, Index col) {
          const int u = static_cast<int>(row / su.mq);
          const int g = static_cast<int>(col / su.nqc);
          return (u * q + g / c()) * c() + g % c();
        },
        [&](Index row, Index col) {
          return std::pair<Index, Index>(row % su.mq, col % su.nqc);
        },
        [&](int) { return std::pair<Index, Index>(su.mq, su.nqc); });
    su.support.assign(static_cast<std::size_t>(q * c()), {});
    if (options().replication != ReplicationMode::Dense) {
      for (int u = 0; u < q; ++u) {
        for (int w = 0; w < c(); ++w) {
          std::vector<const SparseShard*> mine;
          for (int k = 0; k < q; ++k) mine.push_back(&piece(su, u, k, w));
          su.support[static_cast<std::size_t>(u * c() + w)] =
              union_row_support(mine, su.mq);
        }
      }
    }
    return su;
  }

  const SparseShard& piece(const Setup& su, int u, int k, int w) const {
    return su.pieces[static_cast<std::size_t>((u * grid_.q() + k) * c() +
                                              w)];
  }

  /// The resident S / B column-block ring index at step t on rank
  /// (u, v, w): Cannon skew (u + v + t) mod q.
  int k_at(int u, int v, int t) const { return (u + v + t) % grid_.q(); }

  /// The rank's home piece — its rank-local sparse memory, replicated
  /// along its row ring (the ring traffic materializes a copy of every
  /// circulating piece on every ring peer).
  const SparseShard& home(const Setup& su, int rank) const {
    const int u = grid_.u_of(rank), v = grid_.v_of(rank);
    return piece(su, u, k_at(u, v, 0), grid_.w_of(rank));
  }

  std::vector<Scalar> shard_values(const Setup& su, int rank) const {
    return concat_values({&home(su, rank)});
  }

  std::vector<int> replica_peers(int rank) const {
    return peers_in(grid_.row_members(grid_.u_of(rank), grid_.w_of(rank)),
                    rank);
  }

  class Rank final : public RankPasses {
   public:
    Rank(const DenseRepl25D& f, const Setup& su, const RankRun& run)
        : RankPasses(run),
          f_(f),
          su_(su),
          u_(f.grid_.u_of(run.comm.rank())),
          v_(f.grid_.v_of(run.comm.rank())),
          w_(f.grid_.w_of(run.comm.rank())),
          q_(f.grid_.q()),
          k0_(f.k_at(u_, v_, 0)),
          home_({&f.home(su, run.comm.rank())}, run.live),
          fiber_(run, f.grid_.fiber_members(u_, v_),
                 {su.support.data() + static_cast<std::size_t>(u_) *
                                          static_cast<std::size_t>(f.c()),
                  static_cast<std::size_t>(f.c())},
                 a_row0(), su.mqc, static_cast<Index>(v_) * su.rq, su.rq),
          s_ring_(run, f.grid_.row_members(u_, w_), v_, kTagShift),
          // Block k's consumer at step t is the row position
          // (k - v - t) mod q, touching exactly its piece-(·, k, w)
          // column support.
          b_ring_(run, f.grid_.col_members(v_, w_), u_, kTagShiftDense,
                  su.nqc, su.rq, k0_,
                  [this](int origin, int step) -> std::span<const Index> {
                    const int consumer = ((origin - v_ - step) % q_ + q_) % q_;
                    return f_.piece(su_, consumer, origin, w_).col_support;
                  }) {}

    /// Replicate A and run the dot loop: S dots circulate on the row
    /// ring, B blocks on the column ring. Under Pipelined the fiber
    /// all-gather streams as the loop prologue: step-0 dots accumulate
    /// chunk by chunk as working-block rows arrive, then the circulating
    /// payload is repacked (bit-identical — dots start at zero and every
    /// entry's additions are unchanged).
    SddmmOut sddmm() override {
      SddmmOut sd;
      sd.pieces.push_back(home_.sampled(0));
      const DenseMatrix b0 = b_home();
      Triplets start = home_.shard(0).coo;
      start.values.assign(start.size(), Scalar{0});
      ShiftChannel channels[] = {
          s_ring_.channel(/*mutates=*/true, pack_triplets(start, run_.codec)),
          b_ring_.channel(/*mutates=*/false, pack_dense(b0))};
      const auto body = [&](int t) {
        auto payload = unpack_triplets(channels[0].block, run_.codec);
        const auto bk = unpack_dense(channels[1].block, su_.nqc, su_.rq);
        comm_.stats().add_flops(masked_dot_products(
            f_.piece(su_, u_, k_at(t), w_).csr, sd.a_work, bk,
            payload.values));
        channels[0].block = pack_triplets(payload, run_.codec);
      };
      ShiftPrologue pro = fiber_.prologue(sd.a_work, run_.cache);
      std::vector<Scalar> d0(start.size(), Scalar{0});
      if (run_.pipelined()) {
        pro.compute_chunk = [&](Index row0, Index row1) {
          comm_.stats().add_flops(masked_dot_products_rows(
              home_.shard(0).csr, sd.a_work, b0, d0, row0, row1));
        };
        pro.finish_step0 = [&] {
          auto payload = unpack_triplets(channels[0].block, run_.codec);
          payload.values = std::move(d0);
          channels[0].block = pack_triplets(payload, run_.codec);
        };
      }
      run_shift_loop(comm_, run_.options.schedule, q_, channels, body,
                     &pro);
      sd.pieces[0].dots =
          unpack_triplets(channels[0].block, run_.codec).values;
      return sd;
    }

    /// S pieces circulate on the row ring with their values — the stored
    /// ones for the kernels (which read their own copies), the SDDMM
    /// outputs for FusedMM (read off the payload) — and the B-side
    /// blocks on the column ring: read-only inputs for SpMM-A, whose
    /// A-shaped partial stays put and is reduce-scattered along the
    /// fiber (streamed out of the last step under Pipelined), or
    /// circulating accumulators for SpMM-B. Without elision the SpMM
    /// pass replicates A again in either orientation (result discarded,
    /// streamed into step 0 under Pipelined); the SpMM-B kernel
    /// replicates its own. spmm_b accumulates across working-block rows,
    /// so its step 0 runs monolithically after a Pipelined stream; the
    /// read-only S piece is still forwarded before replication starts.
    void spmm(const SpmmIn& in, DenseMatrix& out) override {
      const bool a_side = in.orientation == FusedOrientation::A;
      Triplets home_piece = home_.shard(0).coo;
      if (in.values != nullptr) {
        home_piece.values = (*in.values)[0];
      } else if (run_.live != nullptr) {
        home_piece.values = *run_.live;
      }
      DenseMatrix a_own;
      ShiftPrologue pro;
      if (in.a_work != nullptr ? in.repeat : !a_side) {
        pro = fiber_.prologue(a_own, run_.cache);
      }
      const DenseMatrix& a_work = in.a_work != nullptr ? *in.a_work : a_own;
      ShiftChannel channels[] = {
          s_ring_.channel(/*mutates=*/false,
                          pack_triplets(home_piece, run_.codec)),
          a_side ? b_ring_.channel(/*mutates=*/false, pack_dense(b_home()))
                 : b_ring_.channel(/*mutates=*/true,
                                   pack_dense(DenseMatrix(su_.nqc, su_.rq)))};
      // The CSR the step-t piece multiplies by (revalued into scratch
      // from the payload under FusedMM).
      const auto csr_at = [&](int t, CsrMatrix& scratch) -> const CsrMatrix& {
        const int k = k_at(t);
        if (in.values == nullptr) {
          return k == k0_ ? home_.csr(0) : f_.piece(su_, u_, k, w_).csr;
        }
        scratch = csr_with_values(
            f_.piece(su_, u_, k, w_).csr,
            unpack_triplets(channels[0].block, run_.codec).values);
        return scratch;
      };
      if (!a_side) {
        run_shift_loop(comm_, run_.options.schedule, q_, channels,
                       [&](int t) {
                         CsrMatrix scratch;
                         auto acc =
                             unpack_dense(channels[1].block, su_.nqc, su_.rq);
                         comm_.stats().add_flops(
                             spmm_b(csr_at(t, scratch), a_work, acc));
                         channels[1].block = pack_dense(acc);
                       },
                       &pro);
        PhaseScope scope(comm_.stats(), Phase::Computation);
        place_block(out, unpack_dense(channels[1].block, su_.nqc, su_.rq),
                    b_row0(k0_), static_cast<Index>(v_) * su_.rq);
        return;
      }
      DenseMatrix partial(su_.mq, su_.rq);
      ShiftEpilogue epi;
      DenseMatrix b_last;
      CsrMatrix last_scratch;
      const CsrMatrix* s_last = nullptr;
      if (run_.pipelined()) {
        epi.compute_chunk = [&](Index row0, Index row1) {
          if (s_last == nullptr) {
            // The final step's S payload and B block are materialized on
            // the first prepare pull.
            b_last = unpack_dense(channels[1].block, su_.nqc, su_.rq);
            s_last = &csr_at(q_ - 1, last_scratch);
          }
          comm_.stats().add_flops(
              spmm_a_rows(*s_last, b_last, partial, row0, row1));
        };
        epi.reduce = [&](const ChunkFn& prepare) {
          fiber_.reduce_streamed(partial, out, prepare);
        };
      }
      const ShiftJournalHooks hooks = journal_dense(partial);
      run_shift_loop(comm_, run_.options.schedule, q_, channels,
                     [&](int t) {
                       CsrMatrix scratch;
                       const auto bk =
                           unpack_dense(channels[1].block, su_.nqc, su_.rq);
                       comm_.stats().add_flops(
                           spmm_a(csr_at(t, scratch), bk, partial));
                     },
                     &pro, &epi, &hooks);
      if (!run_.pipelined()) fiber_.reduce(partial, out);
    }

   private:
    int k_at(int t) const { return f_.k_at(u_, v_, t); }

    Index a_row0() const {
      return static_cast<Index>(u_) * su_.mq + w_ * su_.mqc;
    }

    /// Global row of B column block k (for layer w).
    Index b_row0(int k) const {
      return (static_cast<Index>(k) * f_.c() + w_) * su_.nqc;
    }

    /// The v-th width slice of B column block k0 — the B payload
    /// resident here at step 0.
    DenseMatrix b_home() const {
      return run_.b.row_block(b_row0(k0_), b_row0(k0_) + su_.nqc)
          .col_block(static_cast<Index>(v_) * su_.rq,
                     (v_ + 1) * static_cast<Index>(su_.rq));
    }

    const DenseRepl25D& f_;
    const Setup& su_;
    int u_;
    int v_;
    int w_;
    int q_;
    int k0_;
    LivePieces home_;
    Fiber fiber_;
    /// The row ring of the S pieces (COO triplets, uncompressed) and the
    /// column ring of the B blocks and B-shaped accumulators.
    Ring s_ring_;
    Ring b_ring_;
  };

 private:
  Grid25D grid_;
};

// -------------------------------------------------------- sparse replicate

class SparseRepl25D final : public GridFamily<SparseRepl25D> {
 public:
  SparseRepl25D(int p, int c, const AlgorithmOptions& options)
      : GridFamily(AlgorithmKind::SparseRepl25D, p, c, options),
        grid_(p, c) {}

  bool supports(Elision elision) const override {
    return elision == Elision::None;
  }

  /// The replication traffic of this family is already sparsity-sized
  /// (values and dot buffers, no dense row blocks): there is no A fiber
  /// to cache, the options().replication knob has nothing to elide
  /// (SparseRows and Auto behave exactly like Dense), and the Pipelined
  /// schedule has no dense row stream to chunk, so it runs as
  /// DoubleBuffered. The PROPAGATION knob, by contrast, bites twice:
  /// both circulating dense slices compress against the stationary
  /// cells' supports (A by rows, B by columns).
  static constexpr bool kCachesReplication = false;

  struct Setup {
    Index m = 0, n = 0, r = 0;
    Index mq = 0;  ///< cell height m / q
    Index nq = 0;  ///< cell width n / q
    Index rqc = 0; ///< width slice r / (qc)
    /// Cell (u, v), shared by its c fiber ranks.
    std::vector<SparseShard> cells;
    /// Per cell: value ownership boundaries across the fiber (c + 1
    /// monotone offsets into the cell's entry range).
    std::vector<std::vector<Index>> value_split;
  };

  Setup make_setup(const CooMatrix& s, Index r) const {
    const int q = grid_.q();
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    check(su.m % q == 0 && su.n % q == 0 &&
              su.r % (static_cast<Index>(q) * c()) == 0,
          "2.5D-SparseRepl: m = ", su.m, ", n = ", su.n,
          " must be multiples of q = ", q, " and r = ", su.r,
          " a multiple of q*c = ",
          static_cast<Index>(q) * c(), "; call pad_problem first");
    su.mq = su.m / q;
    su.nq = su.n / q;
    su.rqc = su.r / (static_cast<Index>(q) * c());
    su.cells = shard_coo(
        s, q * q,
        [&](Index row, Index col) {
          return static_cast<int>(row / su.mq) * q +
                 static_cast<int>(col / su.nq);
        },
        [&](Index row, Index col) {
          return std::pair<Index, Index>(row % su.mq, col % su.nq);
        },
        [&](int) { return std::pair<Index, Index>(su.mq, su.nq); });
    su.value_split.reserve(su.cells.size());
    for (const auto& cell : su.cells) {
      su.value_split.push_back(partition_uniform(
          static_cast<Index>(cell.coo.size()), c()));
    }
    return su;
  }

  std::size_t cell_index(int rank) const {
    return static_cast<std::size_t>(grid_.u_of(rank) * grid_.q() +
                                    grid_.v_of(rank));
  }

  /// The rank's canonical value_split[w] slice of its cell — its
  /// rank-local sparse memory, replicated across the c fiber ranks by
  /// every value gather (so c == 1 fibers have no redundancy).
  std::vector<Scalar> shard_values(const Setup& su, int rank) const {
    const auto& values = su.cells[cell_index(rank)].coo.values;
    const auto& split = su.value_split[cell_index(rank)];
    const auto w = static_cast<std::size_t>(grid_.w_of(rank));
    return {values.begin() + split[w], values.begin() + split[w + 1]};
  }

  std::vector<int> replica_peers(int rank) const {
    return peers_in(
        grid_.fiber_members(grid_.u_of(rank), grid_.v_of(rank)), rank);
  }

  class Rank final : public RankPasses {
   public:
    Rank(const SparseRepl25D& f, const Setup& su, const RankRun& run)
        : RankPasses(run),
          f_(f),
          su_(su),
          u_(f.grid_.u_of(run.comm.rank())),
          v_(f.grid_.v_of(run.comm.rank())),
          w_(f.grid_.w_of(run.comm.rank())),
          q_(f.grid_.q()),
          s0_(static_cast<Index>(((u_ + v_) % q_) * f.c() + w_)),
          cell_(su.cells[f.cell_index(run.comm.rank())]),
          split_(su.value_split[f.cell_index(run.comm.rank())]),
          fiber_(run.comm, f.grid_.fiber_members(u_, v_)),
          // The slice originating at ring position o is consumed at step t
          // by position (o - t) mod q: the A slices against the ROW
          // support of cell (u, ·), the B slices against the COLUMN
          // support of cell (·, v).
          a_ring_(run, f.grid_.row_members(u_, w_), v_, kTagShift, su.mq,
                  su.rqc, v_,
                  [this](int origin, int step) -> std::span<const Index> {
                    return cell(u_, ((origin - step) % q_ + q_) % q_)
                        .row_support;
                  }),
          b_ring_(run, f.grid_.col_members(v_, w_), u_, kTagShiftDense,
                  su.nq, su.rqc, u_,
                  [this](int origin, int step) -> std::span<const Index> {
                    return cell(((origin - step) % q_ + q_) % q_, v_)
                        .col_support;
                  }) {}

    /// Both dense slices circulate while the cell's dot buffer stays put;
    /// the fiber then sums the partial dots with one all-reduce.
    SddmmOut sddmm() override {
      values_ = gather_values();
      SddmmOut sd;
      sd.pieces.push_back({values_, cell_.entries,
                           std::vector<Scalar>(cell_.coo.size(), Scalar{0})});
      ShiftChannel channels[] = {a_ring_.channel(/*mutates=*/false, a_home()),
                                 b_ring_.channel(/*mutates=*/false, b_home())};
      const ShiftJournalHooks hooks = journal_dots(sd.pieces);
      run_shift_loop(comm_, run_.options.schedule, q_, channels,
                     [&](int) {
                       const auto ak = unpack_dense(channels[0].block,
                                                    su_.mq, su_.rqc);
                       const auto bk = unpack_dense(channels[1].block,
                                                    su_.nq, su_.rqc);
                       comm_.stats().add_flops(masked_dot_products(
                           cell_.csr, ak, bk, sd.pieces[0].dots));
                     },
                     nullptr, nullptr, &hooks);
      PhaseScope scope(comm_.stats(), Phase::Replication);
      sd.pieces[0].dots = fiber_.allreduce(sd.pieces[0].dots);
      return sd;
    }

    /// Every fiber rank holds the whole cell; each finalizes only its
    /// canonical value range.
    void write_sddmm(const SddmmOut& sd, std::span<Scalar> out) override {
      PhaseScope scope(comm_.stats(), Phase::Computation);
      const SampledPiece& pc = sd.pieces[0];
      const auto w = static_cast<std::size_t>(w_);
      for (Index k = split_[w]; k < split_[w + 1]; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        out[static_cast<std::size_t>(pc.entries[kk])] =
            pc.values[kk] * pc.dots[kk];
      }
      comm_.stats().add_flops(cell_.nnz() /
                              static_cast<std::uint64_t>(f_.c()));
    }

    /// The input slices circulate again, alongside the circulating
    /// output accumulators (A-shaped on the row ring for SpMM-A,
    /// B-shaped on the column ring for SpMM-B). The kernels multiply by
    /// the stored values, assembled from the fiber's canonical split.
    void spmm(const SpmmIn& in, DenseMatrix& out) override {
      if (in.values == nullptr) values_ = gather_values();
      const CsrMatrix csr = csr_with_values(
          cell_.csr, in.values != nullptr ? (*in.values)[0] : values_);
      const bool a_side = in.orientation == FusedOrientation::A;
      ShiftChannel channels[] = {
          a_side ? a_ring_.channel(/*mutates=*/true,
                                   pack_dense(DenseMatrix(su_.mq, su_.rqc)))
                 : a_ring_.channel(/*mutates=*/false, a_home()),
          a_side ? b_ring_.channel(/*mutates=*/false, b_home())
                 : b_ring_.channel(/*mutates=*/true,
                                   pack_dense(DenseMatrix(su_.nq, su_.rqc)))};
      run_shift_loop(comm_, run_.options.schedule, q_, channels, [&](int) {
        auto ak = unpack_dense(channels[0].block, su_.mq, su_.rqc);
        auto bk = unpack_dense(channels[1].block, su_.nq, su_.rqc);
        if (a_side) {
          comm_.stats().add_flops(spmm_a(csr, bk, ak));
          channels[0].block = pack_dense(ak);
        } else {
          comm_.stats().add_flops(spmm_b(csr, ak, bk));
          channels[1].block = pack_dense(bk);
        }
      });
      PhaseScope scope(comm_.stats(), Phase::Computation);
      if (a_side) {
        place_block(out, unpack_dense(channels[0].block, su_.mq, su_.rqc),
                    static_cast<Index>(u_) * su_.mq, s0_ * su_.rqc);
      } else {
        place_block(out, unpack_dense(channels[1].block, su_.nq, su_.rqc),
                    static_cast<Index>(v_) * su_.nq, s0_ * su_.rqc);
      }
    }

   private:
    /// All-gather the cell's canonically split values along the fiber
    /// (cost: (c-1)/c * cell_nnz words). Crash mode reads the rank's own
    /// slice through the replica store — exactly the memory a crash
    /// scrubs and a recovery rebuilds.
    std::vector<Scalar> gather_values() {
      PhaseScope scope(comm_.stats(), Phase::Replication);
      const auto& values = cell_.coo.values;
      const auto w = static_cast<std::size_t>(w_);
      const auto slice =
          run_.live != nullptr
              ? std::span<const Scalar>(*run_.live)
              : std::span<const Scalar>(values).subspan(
                    static_cast<std::size_t>(split_[w]),
                    static_cast<std::size_t>(split_[w + 1] - split_[w]));
      // Low-precision payloads pad each member's last word, so the
      // gathered stream is decoded member by member against the
      // canonical split (the counts travel out of band with the plan).
      std::vector<std::size_t> offsets;
      const auto words =
          fiber_.allgather_words(pack_values(slice, run_.codec), &offsets);
      std::vector<Scalar> full;
      full.reserve(values.size());
      for (std::size_t i = 0; i + 1 < split_.size(); ++i) {
        const MessageWords chunk(
            words.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
            words.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]));
        const auto vals = unpack_values(
            chunk, static_cast<std::int64_t>(split_[i + 1] - split_[i]),
            run_.codec);
        full.insert(full.end(), vals.begin(), vals.end());
      }
      return full;
    }

    MessageWords a_home() const {
      return pack_dense(dense_block(run_.a, static_cast<Index>(u_) * su_.mq,
                                    su_.mq, s0_ * su_.rqc, su_.rqc));
    }
    MessageWords b_home() const {
      return pack_dense(dense_block(run_.b, static_cast<Index>(v_) * su_.nq,
                                    su_.nq, s0_ * su_.rqc, su_.rqc));
    }

    const SparseShard& cell(int u, int v) const {
      return su_.cells[static_cast<std::size_t>(u * q_ + v)];
    }

    const SparseRepl25D& f_;
    const Setup& su_;
    int u_;
    int v_;
    int w_;
    int q_;
    Index s0_; ///< the skewed width slice resident here at step 0
    const SparseShard& cell_;
    const std::vector<Index>& split_;
    Group fiber_;
    /// The cell's full value vector, assembled by the last value gather.
    std::vector<Scalar> values_;
    /// The row ring of the A slices and A-shaped accumulators, and the
    /// column ring of the B slices and B-shaped accumulators, both
    /// support-compressed per options().propagation.
    Ring a_ring_;
    Ring b_ring_;
  };

 private:
  Grid25D grid_;
};

} // namespace

std::unique_ptr<DistAlgorithm> make_dense_repl_25d(
    int p, int c, const AlgorithmOptions& options) {
  return std::make_unique<DenseRepl25D>(p, c, options);
}

std::unique_ptr<DistAlgorithm> make_sparse_repl_25d(
    int p, int c, const AlgorithmOptions& options) {
  return std::make_unique<SparseRepl25D>(p, c, options);
}

} // namespace dsk::detail
