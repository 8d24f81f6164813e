/// \file algorithm_15d.cpp
/// The 1.5D algorithm family (paper Algorithm 1 and its sparse-shifting
/// sibling) on the p/c x c grid of dist/grid.hpp.
///
/// Dense shifting: A lives in m/p block rows and is replicated along
/// fibers (all-gather) or reduced back (reduce-scatter); B lives in n/p
/// block rows that shift cyclically inside each layer. Every rank owns
/// the S block crossing its layer-row of A and its layer's column group.
///
/// Sparse shifting: the dense matrices stay put, split into m/c (n/c)
/// row blocks by layer and r/(p/c) width slices by layer position; the
/// S blocks circulate as COO triplets, SDDMM dot products accumulating
/// in the circulating payload one width-slice at a time until the block
/// returns home (paper Section IV-A).
///
/// Neither family holds replicas: crash recovery restores a rank's
/// shard values from the checkpoint store, and the journaled shift
/// loops resume past the last jointly completed step.

#include "common/error.hpp"
#include "dist/engine.hpp"
#include "dist/grid.hpp"
#include "local/fused.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"

namespace dsk::detail {
namespace {

// ------------------------------------------------------------- dense shift

class DenseShift15D final : public GridFamily<DenseShift15D> {
 public:
  DenseShift15D(int p, int c, const AlgorithmOptions& options)
      : GridFamily(AlgorithmKind::DenseShift15D, p, c, options),
        grid_(p, c) {}

  bool supports(Elision) const override { return true; }

  static constexpr bool kCachesReplication = true;

  struct Setup {
    Index m = 0, n = 0, r = 0;
    Index mL = 0;    ///< layer-row height m / L
    Index a_blk = 0; ///< canonical A block height m / p
    Index b_blk = 0; ///< shifting B block height n / p
    Index ncg = 0;   ///< layer column-group width n / c
    /// Piece (rank, j): rank's S sub-block meeting shifted B block j.
    std::vector<SparseShard> pieces;
    /// Row support of rank (u, v)'s mL-row working block (union over its
    /// L pieces), stored at u*c + v so each fiber's c member supports are
    /// contiguous — the wants table of the row-sparse collectives.
    std::vector<std::vector<Index>> support;
  };

  Setup make_setup(const CooMatrix& s, Index r) const {
    const int L = grid_.layer_size();
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    check(su.m % p() == 0 && su.n % p() == 0,
          "1.5D-DenseShift: m = ", su.m, ", n = ", su.n,
          " must be multiples of p = ", p(),
          "; call pad_problem first");
    su.mL = su.m / L;
    su.a_blk = su.m / p();
    su.b_blk = su.n / p();
    su.ncg = su.n / c();
    su.pieces = shard_coo(
        s, p() * L,
        [&](Index row, Index col) {
          const int u = static_cast<int>(row / su.mL);
          const int v = static_cast<int>(col / su.ncg);
          const int j = static_cast<int>((col - v * su.ncg) / su.b_blk);
          return grid_.rank_of(u, v) * L + j;
        },
        [&](Index row, Index col) {
          const Index j = (col % su.ncg) / su.b_blk;
          const Index v = col / su.ncg;
          return std::pair<Index, Index>(
              row % su.mL, col - v * su.ncg - j * su.b_blk);
        },
        [&](int) { return std::pair<Index, Index>(su.mL, su.b_blk); });
    // Sized even in Dense mode (the fiber wants hand out spans into it);
    // the unions are only needed — and only computed — when the
    // row-sparse collectives may run.
    su.support.assign(static_cast<std::size_t>(p()), {});
    if (options().replication != ReplicationMode::Dense) {
      for (int rank = 0; rank < p(); ++rank) {
        su.support[static_cast<std::size_t>(grid_.u_of(rank) * c() +
                                            grid_.v_of(rank))] =
            union_row_support(pieces_of(su, rank), su.mL);
      }
    }
    return su;
  }

  /// The rank's L pieces, in ring-index order: its rank-local sparse
  /// memory.
  std::vector<const SparseShard*> pieces_of(const Setup& su,
                                            int rank) const {
    std::vector<const SparseShard*> out;
    out.reserve(static_cast<std::size_t>(grid_.layer_size()));
    for (int j = 0; j < grid_.layer_size(); ++j) {
      out.push_back(&su.pieces[static_cast<std::size_t>(
          rank * grid_.layer_size() + j)]);
    }
    return out;
  }

  std::vector<Scalar> shard_values(const Setup& su, int rank) const {
    return concat_values(pieces_of(su, rank));
  }

  class Rank final : public RankPasses {
   public:
    Rank(const DenseShift15D& f, const Setup& su, const RankRun& run)
        : RankPasses(run),
          f_(f),
          su_(su),
          u_(f.grid_.u_of(run.comm.rank())),
          v_(f.grid_.v_of(run.comm.rank())),
          L_(f.grid_.layer_size()),
          pieces_(f.pieces_of(su, run.comm.rank()), run.live),
          fiber_(run, f.grid_.fiber_members(u_),
                 {su.support.data() + static_cast<std::size_t>(u_) *
                                          static_cast<std::size_t>(f.c()),
                  static_cast<std::size_t>(f.c())},
                 a_row0(), su.a_blk, 0, su.r),
          // Block j's consumer at step t is the rank at layer position
          // (j - t) mod L, touching exactly its piece-j column support.
          b_ring_(run, f.grid_.layer_members(v_), u_, kTagShift, su.b_blk,
                  su.r, u_,
                  [this](int origin, int step) -> std::span<const Index> {
                    const int consumer = ((origin - step) % L_ + L_) % L_;
                    const int rank = f_.grid_.rank_of(consumer, v_);
                    return su_.pieces[static_cast<std::size_t>(
                                          rank * L_ + origin)]
                        .col_support;
                  }) {}

    /// Replicate A into the rank's working layer-row and run the dot loop
    /// (B input blocks circulate). The per-piece dots are stationary
    /// state (each is written wholly at its step), journaled so a
    /// recovered attempt resumes with the completed pieces intact.
    SddmmOut sddmm() override {
      SddmmOut sd;
      sd.pieces.reserve(pieces_.size());
      for (std::size_t j = 0; j < pieces_.size(); ++j) {
        sd.pieces.push_back(pieces_.sampled(j));
      }
      sd.a_work = fiber_.gather(run_.cache);
      const ShiftJournalHooks hooks = journal_dots(sd.pieces);
      b_loop(/*mutates=*/false, pack_dense(b_home()),
             [&](int j, MessageWords& block) {
               const auto bj = unpack_dense(block, su_.b_blk, su_.r);
               auto& d = sd.pieces[static_cast<std::size_t>(j)].dots;
               d.assign(d.size(), Scalar{0});
               comm_.stats().add_flops(masked_dot_products(
                   pieces_.shard(j).csr, sd.a_work, bj, d));
             },
             &hooks);
      return sd;
    }

    void spmm(const SpmmIn& in, DenseMatrix& out) override {
      if (in.orientation == FusedOrientation::A) {
        spmm_a_pass(in.values, out);
        return;
      }
      // SpMM-B: the B-shaped accumulators circulate against the working
      // block — the kernel's own, or the SDDMM pass's (replicated again,
      // unused, without elision).
      DenseMatrix a_own;
      if (in.a_work == nullptr || in.repeat) {
        a_own = fiber_.gather(run_.cache);
      }
      const DenseMatrix& a_work = in.a_work != nullptr ? *in.a_work : a_own;
      CsrMatrix scratch;
      const auto home = b_loop(
          /*mutates=*/true, pack_dense(DenseMatrix(su_.b_blk, su_.r)),
          [&](int j, MessageWords& block) {
            auto acc = unpack_dense(block, su_.b_blk, su_.r);
            comm_.stats().add_flops(
                spmm_b(pieces_.csr(j, in.values, scratch), a_work, acc));
            block = pack_dense(acc);
          });
      PhaseScope scope(comm_.stats(), Phase::Computation);
      place_block(out, unpack_dense(home, su_.b_blk, su_.r), b_row0(u_), 0);
    }

    /// LocalKernelFusion: one propagation loop with the fused local
    /// kernel, accumulating into the layer-row partial.
    void fused(DenseMatrix& out) override {
      const DenseMatrix fused_a = fiber_.gather();
      DenseMatrix partial(su_.mL, su_.r);
      const ShiftJournalHooks hooks = journal_dense(partial);
      b_loop(/*mutates=*/false, pack_dense(b_home()),
             [&](int j, MessageWords& block) {
               const auto bj = unpack_dense(block, su_.b_blk, su_.r);
               comm_.stats().add_flops(
                   fusedmm_a(pieces_.csr(j), fused_a, bj, partial));
             },
             &hooks);
      fiber_.reduce(partial, out);
    }

   private:
    Index a_row0() const {
      return (static_cast<Index>(u_) * f_.c() + v_) * su_.a_blk;
    }

    /// Global row of the B block shifting through the layer as ring
    /// index j.
    Index b_row0(int j) const {
      return (static_cast<Index>(v_) * L_ + j) * su_.b_blk;
    }

    /// The B block resident here at step 0 (ring index u).
    DenseMatrix b_home() const {
      return run_.b.row_block(b_row0(u_), b_row0(u_) + su_.b_blk);
    }

    /// Circulate the layer's B blocks (or B-shaped accumulators) for L
    /// steps; body(j, resident) sees ring index j and may rewrite the
    /// resident block when mutates is set. Returns the final resident
    /// block — after the full ring trip that is the home block again,
    /// which the accumulator (mutating) loops write to the output.
    MessageWords b_loop(bool mutates, MessageWords start,
                        const std::function<void(int, MessageWords&)>& body,
                        const ShiftJournalHooks* state = nullptr) {
      ShiftChannel ch = b_ring_.channel(mutates, std::move(start));
      run_shift_loop(comm_, run_.options.schedule, L_, {&ch, 1},
                     [&](int t) { body((u_ + t) % L_, ch.block); }, state);
      return std::move(ch.block);
    }

    /// SpMM-A propagation AND reduction: accumulate the layer-row partial
    /// from circulating B blocks, then fiber reduce-scatter it into the
    /// rank's output chunk.
    void spmm_a_pass(const PieceValues* values, DenseMatrix& out) {
      DenseMatrix partial(su_.mL, su_.r);
      ShiftChannel ch =
          b_ring_.channel(/*mutates=*/false, pack_dense(b_home()));
      CsrMatrix scratch;
      const auto body = [&](int t) {
        const int j = (u_ + t) % L_;
        const auto bj = unpack_dense(ch.block, su_.b_blk, su_.r);
        comm_.stats().add_flops(
            spmm_a(pieces_.csr(j, values, scratch), bj, partial));
      };
      const ShiftJournalHooks hooks = journal_dense(partial);
      run_shift_loop(comm_, run_.options.schedule, L_, {&ch, 1}, body,
                     &hooks);
      fiber_.reduce(partial, out);
    }

    const DenseShift15D& f_;
    const Setup& su_;
    int u_;
    int v_;
    int L_;
    LivePieces pieces_;
    Fiber fiber_;
    /// The layer ring the B blocks and B-shaped accumulators circulate
    /// on, column-support compressed per options().propagation.
    Ring b_ring_;
  };

 private:
  Grid15D grid_;
};

// ------------------------------------------------------------ sparse shift

class SparseShift15D final : public GridFamily<SparseShift15D> {
 public:
  SparseShift15D(int p, int c, const AlgorithmOptions& options)
      : GridFamily(AlgorithmKind::SparseShift15D, p, c, options),
        grid_(p, c) {}

  bool supports(Elision elision) const override {
    return elision != Elision::LocalKernelFusion;
  }

  static constexpr bool kCachesReplication = true;

  struct Setup {
    Index m = 0, n = 0, r = 0;
    Index mc = 0;  ///< canonical A row-block height m / c
    Index mL = 0;  ///< piece row-block height m / L
    Index ncg = 0; ///< layer column-group width n / c
    Index rL = 0;  ///< width slice r / L
    /// Piece (v, j): layer v's S block of piece-row j (rows global,
    /// columns rebased to the layer's column group).
    std::vector<SparseShard> pieces;
    /// Global row support of layer v's column group (union over its L
    /// pieces) — every rank of layer v reads/writes exactly these rows
    /// of the replicated full-m slice, so entry v doubles as fiber
    /// position v's wants in the row-sparse collectives.
    std::vector<std::vector<Index>> layer_support;
  };

  Setup make_setup(const CooMatrix& s, Index r) const {
    const int L = grid_.layer_size();
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    check(su.m % p() == 0 && su.n % p() == 0 && su.r % L == 0,
          "1.5D-SparseShift: m = ", su.m, ", n = ", su.n,
          " must be multiples of p = ", p(), " and r = ", su.r,
          " a multiple of p/c = ", L, "; call pad_problem first");
    su.mc = su.m / c();
    su.mL = su.m / L;
    su.ncg = su.n / c();
    su.rL = su.r / L;
    su.pieces = shard_coo(
        s, c() * L,
        [&](Index row, Index col) {
          const int v = static_cast<int>(col / su.ncg);
          const int j = static_cast<int>(row / su.mL);
          return v * L + j;
        },
        [&](Index row, Index col) {
          return std::pair<Index, Index>(row, col % su.ncg);
        },
        [&](int) { return std::pair<Index, Index>(su.m, su.ncg); });
    su.layer_support.assign(static_cast<std::size_t>(c()), {});
    if (options().replication != ReplicationMode::Dense) {
      for (int v = 0; v < c(); ++v) {
        std::vector<const SparseShard*> mine;
        for (int j = 0; j < L; ++j) mine.push_back(&piece(su, v, j));
        su.layer_support[static_cast<std::size_t>(v)] =
            union_row_support(mine, su.m);
      }
    }
    return su;
  }

  const SparseShard& piece(const Setup& su, int v, int j) const {
    return su.pieces[static_cast<std::size_t>(v * grid_.layer_size() + j)];
  }

  /// The rank's home piece values — its rank-local sparse memory
  /// (non-home pieces conceptually arrive via the ring payload from
  /// their own, also checkpointed, owners).
  std::vector<Scalar> shard_values(const Setup& su, int rank) const {
    return concat_values({&piece(su, grid_.v_of(rank), grid_.u_of(rank))});
  }

  class Rank final : public RankPasses {
   public:
    Rank(const SparseShift15D& f, const Setup& su, const RankRun& run)
        : RankPasses(run),
          f_(f),
          su_(su),
          u_(f.grid_.u_of(run.comm.rank())),
          v_(f.grid_.v_of(run.comm.rank())),
          L_(f.grid_.layer_size()),
          home_({&f.piece(su, v_, u_)}, run.live),
          b_local_(dense_block(run.b, static_cast<Index>(v_) * su.ncg,
                               su.ncg, static_cast<Index>(u_) * su.rL,
                               su.rL)),
          fiber_(run, f.grid_.fiber_members(u_), su.layer_support,
                 static_cast<Index>(v_) * su.mc, su.mc,
                 static_cast<Index>(u_) * su.rL, su.rL),
          s_ring_(run, f.grid_.layer_members(v_), u_, kTagShift) {}

    /// Replicate the A slice and circulate the home piece's dot payload
    /// for L steps; after the ring trip the resident payload is the home
    /// piece again, its dots accumulated over every width slice.
    SddmmOut sddmm() override {
      SddmmOut sd;
      sd.pieces.push_back(home_.sampled(0));
      Triplets start = home_.shard(0).coo;
      start.values.assign(start.size(), Scalar{0});
      ShiftChannel ch =
          s_ring_.channel(/*mutates=*/true, pack_triplets(start, run_.codec));
      const auto body = [&](int t) {
        const int j = (u_ + t) % L_;
        auto payload = unpack_triplets(ch.block, run_.codec);
        comm_.stats().add_flops(masked_dot_products(
            f_.piece(su_, v_, j).csr, sd.a_work, b_local_, payload.values));
        ch.block = pack_triplets(payload, run_.codec);
      };
      sd.a_work = fiber_.gather(run_.cache);
      run_shift_loop(comm_, run_.options.schedule, L_, {&ch, 1}, body);
      sd.pieces[0].dots = unpack_triplets(ch.block, run_.codec).values;
      return sd;
    }

    /// The S pieces circulate for L steps against the stationary dense
    /// slices. The kernels multiply by the stored values (each rank reads
    /// its own copy of every piece); FusedMM's pieces carry the SDDMM
    /// outputs, which every consumer reads off the payload. SpMM-A
    /// accumulates a full-m partial slice, reduce-scattered along the
    /// fiber; SpMM-B accumulates the rank's output block in place,
    /// reading the replicated A slice (re-replicated, unused, without
    /// elision — SpMM-A never reads A, so it has nothing to repeat).
    void spmm(const SpmmIn& in, DenseMatrix& out) override {
      const bool a_side = in.orientation == FusedOrientation::A;
      Triplets revalued;
      const Triplets* start = &home_.shard(0).coo;
      if (in.values != nullptr) {
        revalued = *start;
        revalued.values = (*in.values)[0];
        start = &revalued;
      }
      DenseMatrix a_own;
      if (!a_side && (in.a_work == nullptr || in.repeat)) {
        a_own = fiber_.gather(run_.cache);
      }
      const DenseMatrix& a_work = in.a_work != nullptr ? *in.a_work : a_own;
      DenseMatrix acc = a_side ? DenseMatrix(su_.m, su_.rL)
                               : DenseMatrix(su_.ncg, su_.rL);
      const ShiftJournalHooks hooks = journal_dense(acc);
      ShiftChannel ch = s_ring_.channel(/*mutates=*/false,
                                        pack_triplets(*start, run_.codec));
      run_shift_loop(comm_, run_.options.schedule, L_, {&ch, 1},
                     [&](int t) {
                       const int j = (u_ + t) % L_;
                       CsrMatrix payload_csr;
                       const CsrMatrix* csr = &f_.piece(su_, v_, j).csr;
                       if (in.values != nullptr) {
                         payload_csr = csr_with_values(
                             *csr, unpack_triplets(ch.block, run_.codec)
                                       .values);
                         csr = &payload_csr;
                       } else if (j == u_) {
                         csr = &home_.csr(0);
                       }
                       comm_.stats().add_flops(
                           a_side ? spmm_a(*csr, b_local_, acc)
                                  : spmm_b(*csr, a_work, acc));
                     },
                     &hooks);
      if (a_side) {
        fiber_.reduce(acc, out);
        return;
      }
      PhaseScope scope(comm_.stats(), Phase::Computation);
      place_block(out, acc, static_cast<Index>(v_) * su_.ncg,
                  static_cast<Index>(u_) * su_.rL);
    }

   private:
    const SparseShift15D& f_;
    const Setup& su_;
    int u_;
    int v_;
    int L_;
    LivePieces home_;
    DenseMatrix b_local_;
    Fiber fiber_;
    /// The layer ring the S pieces circulate on (COO triplets are
    /// already sparsity-sized: no column compression).
    Ring s_ring_;
  };

 private:
  Grid15D grid_;
};

} // namespace

std::unique_ptr<DistAlgorithm> make_dense_shift_15d(
    int p, int c, const AlgorithmOptions& options) {
  return std::make_unique<DenseShift15D>(p, c, options);
}

std::unique_ptr<DistAlgorithm> make_sparse_shift_15d(
    int p, int c, const AlgorithmOptions& options) {
  return std::make_unique<SparseShift15D>(p, c, options);
}

} // namespace dsk::detail
