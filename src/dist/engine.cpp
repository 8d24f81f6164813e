/// \file engine.cpp
/// The pass engine's non-template half: cache decision, fault stores,
/// live-value routing, fiber replication, journal hooks, and the
/// per-rank op composition (see engine.hpp).

#include "dist/engine.hpp"

#include <algorithm>

#include "dist/replication_cache.hpp"
#include "local/sddmm.hpp"

namespace dsk::detail {
namespace {

void scatter_values(std::span<const Scalar> local,
                    std::span<const Index> entries,
                    std::span<Scalar> global) {
  check(local.size() == entries.size(),
        "scatter_values: ", local.size(), " values for ", entries.size(),
        " entry slots");
  for (std::size_t k = 0; k < local.size(); ++k) {
    global[static_cast<std::size_t>(entries[k])] = local[k];
  }
}

} // namespace

CsrMatrix csr_with_values(const CsrMatrix& pattern,
                          std::span<const Scalar> values) {
  CsrMatrix out = pattern;
  check(values.size() == out.values().size(),
        "csr_with_values: got ", values.size(), " values for ",
        out.values().size(), " nonzeros");
  std::copy(values.begin(), values.end(), out.values().begin());
  return out;
}

WorldStats run_in(SimWorld* world, int num_ranks,
                  const std::function<void(Comm&)>& body,
                  const WorldOptions& options) {
  if (world == nullptr) return run_spmd(num_ranks, body, options);
  check(world->size() == num_ranks, "run_in: resident world has ",
        world->size(), " ranks, driver needs ", num_ranks);
  return world->run(body, options);
}

CacheUse cache_use(const Op& op, const ExecuteOptions& exec,
                   const AlgorithmOptions& options) {
  CacheUse use;
  if (op.fused || op.mode == Mode::SpMMA || exec.cache == nullptr ||
      (options.faults != nullptr && options.faults->enabled())) {
    return use;
  }
  use.cache = exec.cache;
  use.hit = use.cache->complete();
  use.cache->note_run(use.hit);
  return use;
}

WorldOptions fault_options(
    const AlgorithmOptions& options, int p,
    const std::function<std::vector<Scalar>(int)>& shard_values,
    const std::function<std::vector<int>(int)>& replica_peers,
    FaultStores& stores) {
  WorldOptions wo;
  wo.faults = options.faults;
  wo.max_recoveries = options.max_recoveries;
  wo.checkpoint_interval = options.checkpoint_interval;
  if (wo.faults == nullptr || !wo.faults->enabled() ||
      wo.faults->crashes.empty()) {
    return wo;
  }
  stores.replicas.emplace(p);
  stores.checkpoints.emplace(p);
  for (int rank = 0; rank < p; ++rank) {
    std::vector<Scalar> shard = shard_values(rank);
    stores.checkpoints->save_shard(rank, shard);
    stores.replicas->set_shard(rank, std::move(shard), replica_peers(rank));
  }
  stores.replicas->finalize();
  ReplicaStore* sp = &*stores.replicas;
  CheckpointStore* cp = &*stores.checkpoints;
  wo.on_crash = [sp, cp](const CrashInfo& crash) {
    sp->scrub(crash.rank);
    if (sp->can_reconstruct(crash.rank)) {
      sp->reconstruct(crash.rank);
    } else {
      cp->restore(crash.rank);
      sp->adopt(crash.rank, cp->values(crash.rank));
    }
  };
  return wo;
}

// ------------------------------------------------------------ rank passes

void RankPasses::fused(DenseMatrix&) {
  fail("LocalKernelFusion is not supported by this family");
}

void RankPasses::write_sddmm(const SddmmOut& sd, std::span<Scalar> out) {
  PhaseScope scope(comm_.stats(), Phase::Computation);
  for (const SampledPiece& pc : sd.pieces) {
    std::vector<Scalar> vals(pc.dots.size());
    hadamard_values(pc.values, pc.dots, vals);
    comm_.stats().add_flops(pc.dots.size());
    scatter_values(vals, pc.entries, out);
  }
}

void RankPasses::run(const Op& op, KernelResult& out) {
  if (!op.fused) {
    switch (op.mode) {
      case Mode::SDDMM:
        write_sddmm(sddmm(), out.sddmm_values);
        return;
      case Mode::SpMMA:
        spmm({FusedOrientation::A}, out.dense);
        return;
      case Mode::SpMMB:
        spmm({FusedOrientation::B}, out.dense);
        return;
    }
    fail("run: unknown mode");
  }
  for (int rep = 0; rep < op.repetitions; ++rep) {
    if (op.elision == Elision::LocalKernelFusion) {
      fused(out.dense);
      continue;
    }
    const SddmmOut sd = sddmm();
    PieceValues values(sd.pieces.size());
    {
      PhaseScope scope(comm_.stats(), Phase::Computation);
      for (std::size_t j = 0; j < sd.pieces.size(); ++j) {
        const SampledPiece& pc = sd.pieces[j];
        values[j].resize(pc.dots.size());
        hadamard_values(pc.values, pc.dots, values[j]);
        comm_.stats().add_flops(pc.dots.size());
      }
    }
    SpmmIn in;
    in.orientation = op.orientation;
    in.values = &values;
    in.a_work = &sd.a_work;
    in.repeat = op.elision == Elision::None;
    spmm(in, out.dense);
  }
}

// ------------------------------------------------------------ live pieces

LivePieces::LivePieces(std::vector<const SparseShard*> pieces,
                       const std::vector<Scalar>* live)
    : pieces_(std::move(pieces)), live_(live) {
  if (live_ == nullptr) return;
  std::size_t off = 0;
  offsets_.reserve(pieces_.size());
  live_csr_.reserve(pieces_.size());
  for (std::size_t j = 0; j < pieces_.size(); ++j) {
    offsets_.push_back(off);
    off += pieces_[j]->coo.size();
    live_csr_.push_back(csr_with_values(pieces_[j]->csr, values(j)));
  }
  check(off == live_->size(), "LivePieces: live shard has ", live_->size(),
        " values for ", off, " nonzeros");
}

std::span<const Scalar> LivePieces::values(std::size_t j) const {
  if (live_ == nullptr) return pieces_[j]->coo.values;
  return std::span<const Scalar>(*live_).subspan(offsets_[j],
                                                 pieces_[j]->coo.size());
}

const CsrMatrix& LivePieces::csr(std::size_t j) const {
  return live_ == nullptr ? pieces_[j]->csr : live_csr_[j];
}

const CsrMatrix& LivePieces::csr(std::size_t j, const PieceValues* values,
                                 CsrMatrix& scratch) const {
  if (values == nullptr) return csr(j);
  scratch = csr_with_values(pieces_[j]->csr, (*values)[j]);
  return scratch;
}

SampledPiece LivePieces::sampled(std::size_t j) const {
  return {values(j), pieces_[j]->entries,
          std::vector<Scalar>(pieces_[j]->coo.size(), Scalar{0})};
}

std::vector<Scalar> concat_values(
    const std::vector<const SparseShard*>& pieces) {
  std::vector<Scalar> out;
  for (const SparseShard* pc : pieces) {
    out.insert(out.end(), pc->coo.values.begin(), pc->coo.values.end());
  }
  return out;
}

// ------------------------------------------------------------------ fiber

Fiber::Fiber(const RankRun& run, std::vector<int> members,
             std::span<const std::vector<Index>> wants, Index row0,
             Index rows, Index col0, Index cols)
    : run_(run),
      group_(run.comm, std::move(members)),
      wants_(wants),
      row0_(row0),
      rows_(rows),
      col0_(col0),
      cols_(cols) {}

DenseMatrix Fiber::source() const {
  return dense_block(run_.a, row0_, rows_, col0_, cols_);
}

DenseMatrix Fiber::gather(const CacheUse& cache) {
  if (cache.hit) return cache.cache->block(run_.comm.rank());
  PhaseScope scope(run_.comm.stats(), Phase::Replication);
  DenseMatrix out = group_.allgatherv_rows(
      source(), wants_, run_.options.replication, run_.codec);
  if (cache.cache != nullptr) cache.cache->store(run_.comm.rank(), out);
  return out;
}

void Fiber::reduce(const DenseMatrix& partial, DenseMatrix& out) {
  PhaseScope scope(run_.comm.stats(), Phase::Replication);
  place_block(out,
              group_.reduce_scatter_rows(partial, wants_,
                                         run_.options.replication,
                                         run_.codec),
              row0_, col0_);
}

// ------------------------------------------------------------------- ring

Ring::Ring(const RankRun& run, std::vector<int> members, int pos, int tag,
           Index block_rows, Index width, int origin0, Touch touch)
    : run_(run),
      members_(std::move(members)),
      pos_(pos),
      tag_(tag),
      block_rows_(block_rows),
      width_(width),
      origin0_(origin0),
      touch_(std::move(touch)) {}

ShiftChannel Ring::channel(bool mutates, MessageWords start) {
  ShiftChannel ch =
      ring_channel(members_, pos_, tag_, mutates, std::move(start));
  if (!touch_) return ch;
  auto& comp = compression_[mutates ? 1 : 0];
  if (!comp) {
    comp = make_ring_compression(run_.options.propagation, block_rows_,
                                 width_, size(), origin0_, mutates, touch_,
                                 run_.codec);
  }
  ch.compression = &*comp;
  return ch;
}

// ---------------------------------------------------------- journal hooks

ShiftJournalHooks journal_dense(DenseMatrix& m) {
  ShiftJournalHooks hooks;
  hooks.pack_state = [&m] { return pack_dense(m); };
  hooks.unpack_state = [&m](const MessageWords& words) {
    m = unpack_dense(words, m.rows(), m.cols());
  };
  return hooks;
}

ShiftJournalHooks journal_dots(std::vector<SampledPiece>& pieces) {
  ShiftJournalHooks hooks;
  hooks.pack_state = [&pieces] {
    MessageWords words;
    for (const SampledPiece& pc : pieces) {
      const MessageWords packed =
          pack_values(std::span<const Scalar>(pc.dots));
      words.push_back(packed.size());
      words.insert(words.end(), packed.begin(), packed.end());
    }
    return words;
  };
  hooks.unpack_state = [&pieces](const MessageWords& words) {
    std::size_t off = 0;
    for (SampledPiece& pc : pieces) {
      const auto len = static_cast<std::size_t>(words[off++]);
      pc.dots = unpack_values(MessageWords(
          words.begin() + static_cast<std::ptrdiff_t>(off),
          words.begin() + static_cast<std::ptrdiff_t>(off + len)));
      off += len;
    }
  };
  return hooks;
}

} // namespace dsk::detail
