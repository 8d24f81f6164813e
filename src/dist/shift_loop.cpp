#include "dist/shift_loop.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "runtime/recovery.hpp"
#include "runtime/stats.hpp"

namespace dsk {

namespace {

bool is_self(const Comm& comm, const ShiftChannel& ch) {
  return ch.send_to == comm.rank() && ch.recv_from == comm.rank();
}

/// Compression is in force for a channel when armed with a non-Dense
/// mode (drivers attach an inactive Dense compression for free) — or
/// with a non-default wire codec, which must encode even full-dense
/// hops.
const ShiftCompression* active_compression(const ShiftChannel& ch) {
  if (ch.compression == nullptr ||
      (ch.compression->mode == PropagationMode::Dense &&
       ch.compression->codec.is_default())) {
    return nullptr;
  }
  return ch.compression;
}

/// The per-hop plan choice — the shared propagation_hop_is_sparse rule
/// on this channel's shape; sender and receiver evaluate it on the same
/// support list (their schedules are slices of one shared plan), so the
/// wire format always agrees.
bool hop_is_sparse(const ShiftCompression& comp,
                   const std::vector<Index>& rows) {
  return propagation_hop_is_sparse(comp.mode, rows, comp.block_rows,
                                   comp.width, comp.codec);
}

/// Forward the channel's resident block for the hop of `step`:
/// support-compressed when the plan says so (an empty support sends
/// nothing at all — the receiver reconstructs a zero block), the full
/// dense payload otherwise. `may_move` lets the trailing sends hand the
/// resident words over without a copy, as before.
void send_hop(Comm& comm, ShiftChannel& ch, int step, bool may_move) {
  const ShiftCompression* comp = active_compression(ch);
  if (comp == nullptr) {
    comm.send_words(ch.send_to, ch.tag,
                    may_move ? std::move(ch.block) : MessageWords(ch.block));
    return;
  }
  if (comp->mode != PropagationMode::Dense) {
    const auto& rows =
        comp->send_rows[static_cast<std::size_t>(step)];
    if (hop_is_sparse(*comp, rows)) {
      if (!rows.empty()) {
        comm.send_words(ch.send_to, ch.tag,
                        encode_cols_block(ch.block, comp->block_rows,
                                          comp->width, rows, comp->codec));
      }
      return;
    }
  }
  // Full-dense hop; the codec still encodes the payload (a no-op move
  // under the default codec, so the pre-codec fast path is preserved).
  comm.send_words(ch.send_to, ch.tag,
                  encode_dense(may_move ? std::move(ch.block)
                                        : MessageWords(ch.block),
                               comp->block_rows, comp->width, comp->codec));
}

/// Receive the hop of `step` into the channel: a compressed hop is
/// expanded back to the full dense payload (zeros outside the support,
/// indices validated against the shared plan), and a skipped hop — an
/// empty support — lands as an all-zero block without any message.
void recv_hop(Comm& comm, ShiftChannel& ch, int step) {
  const ShiftCompression* comp = active_compression(ch);
  if (comp == nullptr) {
    ch.block = comm.recv_words(ch.recv_from, ch.tag);
    return;
  }
  if (comp->mode != PropagationMode::Dense) {
    const auto& rows =
        comp->recv_rows[static_cast<std::size_t>(step)];
    if (hop_is_sparse(*comp, rows)) {
      if (rows.empty()) {
        ch.block.assign(static_cast<std::size_t>(comp->block_rows) *
                            static_cast<std::size_t>(comp->width),
                        0);
      } else {
        ch.block = decode_cols_block(
            comm.recv_words(ch.recv_from, ch.tag), comp->block_rows,
            comp->width, rows, comp->codec);
      }
      return;
    }
  }
  ch.block = decode_dense(comm.recv_words(ch.recv_from, ch.tag),
                          comp->block_rows, comp->width, comp->codec);
}

} // namespace

void run_shift_loop(Comm& comm, ShiftSchedule schedule, int steps,
                    std::span<ShiftChannel> channels,
                    const std::function<void(int)>& compute,
                    const ShiftJournalHooks* state) {
  for (const auto& ch : channels) {
    check(is_self(comm, ch) || (ch.send_to != comm.rank() &&
                                ch.recv_from != comm.rank()),
          "run_shift_loop: channel is half-self (send_to ", ch.send_to,
          ", recv_from ", ch.recv_from, " on rank ", comm.rank(), ")");
    if (const ShiftCompression* comp = active_compression(ch)) {
      // A Dense-mode compression armed only by a non-default codec has
      // no support schedules — every hop ships the full encoded block.
      check(comp->mode == PropagationMode::Dense ||
                (static_cast<int>(comp->send_rows.size()) == steps &&
                 static_cast<int>(comp->recv_rows.size()) == steps),
            "run_shift_loop: compression schedules cover ",
            comp->send_rows.size(), " steps, loop runs ", steps);
    }
  }
  // Fault-mode journaling: snapshot the resident blocks (plus any
  // driver state) after each completed step, and on a recovered attempt
  // restore the last globally-completed step and skip its prefix.
  StepJournal* journal = comm.journal();
  int loop_id = -1;
  int start_step = 0;
  if (journal != nullptr) {
    loop_id = journal->begin_loop(comm.rank());
    const int resume = journal->resume_step(comm.rank(), loop_id);
    if (resume >= 0) {
      const auto& snap = journal->snapshot(comm.rank(), loop_id, resume);
      check(snap.blocks.size() == channels.size(),
            "run_shift_loop: journal snapshot has ", snap.blocks.size(),
            " blocks for ", channels.size(), " channels");
      for (std::size_t i = 0; i < channels.size(); ++i) {
        channels[i].block = snap.blocks[i];
      }
      if (state != nullptr && state->unpack_state) {
        state->unpack_state(snap.state);
      }
      start_step = resume + 1;
      journal->count_resumed(start_step);
    }
  }
  const bool overlap = schedule == ShiftSchedule::DoubleBuffered;
  for (int step = start_step; step < steps; ++step) {
    comm.on_shift_step(step);
    if (overlap) {
      // Forward read-only blocks before computing: the copy in flight is
      // what the receiver's post-compute receive will find waiting.
      PhaseScope scope(comm.stats(), Phase::Propagation);
      for (auto& ch : channels) {
        if (!ch.mutates && !is_self(comm, ch)) {
          send_hop(comm, ch, step, /*may_move=*/false);
        }
      }
    }
    {
      PhaseScope scope(comm.stats(), Phase::Computation);
      compute(step);
    }
    {
      PhaseScope scope(comm.stats(), Phase::Propagation);
      for (auto& ch : channels) {
        if (is_self(comm, ch)) continue;
        const bool sent_early = overlap && !ch.mutates;
        if (!sent_early) {
          send_hop(comm, ch, step, /*may_move=*/true);
        }
        recv_hop(comm, ch, step);
      }
    }
    if (!overlap) {
      PhaseScope scope(comm.stats(), Phase::Propagation);
      comm.barrier();
    }
    if (journal != nullptr) {
      StepJournal::Snapshot snap;
      // Non-retained steps (checkpoint interval > 1) skip the copy but
      // still record completion, advancing the resume watermark.
      if (journal->wants_snapshot(step)) {
        snap.blocks.reserve(channels.size());
        for (const auto& ch : channels) snap.blocks.push_back(ch.block);
        if (state != nullptr && state->pack_state) {
          snap.state = state->pack_state();
        }
      }
      journal->record_step(comm.rank(), loop_id, step, std::move(snap));
    }
  }
}

ShiftChannel ring_channel(std::span<const int> members, int pos, int tag,
                          bool mutates, MessageWords block) {
  const auto g = static_cast<int>(members.size());
  check(g >= 1 && 0 <= pos && pos < g, "ring_channel: position ", pos,
        " outside ring of ", g);
  ShiftChannel ch;
  ch.send_to = members[static_cast<std::size_t>((pos - 1 + g) % g)];
  ch.recv_from = members[static_cast<std::size_t>((pos + 1) % g)];
  ch.tag = tag;
  ch.mutates = mutates;
  ch.block = std::move(block);
  return ch;
}

ShiftCompression make_ring_compression(
    PropagationMode mode, Index block_rows, Index width, int ring,
    int origin0, bool mutates,
    const std::function<std::span<const Index>(int origin, int step)>&
        touch,
    const WireCodec& codec) {
  check(ring >= 1 && 0 <= origin0 && origin0 < ring,
        "make_ring_compression: origin ", origin0, " outside ring of ",
        ring);
  ShiftCompression comp;
  comp.mode = mode;
  comp.block_rows = block_rows;
  comp.width = width;
  comp.codec = codec;
  if (mode == PropagationMode::Dense) return comp;
  comp.send_rows.assign(static_cast<std::size_t>(ring), {});
  comp.recv_rows.assign(static_cast<std::size_t>(ring), {});
  // Union of block `origin`'s consumer supports over steps [lo, hi).
  std::vector<char> mark(static_cast<std::size_t>(block_rows), 0);
  const auto union_steps = [&](int origin, int lo, int hi) {
    std::fill(mark.begin(), mark.end(), 0);
    for (int t = lo; t < hi; ++t) {
      for (const Index row : touch(origin, t)) {
        check(0 <= row && row < block_rows,
              "make_ring_compression: support row ", row,
              " outside [0, ", block_rows, ")");
        mark[static_cast<std::size_t>(row)] = 1;
      }
    }
    std::vector<Index> rows;
    for (Index i = 0; i < block_rows; ++i) {
      if (mark[static_cast<std::size_t>(i)] != 0) rows.push_back(i);
    }
    return rows;
  };
  // Each block origin is sent exactly once by this rank (while resident,
  // at t_send = origin - origin0) and received exactly once (just before
  // becoming resident, at t_recv = t_send - 1 mod ring). Read-only hops
  // carry what the REST of the trip still reads; accumulator hops carry
  // what has been written SO FAR (the hop during step t follows step t's
  // compute, hence the [0, t] prefix).
  for (int origin = 0; origin < ring; ++origin) {
    const int t_send = (origin - origin0 + ring) % ring;
    const int t_recv = (origin - origin0 - 1 + 2 * ring) % ring;
    if (mutates) {
      comp.send_rows[static_cast<std::size_t>(t_send)] =
          union_steps(origin, 0, t_send + 1);
      comp.recv_rows[static_cast<std::size_t>(t_recv)] =
          union_steps(origin, 0, t_recv + 1);
    } else {
      comp.send_rows[static_cast<std::size_t>(t_send)] =
          union_steps(origin, t_send + 1, ring);
      comp.recv_rows[static_cast<std::size_t>(t_recv)] =
          union_steps(origin, t_recv + 1, ring);
    }
  }
  return comp;
}

} // namespace dsk
