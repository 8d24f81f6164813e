#include "layers.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "common/rng.hpp"
#include "local/fused.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"
#include "local/thread_pool.hpp"
#include "runtime/collectives.hpp"
#include "runtime/wire.hpp"
#include "runtime/world.hpp"
#include "sparse/convert.hpp"

namespace perfbench {

using namespace dsk;

namespace {

/// Keeps timed results observable so the calls are not optimized away.
volatile std::uint64_t g_sink = 0;

std::vector<Index> marked(const std::vector<char>& marks) {
  std::vector<Index> out;
  for (std::size_t i = 0; i < marks.size(); ++i) {
    if (marks[i] != 0) out.push_back(static_cast<Index>(i));
  }
  return out;
}

DenseMatrix random_dense(Index rows, Index cols, std::uint64_t seed) {
  DenseMatrix m(rows, cols);
  Rng rng(seed);
  m.fill_random(rng);
  return m;
}

double gbps(double bytes, double seconds) { return bytes / seconds / 1e9; }

} // namespace

CommShape comm_shape(const CooMatrix& s, int p, int c, Index r,
                     const AlgorithmOptions& options) {
  CommShape shape;
  shape.p = p;
  shape.c = c;
  shape.width = r;
  shape.replication = options.replication;
  shape.propagation = options.propagation;
  shape.codec = WireCodec{options.wire_precision, options.index_codec};
  const Index m = s.rows(), n = s.cols();
  const int layers = p / c;
  shape.repl_rows = m / p;
  shape.shift_rows = n / p;
  const Index gathered = c * shape.repl_rows;
  std::vector<std::vector<char>> wants(
      static_cast<std::size_t>(c),
      std::vector<char>(static_cast<std::size_t>(gathered), 0));
  std::vector<std::vector<char>> support(
      static_cast<std::size_t>(layers),
      std::vector<char>(static_cast<std::size_t>(shape.shift_rows), 0));
  for (Index k = 0; k < s.nnz(); ++k) {
    const auto e = s.entry(k);
    if (e.row < gathered) {
      const auto t = static_cast<std::size_t>(e.col * c / n);
      wants[t][static_cast<std::size_t>(e.row)] = 1;
    }
    if (e.col < shape.shift_rows) {
      const auto t = static_cast<std::size_t>(e.row * layers / m);
      support[t][static_cast<std::size_t>(e.col)] = 1;
    }
  }
  for (const auto& w : wants) shape.repl_wants.push_back(marked(w));
  for (const auto& w : support) shape.shift_support.push_back(marked(w));
  return shape;
}

void measure_local(const CooMatrix& block, Index r, std::uint64_t seed,
                   Metrics& out) {
  const CsrMatrix s = coo_to_csr(block);
  const DenseMatrix a = random_dense(s.rows(), r, seed);
  const DenseMatrix b = random_dense(s.cols(), r, seed + 1);
  DenseMatrix a_out(s.rows(), r), b_out(s.cols(), r), f_out(s.rows(), r);
  std::vector<Scalar> dots(static_cast<std::size_t>(s.nnz()));
  ThreadPool pool(4);
  for (const int threads : {1, 4}) {
    ThreadPool* tp = threads == 1 ? nullptr : &pool;
    const auto gflops = [&](const std::string& kernel, const auto& call) {
      std::uint64_t flops = 0;
      const double sec = median_seconds([&] { flops = call(); }, 3, 0.3, 50);
      out.set("local." + kernel + ".gflops_t" + std::to_string(threads),
              static_cast<double>(flops) / sec / 1e9, "GFLOP/s");
    };
    gflops("fusedmm_a", [&] { return fusedmm_a(s, a, b, f_out, tp); });
    gflops("sddmm", [&] { return masked_dot_products(s, a, b, dots, tp); });
    gflops("spmm_a", [&] { return spmm_a(s, b, a_out, tp); });
    gflops("spmm_b", [&] { return spmm_b(s, a, b_out, tp); });
  }
}

void measure_wire(const CommShape& shape, Metrics& out) {
  // Dense hop: the sender packs the block's raw image and encodes it,
  // the receiver decodes the wire image and unpacks the values.
  const Index rows = shape.shift_rows, width = shape.width;
  const DenseMatrix block = random_dense(rows, width, 7);
  const double dense_bytes = static_cast<double>(rows * width) * 8.0;
  const auto encode = [&] {
    return encode_dense(encode_values(block.data(), WireCodec{}), rows, width,
                        shape.codec);
  };
  const double enc = median_seconds([&] { g_sink = encode().size(); });
  const MessageWords wire = encode();
  MessageWords arrived;
  const double dec = median_seconds_prepared(
      [&] { arrived = wire; },
      [&] {
        const auto values = decode_values(
            decode_dense(std::move(arrived), rows, width, shape.codec),
            rows * width, WireCodec{});
        g_sink = values.size();
      },
      5, 0.2, 200);
  out.set("wire.encode_dense.gbps", gbps(dense_bytes, enc), "GB/s");
  out.set("wire.decode_dense.gbps", gbps(dense_bytes, dec), "GB/s");

  // Row-support message under the Auto index codec: the rows member 1
  // reads from member 0's replication block.
  std::vector<Index> rows_support;
  for (const Index row : shape.repl_wants.at(1)) {
    if (row < shape.repl_rows) rows_support.push_back(row);
  }
  if (rows_support.empty()) rows_support.push_back(0);
  const auto k = rows_support.size();
  const WireCodec codec{shape.codec.precision, IndexCodec::Auto};
  const DenseMatrix values = random_dense(static_cast<Index>(k), width, 8);
  const double rows_bytes = static_cast<double>(values.size()) * 8.0;
  const auto encode_rows = [&] {
    return encode_rows_chunk(rows_support, 0, k, shape.repl_rows, width,
                             values.data(), codec);
  };
  const double enc_rows =
      median_seconds([&] { g_sink = encode_rows().size(); });
  const MessageWords rows_wire = encode_rows();
  const double dec_rows = median_seconds([&] {
    g_sink = decode_rows_chunk(rows_wire, rows_support, 0, k,
                               shape.repl_rows, width, codec)
                 .size();
  });
  out.set("wire.encode_rows.gbps", gbps(rows_bytes, enc_rows), "GB/s");
  out.set("wire.decode_rows.gbps", gbps(rows_bytes, dec_rows), "GB/s");
}

void measure_runtime(const CommShape& shape, Metrics& out) {
  SimWorld world(shape.p);
  out.set("runtime.world_run_us",
          median_seconds([&] { world.run([](Comm&) {}); }, 50, 0.2, 2000) *
              1e6,
          "us");

  // Ping-pong of one word between ranks 0 and 1; the other ranks idle.
  constexpr int kPings = 1000;
  const std::array<std::uint64_t, 1> word{1};
  std::vector<double> rtt;
  for (int rep = 0; rep < 6; ++rep) {
    double elapsed = 0;
    world.run([&](Comm& comm) {
      if (comm.rank() == 0) {
        const auto t0 = Clock::now();
        for (int i = 0; i < kPings; ++i) {
          comm.send<std::uint64_t>(1, kTagUser, word);
          g_sink = comm.recv<std::uint64_t>(1, kTagUser).size();
        }
        elapsed = seconds_between(t0, Clock::now());
      } else if (comm.rank() == 1) {
        for (int i = 0; i < kPings; ++i) {
          const auto got = comm.recv<std::uint64_t>(0, kTagUser);
          comm.send<std::uint64_t>(0, kTagUser, got);
        }
      }
    });
    if (rep > 0) rtt.push_back(elapsed / kPings);
  }
  out.set("runtime.msg_rtt_us", median(rtt) * 1e6, "us");

  // The largest message a pass sends, through the typed send/recv (one
  // copy into the message, one out of it), acknowledged by one word.
  const Index words =
      std::max(shape.repl_rows, shape.shift_rows) * shape.width;
  const DenseMatrix payload = random_dense(words, 1, 9);
  constexpr int kSends = 16;
  std::vector<double> per_word;
  for (int rep = 0; rep < 6; ++rep) {
    double elapsed = 0;
    world.run([&](Comm& comm) {
      if (comm.rank() == 0) {
        const auto t0 = Clock::now();
        for (int i = 0; i < kSends; ++i) {
          comm.send<Scalar>(1, kTagUser, payload.data());
          g_sink = comm.recv<std::uint64_t>(1, kTagUser).size();
        }
        elapsed = seconds_between(t0, Clock::now());
      } else if (comm.rank() == 1) {
        for (int i = 0; i < kSends; ++i) {
          g_sink = comm.recv<Scalar>(0, kTagUser).size();
          comm.send<std::uint64_t>(0, kTagUser, word);
        }
      }
    });
    if (rep > 0) per_word.push_back(elapsed / kSends / static_cast<double>(words));
  }
  out.set("runtime.copy_ns_per_word", median(per_word) * 1e9, "ns/word");
}

void measure_collectives(const CommShape& shape, Metrics& out) {
  const int p = shape.p, c = shape.c, layers = p / c;
  const Index width = shape.width;
  // Rank q sits at fiber position q % c of fiber q / c, and at ring
  // position q / c of the shift ring of ranks with the same q % c.
  std::vector<DenseMatrix> local, partial, shift_block;
  for (int q = 0; q < p; ++q) {
    const auto seed = static_cast<std::uint64_t>(100 + q);
    local.push_back(random_dense(shape.repl_rows, width, seed));
    shift_block.push_back(random_dense(shape.shift_rows, width, seed + p));
    // A reduce-scatter partial is nonzero only on the member's support.
    DenseMatrix acc(c * shape.repl_rows, width);
    const DenseMatrix fill = random_dense(acc.rows(), width, seed + 2 * p);
    for (const Index row : shape.repl_wants[static_cast<std::size_t>(q % c)]) {
      std::copy(fill.row(row).begin(), fill.row(row).end(),
                acc.row(row).begin());
    }
    partial.push_back(std::move(acc));
  }

  constexpr int kReps = 8;
  std::vector<double> gather, scatter, hop;
  SimWorld world(p);
  world.run([&](Comm& comm) {
    const int q = comm.rank();
    std::vector<int> fiber_members, ring_members;
    for (int t = 0; t < c; ++t) fiber_members.push_back(q / c * c + t);
    for (int t = 0; t < layers; ++t) ring_members.push_back(t * c + q % c);
    Group fiber(comm, fiber_members);
    Group ring(comm, ring_members);
    const auto qs = static_cast<std::size_t>(q);
    const int pos = ring.pos();
    const int to = (pos + 1) % layers, from = (pos + layers - 1) % layers;
    const auto timed = [&](std::vector<double>& into, const auto& call,
                           int rep) {
      comm.barrier();
      const auto t0 = Clock::now();
      call();
      comm.barrier();
      if (q == 0 && rep > 0) into.push_back(seconds_between(t0, Clock::now()));
    };
    for (int rep = 0; rep <= kReps; ++rep) {
      timed(gather, [&] {
        g_sink = static_cast<std::uint64_t>(
            fiber.allgatherv_rows(local[qs], shape.repl_wants,
                                  shape.replication, shape.codec).rows());
      }, rep);
      timed(scatter, [&] {
        g_sink = static_cast<std::uint64_t>(
            fiber.reduce_scatter_rows(partial[qs], shape.repl_wants,
                                      shape.replication, shape.codec).rows());
      }, rep);
      timed(hop, [&] {
        g_sink = static_cast<std::uint64_t>(
            ring.sendrecv_cols(
                    to, from, shift_block[qs],
                    shape.shift_support[static_cast<std::size_t>(to)],
                    shape.shift_support[static_cast<std::size_t>(pos)],
                    shape.propagation, kTagShift, shape.codec)
                .rows());
      }, rep);
    }
  });
  out.set("collectives.allgather_ms", median(gather) * 1e3, "ms");
  out.set("collectives.reduce_scatter_ms", median(scatter) * 1e3, "ms");
  out.set("collectives.shift_hop_ms", median(hop) * 1e3, "ms");
}

} // namespace perfbench
