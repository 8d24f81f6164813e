#pragma once
/// \file layers.hpp
/// Per-layer micro-timings, each made through the layer's public
/// functions at a workload's shapes: `local` kernels, the `wire` codec,
/// the `runtime` transport and the `collectives`. The `dist` and `apps`
/// layers are timed by the workloads themselves (workloads.cpp), since
/// they need each workload's Plan and server.

#include <cstdint>
#include <vector>

#include "dist/algorithm.hpp"
#include "harness.hpp"
#include "sparse/coo.hpp"

namespace perfbench {

/// The message shapes one 1.5D dense-shifting pass moves (p ranks,
/// fiber groups of c, shift rings of p/c), plus the supports that the
/// sparse and Auto modes compress against.
struct CommShape {
  int p = 4;
  int c = 2;
  dsk::Index width = 0;
  /// Replication: each fiber member contributes a repl_rows x width
  /// block of the stationary factor; repl_wants[t] lists the rows of the
  /// gathered c*repl_rows block that member t's nonzeros read.
  dsk::Index repl_rows = 0;
  std::vector<std::vector<dsk::Index>> repl_wants;
  /// Propagation: a shift_rows x width block circulates around a ring of
  /// p/c members; shift_support[t] lists the block rows member t reads.
  dsk::Index shift_rows = 0;
  std::vector<std::vector<dsk::Index>> shift_support;
  dsk::ReplicationMode replication = dsk::ReplicationMode::Dense;
  dsk::PropagationMode propagation = dsk::PropagationMode::Dense;
  dsk::WireCodec codec;
};

/// Shapes and supports of the replication and propagation messages for
/// s (m x n) at width r on p ranks with replication factor c: the first
/// fiber's gathered rows and the first shift block, with supports read
/// off s's nonzeros.
CommShape comm_shape(const dsk::CooMatrix& s, int p, int c, dsk::Index r,
                     const dsk::AlgorithmOptions& options);

/// local.{fusedmm_a,sddmm,spmm_a,spmm_b}.gflops_t{1,4}: the serial
/// kernels and the same kernels on a 4-thread pool, on `block` at width r.
void measure_local(const dsk::CooMatrix& block, dsk::Index r,
                   std::uint64_t seed, Metrics& out);

/// wire.{encode,decode}_dense.gbps (the shape's codec on a shift block)
/// and wire.{encode,decode}_rows.gbps (Auto index codec on the first
/// replication message's row support).
void measure_wire(const CommShape& shape, Metrics& out);

/// runtime.world_run_us, runtime.msg_rtt_us and
/// runtime.copy_ns_per_word (the shape's largest message).
void measure_runtime(const CommShape& shape, Metrics& out);

/// collectives.{allgather,reduce_scatter,shift_hop}_ms in the shape's
/// replication / propagation modes.
void measure_collectives(const CommShape& shape, Metrics& out);

} // namespace perfbench
