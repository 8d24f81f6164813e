#pragma once
/// \file workloads.hpp
/// The benchmark's four closed-loop workloads. Each is driven by one
/// caller thread and uses at most 4 compute threads (p = 4 simulated
/// ranks, or a 4-thread pool). A workload generates its inputs from the
/// seed in its constructor (not timed), builds its serving state in
/// setup() (timed as setup_s), and runs one op per run_op() call (timed
/// per op). Every op is verified by verify_op(), outside the timed
/// region.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// The program's modules, as the per-layer metrics name them.
enum class Layer { Local, Wire, Runtime, Collectives, Dist, Apps };

/// Max-over-ranks replication + propagation traffic of one op, summed
/// over the op's Plan::execute passes.
struct CommCounts {
  std::uint64_t words = 0;
  std::uint64_t messages = 0;
  friend bool operator==(const CommCounts&, const CommCounts&) = default;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the state the ops run against, replacing any earlier state.
  virtual void setup() = 0;
  /// Reset per-op outputs before an op (untimed).
  virtual void prepare() {}
  /// One op. With a tracer, record the op's child spans under `root`.
  virtual void run_op(Tracer* tracer, int root, int op) = 0;
  /// Check the op just run; returns how many ops were found wrong
  /// (including earlier ops whose check was deferred until now).
  virtual int verify_op() = 0;
  /// Run the checks still deferred when the loop ends.
  virtual int verify_end() { return 0; }
  /// Exact per-op traffic, where the public API returns it.
  virtual std::optional<CommCounts> comm() const { return std::nullopt; }
  /// Useful FLOPs per op, where the public API returns them.
  virtual std::optional<std::uint64_t> flops() const { return std::nullopt; }

  /// Whether this workload's ops run through a layer; the traced run
  /// measures the layers a workload bypasses at another workload's
  /// shapes (see owner_of in main.cpp).
  virtual bool uses(Layer layer) const = 0;
  /// Record the per-layer metrics of `layer` at this workload's shapes.
  /// Called after setup(); may run ops of its own.
  virtual void measure(Layer layer, Metrics& out) = 0;
};

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

} // namespace perfbench
