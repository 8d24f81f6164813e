/// \file plan.cpp
/// Plan construction and the fingerprint-checked execute path.

#include "dist/plan.hpp"

#include "common/error.hpp"
#include "common/timer.hpp"

namespace dsk {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv1a(std::uint64_t& h, const void* bytes, std::size_t count) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < count; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void fnv1a_value(std::uint64_t& h, const T& value) {
  fnv1a(h, &value, sizeof(value));
}

} // namespace

std::uint64_t plan_fingerprint(const CooMatrix& s, Index r) {
  std::uint64_t h = kFnvOffset;
  fnv1a_value(h, s.rows());
  fnv1a_value(h, s.cols());
  fnv1a_value(h, s.nnz());
  fnv1a_value(h, r);
  const auto rows = s.row_idx();
  const auto cols = s.col_idx();
  const auto vals = s.values();
  fnv1a(h, rows.data(), rows.size_bytes());
  fnv1a(h, cols.data(), cols.size_bytes());
  fnv1a(h, vals.data(), vals.size_bytes());
  return h;
}

ExecContext Plan::context(const CooMatrix& s, Index r,
                          const ExecuteOptions& exec) const {
  check(plan_fingerprint(s, r) == fingerprint_,
        "Plan: executed against a different (matrix, width) than it was "
        "built for — the frozen shards would not match; rebuild with "
        "make_plan");
  return ExecContext{data_.get(), exec};
}

KernelResult Plan::execute(Mode mode, const CooMatrix& s,
                           const DenseMatrix& a, const DenseMatrix& b,
                           const ExecuteOptions& exec) const {
  return algo_->run_kernel(context(s, a.cols(), exec), mode, s, a, b);
}

FusedResult Plan::execute_fusedmm(FusedOrientation orientation,
                                  Elision elision, const CooMatrix& s,
                                  const DenseMatrix& a, const DenseMatrix& b,
                                  int repetitions,
                                  const ExecuteOptions& exec) const {
  return algo_->run_fusedmm(context(s, a.cols(), exec), orientation, elision,
                            s, a, b, repetitions);
}

Plan make_plan(AlgorithmKind kind, int p, int c, const CooMatrix& s, Index r,
               const AlgorithmOptions& options) {
  Plan plan;
  Timer timer;
  plan.algo_ = make_algorithm(kind, p, c, options);
  plan.data_ = plan.algo_->make_plan_data(s, r);
  plan.build_seconds_ = timer.seconds();
  plan.m_ = s.rows();
  plan.n_ = s.cols();
  plan.r_ = r;
  plan.nnz_ = s.nnz();
  plan.fingerprint_ = plan_fingerprint(s, r);
  return plan;
}

} // namespace dsk
