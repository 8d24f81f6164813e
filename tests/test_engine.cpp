/// Engine-level guarantees of the distributed drivers:
///   * FusedMM-B under LocalKernelFusion runs the transposed problem,
///     whose snapshot a Plan builds once, lazily, on the first such
///     execute — and counts the build in the call that made it;
///   * a seeded differential test: random non-divisible shapes (each
///     with an empty row, an empty column and a single hub row), padded
///     through pad_problem, across family x op x elision x schedule x
///     replication x propagation, compared exactly against the serial
///     references. Inputs are small integers, so every summation order
///     is exact and "exact" means bit-equal. A failure prints the seed;
///     DSK_FUZZ_SEEDS=<s1,s2,...> replays chosen seeds instead of the
///     fixed set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dist/plan.hpp"
#include "dist/problem.hpp"
#include "local/reference.hpp"
#include "sparse/generate.hpp"

namespace dsk {
namespace {

struct Problem {
  CooMatrix s;
  DenseMatrix a;
  DenseMatrix b;
};

Problem fusion_problem() {
  Rng rng(41);
  Problem pr{erdos_renyi_fixed_row(64, 96, 4, rng), DenseMatrix(64, 8),
             DenseMatrix(96, 8)};
  pr.a.fill_random(rng);
  pr.b.fill_random(rng);
  return pr;
}

// --- Transposed snapshot of FusedMM-B + LocalKernelFusion --------------

TEST(TransposedSnapshot, BuiltOnceOnFirstFusionBExecute) {
  const Problem pr = fusion_problem();
  const Plan plan = make_plan(AlgorithmKind::DenseShift15D, 4, 2, pr.s,
                              pr.a.cols());
  const auto first = plan.execute_fusedmm(
      FusedOrientation::B, Elision::LocalKernelFusion, pr.s, pr.a, pr.b);
  EXPECT_EQ(first.stats.setup_builds(), 1);
  EXPECT_GT(first.stats.setup_seconds(), 0.0);
  for (int round = 0; round < 2; ++round) {
    const auto later = plan.execute_fusedmm(
        FusedOrientation::B, Elision::LocalKernelFusion, pr.s, pr.a, pr.b);
    EXPECT_EQ(later.stats.setup_builds(), 0);
    EXPECT_EQ(later.stats.setup_seconds(), 0.0);
    EXPECT_EQ(later.output.max_abs_diff(first.output), 0.0);
  }
  // Orientation A fuses along the plan's own rows: nothing to build.
  const auto a_side = plan.execute_fusedmm(
      FusedOrientation::A, Elision::LocalKernelFusion, pr.s, pr.a, pr.b);
  EXPECT_EQ(a_side.stats.setup_builds(), 0);
}

TEST(TransposedSnapshot, FreshCallCountsBothBuilds) {
  const Problem pr = fusion_problem();
  auto algo = make_algorithm(AlgorithmKind::DenseShift15D, 4, 2);
  const auto fresh = algo->run_fusedmm(
      FusedOrientation::B, Elision::LocalKernelFusion, pr.s, pr.a, pr.b);
  EXPECT_EQ(fresh.stats.setup_builds(), 2);
  const Plan plan = make_plan(AlgorithmKind::DenseShift15D, 4, 2, pr.s,
                              pr.a.cols());
  const auto planned = plan.execute_fusedmm(
      FusedOrientation::B, Elision::LocalKernelFusion, pr.s, pr.a, pr.b);
  EXPECT_EQ(planned.output.max_abs_diff(fresh.output), 0.0);
  const auto expected = reference_fusedmm_b(pr.s, pr.a, pr.b);
  EXPECT_LT(fresh.output.max_abs_diff(expected),
            1e-9 * std::max<Scalar>(expected.frobenius_norm(), 1.0));
}

/// Plans are shared across threads: concurrent first executes must build
/// the transposed snapshot exactly once between them.
TEST(TransposedSnapshot, ConcurrentExecutesBuildOnce) {
  const Problem pr = fusion_problem();
  const Plan plan = make_plan(AlgorithmKind::DenseShift15D, 4, 2, pr.s,
                              pr.a.cols());
  FusedResult results[2];
  std::vector<std::thread> threads;
  threads.reserve(2);
  for (FusedResult& result : results) {
    threads.emplace_back([&plan, &pr, &result] {
      result = plan.execute_fusedmm(FusedOrientation::B,
                                    Elision::LocalKernelFusion, pr.s, pr.a,
                                    pr.b);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(results[0].stats.setup_builds() +
                results[1].stats.setup_builds(),
            1);
  EXPECT_EQ(results[0].output.max_abs_diff(results[1].output), 0.0);
}

// --- Seeded differential test -------------------------------------------

std::vector<std::uint64_t> fuzz_seeds() {
  std::vector<std::uint64_t> seeds;
  const char* env = std::getenv("DSK_FUZZ_SEEDS");
  if (env == nullptr) {
    seeds.reserve(64);
    for (std::uint64_t seed = 1; seed <= 64; ++seed) seeds.push_back(seed);
    return seeds;
  }
  std::stringstream in(env);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) seeds.push_back(std::stoull(token));
  }
  return seeds;
}

Scalar small_int(Rng& rng) {
  return static_cast<Scalar>(rng.next_index(-3, 4));
}

/// m x n with r columns of dense factors: one empty row, one empty
/// column, one hub row touching every other column, and 0-3 random
/// columns per remaining row; every value a small integer.
Problem draw_problem(Rng& rng) {
  const Index m = rng.next_index(3, 41);
  const Index n = rng.next_index(3, 41);
  const Index r = rng.next_index(1, 10);
  const Index empty_row = rng.next_index(0, m);
  const Index hub_row = (empty_row + 1 + rng.next_index(0, m - 1)) % m;
  const Index empty_col = rng.next_index(0, n);
  Problem pr{CooMatrix(m, n), DenseMatrix(m, r), DenseMatrix(n, r)};
  for (Index i = 0; i < m; ++i) {
    if (i == empty_row) continue;
    if (i == hub_row) {
      for (Index j = 0; j < n; ++j) {
        if (j != empty_col) pr.s.push_back(i, j, small_int(rng));
      }
      continue;
    }
    const Index count = rng.next_index(0, 4);
    for (Index k = 0; k < count; ++k) {
      const Index j = rng.next_index(0, n);
      if (j != empty_col) pr.s.push_back(i, j, small_int(rng));
    }
  }
  pr.s.sort_and_combine();
  for (Index i = 0; i < m; ++i) {
    for (Index f = 0; f < r; ++f) pr.a(i, f) = small_int(rng);
  }
  for (Index j = 0; j < n; ++j) {
    for (Index f = 0; f < r; ++f) pr.b(j, f) = small_int(rng);
  }
  return pr;
}

struct FuzzCase {
  AlgorithmKind kind = AlgorithmKind::DenseShift15D;
  int p = 1;
  int c = 1;
  bool fused = false;
  Mode mode = Mode::SDDMM;
  FusedOrientation orientation = FusedOrientation::A;
  Elision elision = Elision::None;
  AlgorithmOptions options;
};

std::string describe(const FuzzCase& fc, const Problem& pr) {
  std::ostringstream out;
  out << to_string(fc.kind) << " p=" << fc.p << " c=" << fc.c << " "
      << (fc.fused ? to_string(fc.orientation) + " " + to_string(fc.elision)
                   : to_string(fc.mode))
      << " schedule=" << static_cast<int>(fc.options.schedule)
      << " replication=" << to_string(fc.options.replication)
      << " propagation=" << to_string(fc.options.propagation) << " on "
      << pr.s.rows() << "x" << pr.s.cols() << " nnz=" << pr.s.nnz()
      << " r=" << pr.a.cols();
  return out.str();
}

template <typename T>
T pick(Rng& rng, const std::vector<T>& options) {
  return options[static_cast<std::size_t>(
      rng.next_below(options.size()))];
}

FuzzCase draw_case(Rng& rng) {
  struct Grid {
    AlgorithmKind kind;
    int p;
    int c;
  };
  const std::vector<Grid> grids = {
      {AlgorithmKind::DenseShift15D, 1, 1},
      {AlgorithmKind::DenseShift15D, 3, 1},
      {AlgorithmKind::DenseShift15D, 4, 2},
      {AlgorithmKind::DenseShift15D, 6, 3},
      {AlgorithmKind::DenseShift15D, 8, 8},
      {AlgorithmKind::SparseShift15D, 2, 1},
      {AlgorithmKind::SparseShift15D, 4, 2},
      {AlgorithmKind::SparseShift15D, 6, 2},
      {AlgorithmKind::SparseShift15D, 4, 4},
      {AlgorithmKind::DenseRepl25D, 4, 1},
      {AlgorithmKind::DenseRepl25D, 8, 2},
      {AlgorithmKind::DenseRepl25D, 9, 1},
      {AlgorithmKind::SparseRepl25D, 4, 1},
      {AlgorithmKind::SparseRepl25D, 12, 3},
      {AlgorithmKind::SparseRepl25D, 1, 1},
      {AlgorithmKind::Baseline1D, 1, 1},
      {AlgorithmKind::Baseline1D, 5, 1},
  };
  const Grid grid = pick(rng, grids);
  FuzzCase fc;
  fc.kind = grid.kind;
  fc.p = grid.p;
  fc.c = grid.c;
  const auto algo = make_algorithm(fc.kind, fc.p, fc.c);
  const bool baseline = fc.kind == AlgorithmKind::Baseline1D;
  // Every op the family runs: the three kernels and FusedMM in each
  // orientation under each supported elision.
  std::vector<FuzzCase> ops;
  for (const Mode mode : {Mode::SDDMM, Mode::SpMMA, Mode::SpMMB}) {
    if (baseline && mode != Mode::SpMMA) continue;
    FuzzCase op = fc;
    op.mode = mode;
    ops.push_back(op);
  }
  for (const FusedOrientation o : {FusedOrientation::A, FusedOrientation::B}) {
    if (baseline && o == FusedOrientation::B) continue;
    for (const Elision e : {Elision::None, Elision::ReplicationReuse,
                            Elision::LocalKernelFusion}) {
      if (!algo->supports(e)) continue;
      FuzzCase op = fc;
      op.fused = true;
      op.orientation = o;
      op.elision = e;
      ops.push_back(op);
    }
  }
  fc = pick(rng, ops);
  fc.options.schedule = pick<ShiftSchedule>(
      rng, {ShiftSchedule::BulkSynchronous, ShiftSchedule::DoubleBuffered});
  fc.options.replication = pick<ReplicationMode>(
      rng, {ReplicationMode::Dense, ReplicationMode::Auto});
  fc.options.propagation = pick<PropagationMode>(
      rng, {PropagationMode::Dense, PropagationMode::Auto});
  return fc;
}

/// Runs one seed; returns an empty string on success, else what differed.
std::string run_seed(std::uint64_t seed) {
  Rng rng(seed);
  const Problem pr = draw_problem(rng);
  const FuzzCase fc = draw_case(rng);
  const auto algo = make_algorithm(fc.kind, fc.p, fc.c, fc.options);
  const PaddedProblem padded =
      pad_problem(fc.kind, fc.p, fc.c, pr.s, pr.a, pr.b);
  const std::string what = describe(fc, pr);
  const Index r = pr.a.cols();
  if (!fc.fused && fc.mode == Mode::SDDMM) {
    const auto got =
        algo->run_kernel(fc.mode, padded.s, padded.a, padded.b).sddmm_values;
    const auto want = reference_sddmm(pr.s, pr.a, pr.b);
    const auto values = want.values();
    if (got.size() != values.size() ||
        !std::equal(got.begin(), got.end(), values.begin())) {
      return what;
    }
    return {};
  }
  DenseMatrix got;
  DenseMatrix want;
  if (fc.fused) {
    got = algo->run_fusedmm(fc.orientation, fc.elision, padded.s, padded.a,
                            padded.b)
              .output;
    want = fc.orientation == FusedOrientation::A
               ? reference_fusedmm_a(pr.s, pr.a, pr.b)
               : reference_fusedmm_b(pr.s, pr.a, pr.b);
  } else {
    got = algo->run_kernel(fc.mode, padded.s, padded.a, padded.b).dense;
    want = fc.mode == Mode::SpMMA ? reference_spmm_a(pr.s, pr.b)
                                  : reference_spmm_b(pr.s, pr.a);
  }
  got = unpad_dense(got, want.rows(), r);
  if (got.max_abs_diff(want) != 0.0) {
    return what + ": max |diff| " + std::to_string(got.max_abs_diff(want));
  }
  return {};
}

TEST(Differential, SeededCasesMatchSerialReferenceExactly) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    const std::string failure = run_seed(seed);
    EXPECT_TRUE(failure.empty())
        << failure << "\n  replay: DSK_FUZZ_SEEDS=" << seed
        << " ./dsk_tests --gtest_filter='Differential.*'";
  }
}

} // namespace
} // namespace dsk
