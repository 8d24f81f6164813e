#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "apps/serve_als.hpp"
#include "common/rng.hpp"
#include "dist/plan.hpp"
#include "dist/problem.hpp"
#include "layers.hpp"
#include "local/fused.hpp"
#include "local/reference.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"
#include "local/thread_pool.hpp"
#include "runtime/world.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"

namespace perfbench {

using namespace dsk;

namespace {

// Every distributed workload runs the paper's 1.5D dense-shifting family
// on p = 4 simulated ranks (one per core) with replication factor 2.
constexpr AlgorithmKind kKind = AlgorithmKind::DenseShift15D;
constexpr int kRanks = 4;
constexpr int kReplication = 2;
constexpr int kPoolThreads = 4;
/// Repetitions behind each dist.* median.
constexpr int kDistReps = 7;

volatile std::uint64_t g_sink = 0;

DenseMatrix random_dense(Index rows, Index cols, Rng& rng) {
  DenseMatrix m(rows, cols);
  m.fill_random(rng);
  return m;
}

/// |got - want| <= rel * max(1, max |want|), elementwise.
bool close_to(std::span<const Scalar> got, std::span<const Scalar> want,
              double rel) {
  if (got.size() != want.size()) return false;
  double scale = 1.0, worst = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    scale = std::max(scale, std::abs(want[i]));
    worst = std::max(worst, std::abs(got[i] - want[i]));
  }
  return worst <= rel * scale;
}

CommCounts pass_comm(const WorldStats& stats) {
  return {stats.max_words(Phase::Replication) +
              stats.max_words(Phase::Propagation),
          stats.max_messages(Phase::Replication) +
              stats.max_messages(Phase::Propagation)};
}

std::uint64_t total_flops(const WorldStats& stats) {
  std::uint64_t flops = 0;
  for (int r = 0; r < stats.num_ranks(); ++r) {
    flops += stats.rank(r).total().flops;
  }
  return flops;
}

/// One Plan::execute pass: its wall time and the stats it returned.
struct PassRun {
  double wall_s = 0;
  WorldStats stats;
};

DenseMatrix& output_of(FusedResult& result) { return result.output; }
DenseMatrix& output_of(KernelResult& result) { return result.dense; }

/// Times one pass; moves its dense output into `output` when given.
template <typename Call>
PassRun timed_pass(const Call& call, DenseMatrix* output = nullptr) {
  const auto t0 = Clock::now();
  auto result = call();
  PassRun run{seconds_between(t0, Clock::now()), std::move(result.stats)};
  if (output != nullptr) *output = std::move(output_of(result));
  return run;
}

/// The measured phase spans of a pass, beneath its execute span: the
/// phases of the rank with the longest measured kernel time (the
/// critical path), laid end to end from the execute span's start — the
/// runtime reports their durations, not their positions.
void trace_phases(Tracer& tracer, int span, int op, const WorldStats& stats) {
  static constexpr Phase kPhases[] = {Phase::Replication, Phase::Propagation,
                                      Phase::Computation};
  static constexpr const char* kNames[] = {"phase.replication",
                                           "phase.propagation",
                                           "phase.computation"};
  int critical = 0;
  double longest = -1;
  for (int r = 0; r < stats.num_ranks(); ++r) {
    double total = 0;
    for (const Phase ph : kPhases) total += stats.rank(r).seconds(ph);
    if (total > longest) {
      longest = total;
      critical = r;
    }
  }
  double start = tracer.start_ms(span);
  for (std::size_t i = 0; i < 3; ++i) {
    const double ms = stats.rank(critical).seconds(kPhases[i]) * 1e3;
    tracer.add(kNames[i], span, op, start, ms);
    start += ms;
  }
}

template <typename Call>
PassRun traced_pass(Tracer* tracer, const char* name, int root, int op,
                    const Call& call, DenseMatrix* output) {
  const int span = tracer != nullptr ? tracer->open(name, root, op) : -1;
  PassRun run = timed_pass(call, output);
  if (tracer != nullptr) {
    tracer->close(span);
    trace_phases(*tracer, span, op, run.stats);
  }
  return run;
}

/// dist.* metrics of an op made of Plan::execute passes: medians over
/// repetitions of the per-op sums, and the exact counts of one op.
void record_op_breakdown(const std::vector<std::vector<PassRun>>& reps,
                         Metrics& out) {
  std::vector<double> repl, prop, comp, unattributed;
  for (const auto& passes : reps) {
    double r = 0, p = 0, c = 0, u = 0;
    for (const auto& pass : passes) {
      r += pass.stats.measured_phase_seconds(Phase::Replication);
      p += pass.stats.measured_phase_seconds(Phase::Propagation);
      c += pass.stats.measured_phase_seconds(Phase::Computation);
      u += pass.wall_s - pass.stats.measured_kernel_seconds();
    }
    repl.push_back(r * 1e3);
    prop.push_back(p * 1e3);
    comp.push_back(c * 1e3);
    unattributed.push_back(u * 1e3);
  }
  out.set("dist.replication_ms", median(repl), "ms");
  out.set("dist.propagation_ms", median(prop), "ms");
  out.set("dist.computation_ms", median(comp), "ms");
  out.set("dist.unattributed_ms", median(unattributed), "ms");
  CommCounts comm;
  std::uint64_t flops = 0;
  int builds = 0;
  for (const auto& pass : reps.front()) {
    const CommCounts c = pass_comm(pass.stats);
    comm.words += c.words;
    comm.messages += c.messages;
    flops += total_flops(pass.stats);
    builds += pass.stats.setup_builds();
  }
  out.set("dist.flops", static_cast<double>(flops), "flop");
  out.set("dist.setup_builds", builds, "count");
  out.set("dist.comm_words", static_cast<double>(comm.words), "words");
  out.set("dist.comm_messages", static_cast<double>(comm.messages),
          "messages");
}

// ------------------------------------------------------------ als_fused_er

/// One CG matvec of each ALS half-sweep: FusedMM-A then FusedMM-B with
/// local kernel fusion on a resident Plan + SimWorld, default
/// Dense/Full/Raw wire path, on the paper's Erdős–Rényi generator.
class AlsFusedEr final : public Workload {
 public:
  static constexpr Index kN = 8192;
  static constexpr Index kNnzPerRow = 32;
  static constexpr Index kR = 64;

  explicit AlsFusedEr(std::uint64_t seed) : seed_(seed) {
    Rng rng(seed);
    s_ = erdos_renyi_fixed_row(kN, kN, kNnzPerRow, rng);
    s_.sort_and_combine();
    a_ = random_dense(kN, kR, rng);
    b_ = random_dense(kN, kR, rng);
    ref_a_ = reference_fusedmm_a(s_, a_, b_);
    ref_b_ = reference_fusedmm_b(s_, a_, b_);
  }

  void setup() override {
    plan_.reset();
    world_.reset();
    plan_.emplace(make_plan(kKind, kRanks, kReplication, s_, kR));
    world_ = std::make_unique<SimWorld>(kRanks);
  }

  void run_op(Tracer* tracer, int root, int op) override {
    const PassRun a = traced_pass(
        tracer, "execute.fusedmm_a", root, op,
        [&] { return run_fused(FusedOrientation::A); }, &out_a_);
    const PassRun b = traced_pass(
        tracer, "execute.fusedmm_b", root, op,
        [&] { return run_fused(FusedOrientation::B); }, &out_b_);
    const CommCounts ca = pass_comm(a.stats), cb = pass_comm(b.stats);
    op_comm_ = {ca.words + cb.words, ca.messages + cb.messages};
  }

  int verify_op() override {
    bool ok = close_to(out_a_.data(), ref_a_.data(), 1e-9) &&
              close_to(out_b_.data(), ref_b_.data(), 1e-9);
    if (!ok) std::fprintf(stderr, "als_fused_er: output != serial reference\n");
    if (!first_comm_) first_comm_ = op_comm_;
    if (op_comm_ != *first_comm_) {
      std::fprintf(stderr, "als_fused_er: comm counts changed between ops\n");
      ok = false;
    }
    return ok ? 0 : 1;
  }

  std::optional<CommCounts> comm() const override { return op_comm_; }

  bool uses(Layer layer) const override { return layer != Layer::Apps; }

  void measure(Layer layer, Metrics& out) override {
    const CommShape shape =
        comm_shape(s_, kRanks, kReplication, kR, plan_->options());
    switch (layer) {
      case Layer::Local:
        measure_local(s_.block(0, kN / kRanks, 0, kN), kR, seed_, out);
        return;
      case Layer::Wire: measure_wire(shape, out); return;
      case Layer::Runtime: measure_runtime(shape, out); return;
      case Layer::Collectives: measure_collectives(shape, out); return;
      case Layer::Dist: measure_dist(out); return;
      case Layer::Apps: break;
    }
    throw std::logic_error("als_fused_er does not use the apps layer");
  }

 private:
  FusedResult run_fused(FusedOrientation orientation) const {
    ExecuteOptions exec;
    exec.world = world_.get();
    return plan_->execute_fusedmm(orientation, Elision::LocalKernelFusion,
                                  s_, a_, b_, 1, exec);
  }

  void measure_dist(Metrics& out) {
    out.set("dist.plan_build_ms",
            median_seconds([&] {
              g_sink = static_cast<std::uint64_t>(
                  make_plan(kKind, kRanks, kReplication, s_, kR).nnz());
            }, 3, 0.0, 10) * 1e3,
            "ms");
    std::vector<std::vector<PassRun>> reps;
    std::vector<double> a_ms, b_ms;
    for (int rep = 0; rep < kDistReps; ++rep) {
      PassRun a = timed_pass([&] { return run_fused(FusedOrientation::A); });
      PassRun b = timed_pass([&] { return run_fused(FusedOrientation::B); });
      a_ms.push_back(a.wall_s * 1e3);
      b_ms.push_back(b.wall_s * 1e3);
      reps.push_back({std::move(a), std::move(b)});
    }
    ExecuteOptions exec;
    exec.world = world_.get();
    const double spmm_b = median_seconds([&] {
      g_sink = static_cast<std::uint64_t>(
          plan_->execute(Mode::SpMMB, s_, a_, DenseMatrix(kN, kR), exec)
              .dense.rows());
    }, 3, 0.0, 10);
    out.set("dist.execute_ms.fusedmm_a", median(a_ms), "ms");
    out.set("dist.execute_ms.fusedmm_b", median(b_ms), "ms");
    out.set("dist.execute_ms.spmm_b", spmm_b * 1e3, "ms");
    record_op_breakdown(reps, out);
    // The plan runs in Dense mode already, so Dense-mode words are the
    // op's own.
    out.set("dist.comm_words_dense", out.get("dist.comm_words"), "words");
  }

  std::uint64_t seed_;
  CooMatrix s_;
  DenseMatrix a_, b_, ref_a_, ref_b_, out_a_, out_b_;
  std::optional<Plan> plan_;
  std::unique_ptr<SimWorld> world_;
  CommCounts op_comm_;
  std::optional<CommCounts> first_comm_;
};

// ------------------------------------------------------ serve_topk_{batch,single}

/// An AlsServer over R-MAT ratings, with Auto replication, propagation
/// and index codec. One op is one top_k call for kBatch seeded-random
/// users (batch) or one top_k_one call (single).
class ServeTopK final : public Workload {
 public:
  static constexpr Index kUsers = 16384;
  static constexpr Index kItems = 8192;
  static constexpr Index kRatingsPerUser = 16;
  static constexpr Index kRank = 32;
  static constexpr Index kBatch = 128;
  static constexpr int kTopK = 10;
  /// Users per batch op whose answers are re-checked through top_k_one.
  static constexpr int kChecksPerBatch = 2;

  ServeTopK(std::uint64_t seed, bool single)
      : seed_(seed), single_(single), users_rng_(seed ^ 0x05E12E5ULL),
        check_rng_(seed ^ 0xC4EC4ULL) {
    Rng rng(seed);
    ratings_ = rmat(kUsers, kItems, kUsers * kRatingsPerUser, rng);
    ratings_.sort_and_combine();
    rated_.assign(static_cast<std::size_t>(kUsers), {});
    for (Index k = 0; k < ratings_.nnz(); ++k) {
      const auto e = ratings_.entry(k);
      rated_[static_cast<std::size_t>(e.row)].push_back(e.col);
    }
    config_.train.rank = kRank;
    config_.train.cg_iterations = 10;
    config_.train.sweeps = 1;
    config_.train.seed = seed;
    config_.train.kind = kKind;
    config_.train.p = kRanks;
    config_.train.c = kReplication;
    config_.exec.replication = ReplicationMode::Auto;
    config_.exec.propagation = PropagationMode::Auto;
    config_.exec.index_codec = IndexCodec::Auto;
    config_.batch_width = kBatch;
  }

  /// Setup includes the first request, which builds the lazy Plan for
  /// the op's pass width.
  void setup() override {
    server_.reset();
    server_ = std::make_unique<AlsServer>(ratings_, config_);
    if (single_) {
      g_sink = server_->top_k_one(0, kTopK).size();
    } else {
      std::vector<Index> first(static_cast<std::size_t>(kBatch));
      for (Index i = 0; i < kBatch; ++i) first[static_cast<std::size_t>(i)] = i;
      g_sink = server_->top_k(first, kTopK).size();
    }
    setup_plan_builds_ = server_->report().plan_builds;
  }

  void run_op(Tracer*, int, int) override {
    // The server's passes are internal to top_k; the op span has no
    // children until the library records spans itself.
    before_ = server_->report();
    if (single_) {
      users_.assign(1, draw_user());
      answers_.assign(1, server_->top_k_one(users_[0], kTopK));
    } else {
      users_.resize(static_cast<std::size_t>(kBatch));
      for (auto& u : users_) u = draw_user();
      answers_ = server_->top_k(users_, kTopK);
    }
    after_ = server_->report();
  }

  int verify_op() override {
    const int requests = single_ ? 1 : static_cast<int>(kBatch);
    if (after_.batches - before_.batches != 1 ||
        after_.requests - before_.requests != requests ||
        after_.plan_builds != before_.plan_builds ||
        after_.setup_builds != 0 || answers_.size() != users_.size()) {
      std::fprintf(stderr, "serve: op left the resident-plan path\n");
      return 1;
    }
    for (std::size_t j = 0; j < users_.size(); ++j) {
      if (!well_formed(users_[j], answers_[j])) {
        std::fprintf(stderr, "serve: malformed answer for user %lld\n",
                     static_cast<long long>(users_[j]));
        return 1;
      }
    }
    if (single_) {
      // Checked in batches of kBatch held-back answers.
      pending_users_.push_back(users_[0]);
      pending_answers_.push_back(answers_[0]);
      return static_cast<Index>(pending_users_.size()) == kBatch
                 ? check_pending()
                 : 0;
    }
    for (int i = 0; i < kChecksPerBatch; ++i) {
      const auto j = static_cast<std::size_t>(
          check_rng_.next_index(0, static_cast<Index>(users_.size())));
      if (!same(server_->top_k_one(users_[j], kTopK), answers_[j])) {
        std::fprintf(stderr, "serve: batched answer for user %lld != "
                     "top_k_one\n", static_cast<long long>(users_[j]));
        return 1;
      }
    }
    return 0;
  }

  int verify_end() override {
    return pending_users_.empty() ? 0 : check_pending();
  }

  bool uses(Layer) const override { return true; }

  void measure(Layer layer, Metrics& out) override {
    const Index width = pass_width();
    const CommShape shape =
        comm_shape(ratings_, kRanks, kReplication, width, config_.exec);
    switch (layer) {
      case Layer::Local:
        measure_local(ratings_.block(0, kUsers / kRanks, 0, kItems), width,
                      seed_, out);
        return;
      case Layer::Wire: measure_wire(shape, out); return;
      case Layer::Runtime: measure_runtime(shape, out); return;
      case Layer::Collectives: measure_collectives(shape, out); return;
      case Layer::Dist: measure_dist(out); return;
      case Layer::Apps: measure_apps(out); return;
    }
  }

 private:
  Index pass_width() const { return single_ ? 1 : kBatch; }

  Index draw_user() { return users_rng_.next_index(0, kUsers); }

  static bool same(const std::vector<Recommendation>& x,
                   const std::vector<Recommendation>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](const Recommendation& a, const Recommendation& b) {
                        return a.item == b.item && a.score == b.score;
                      });
  }

  /// k answers, scores non-increasing, no item the user already rated.
  bool well_formed(Index user, const std::vector<Recommendation>& recs) const {
    const auto& seen = rated_[static_cast<std::size_t>(user)];
    if (static_cast<int>(recs.size()) != kTopK) return false;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (std::binary_search(seen.begin(), seen.end(), recs[i].item)) {
        return false;
      }
      if (i > 0 && recs[i].score > recs[i - 1].score) return false;
    }
    return true;
  }

  /// The single-user answers held back so far, re-served in one batched
  /// top_k call; returns how many disagree.
  int check_pending() {
    const auto batched = server_->top_k(pending_users_, kTopK);
    int bad = 0;
    for (std::size_t j = 0; j < pending_users_.size(); ++j) {
      if (!same(batched[j], pending_answers_[j])) {
        std::fprintf(stderr, "serve: top_k_one answer for user %lld != "
                     "batched\n", static_cast<long long>(pending_users_[j]));
        ++bad;
      }
    }
    pending_users_.clear();
    pending_answers_.clear();
    return bad;
  }

  /// The padded ratings the server plans against (its rows start in
  /// original order: the server never reshards here).
  CooMatrix padded_ratings(Index width) const {
    return pad_problem(kKind, kRanks, kReplication, ratings_,
                       DenseMatrix(kUsers, width), DenseMatrix(kItems, width))
        .s;
  }

  ExecuteOptions exec_options(SimWorld& world) const {
    ExecuteOptions exec;
    exec.world = &world;
    exec.wire_precision = config_.exec.wire_precision;
    exec.index_codec = config_.exec.index_codec;
    return exec;
  }

  void measure_dist(Metrics& out) {
    const Index w = pass_width();
    const CooMatrix s = padded_ratings(w);
    out.set("dist.plan_build_ms",
            median_seconds([&] {
              g_sink = static_cast<std::uint64_t>(
                  make_plan(kKind, kRanks, kReplication, s, w, config_.exec)
                      .nnz());
            }, 3, 0.0, 10) * 1e3,
            "ms");
    const Plan plan = make_plan(kKind, kRanks, kReplication, s, w,
                                config_.exec);
    SimWorld world(kRanks);
    const ExecuteOptions exec = exec_options(world);
    Rng rng(seed_ + 3);
    const DenseMatrix a = random_dense(s.rows(), w, rng);
    const DenseMatrix b = random_dense(s.cols(), w, rng);
    const auto spmm_b = [&](const Plan& on) {
      return on.execute(Mode::SpMMB, s, a, DenseMatrix(s.cols(), w), exec);
    };
    std::vector<std::vector<PassRun>> reps;
    std::vector<double> ms;
    g_sink = spmm_b(plan).dense.rows();  // warm-up
    for (int rep = 0; rep < kDistReps; ++rep) {
      PassRun run = timed_pass([&] { return spmm_b(plan); });
      ms.push_back(run.wall_s * 1e3);
      reps.push_back({});
      reps.back().push_back(std::move(run));
    }
    out.set("dist.execute_ms.spmm_b", median(ms), "ms");
    for (const auto orientation : {FusedOrientation::A, FusedOrientation::B}) {
      const double sec = median_seconds([&] {
        g_sink = static_cast<std::uint64_t>(
            plan.execute_fusedmm(orientation, Elision::LocalKernelFusion, s,
                                 a, b, 1, exec)
                .output.rows());
      }, 3, 0.0, 10);
      out.set(orientation == FusedOrientation::A
                  ? "dist.execute_ms.fusedmm_a"
                  : "dist.execute_ms.fusedmm_b",
              sec * 1e3, "ms");
    }
    record_op_breakdown(reps, out);
    const Plan dense = make_plan(kKind, kRanks, kReplication, s, w);
    out.set("dist.comm_words_dense",
            static_cast<double>(pass_comm(spmm_b(dense).stats).words),
            "words");
  }

  void measure_apps(Metrics& out) {
    const auto t0 = Clock::now();
    AlsConfig train = config_.train;
    const AlsResult trained = run_als(padded_ratings(train.rank), train);
    out.set("apps.train_s", seconds_between(t0, Clock::now()), "s");
    g_sink = static_cast<std::uint64_t>(trained.a.rows());

    // Wall time of the request minus a Plan::execute of the same width
    // on the same configuration: the serving layer's own work.
    const Index w = pass_width();
    const CooMatrix s = padded_ratings(w);
    const Plan plan = make_plan(kKind, kRanks, kReplication, s, w,
                                config_.exec);
    SimWorld world(kRanks);
    const ExecuteOptions exec = exec_options(world);
    Rng rng(seed_ + 4);
    const DenseMatrix a = random_dense(s.rows(), w, rng);
    const double execute = median_seconds([&] {
      g_sink = static_cast<std::uint64_t>(
          plan.execute(Mode::SpMMB, s, a, DenseMatrix(s.cols(), w), exec)
              .dense.rows());
    }, kDistReps, 0.0, 20);
    std::vector<Index> users(static_cast<std::size_t>(w));
    const ServeReport before = server_->report();
    const double request = median_seconds([&] {
      for (auto& u : users) u = draw_user();
      g_sink = single_ ? server_->top_k_one(users[0], kTopK).size()
                       : server_->top_k(users, kTopK).size();
    }, kDistReps, 0.0, 20);
    const ServeReport after = server_->report();
    out.set("apps.self_ms", (request - execute) * 1e3, "ms");
    out.set("apps.batch_fill",
            static_cast<double>(after.requests - before.requests) /
                static_cast<double>((after.batches - before.batches) * kBatch),
            "ratio");
    out.set("apps.plan_builds", setup_plan_builds_, "count");
  }

  std::uint64_t seed_;
  bool single_;
  CooMatrix ratings_;
  std::vector<std::vector<Index>> rated_;
  AlsServerConfig config_;
  std::unique_ptr<AlsServer> server_;
  Rng users_rng_;
  Rng check_rng_;
  std::vector<Index> users_;
  std::vector<std::vector<Recommendation>> answers_;
  ServeReport before_, after_;
  /// Plans the server built by the end of setup (later top_k_one checks
  /// build one more, for width 1).
  int setup_plan_builds_ = 0;
  std::vector<Index> pending_users_;
  std::vector<std::vector<Recommendation>> pending_answers_;
};

// --------------------------------------------------------- kernels_rmat_t4

/// The pooled shared-memory path: spmm_a + spmm_b + masked_dot_products
/// + fusedmm_a on a 4-thread pool, checked against the serial kernels.
class KernelsRmatT4 final : public Workload {
 public:
  static constexpr Index kN = 65536;
  static constexpr Index kNnzPerRow = 16;
  static constexpr Index kR = 128;

  explicit KernelsRmatT4(std::uint64_t seed) : seed_(seed) {
    Rng rng(seed);
    coo_ = rmat(kN, kN, kN * kNnzPerRow, rng);
    coo_.sort_and_combine();
    a_ = random_dense(kN, kR, rng);
    b_ = random_dense(kN, kR, rng);
    const CsrMatrix csr = coo_to_csr(coo_);
    ref_spmm_a_ = DenseMatrix(kN, kR);
    ref_spmm_b_ = DenseMatrix(kN, kR);
    ref_fused_ = DenseMatrix(kN, kR);
    ref_dots_.assign(static_cast<std::size_t>(csr.nnz()), Scalar{0});
    ref_flops_ = spmm_a(csr, b_, ref_spmm_a_) + spmm_b(csr, a_, ref_spmm_b_) +
                 masked_dot_products(csr, a_, b_, ref_dots_) +
                 fusedmm_a(csr, a_, b_, ref_fused_);
    out_spmm_a_ = DenseMatrix(kN, kR);
    out_spmm_b_ = DenseMatrix(kN, kR);
    out_fused_ = DenseMatrix(kN, kR);
    out_dots_.assign(ref_dots_.size(), Scalar{0});
  }

  void setup() override {
    pool_.reset();
    csr_ = coo_to_csr(coo_);
    pool_ = std::make_unique<ThreadPool>(kPoolThreads);
  }

  void prepare() override {
    out_spmm_a_.fill(0);
    out_spmm_b_.fill(0);
    out_fused_.fill(0);
    std::fill(out_dots_.begin(), out_dots_.end(), Scalar{0});
  }

  void run_op(Tracer* tracer, int root, int op) override {
    ThreadPool* pool = pool_.get();
    const auto kernel = [&](const char* name, const auto& call) {
      const int span = tracer != nullptr ? tracer->open(name, root, op) : -1;
      op_flops_ += call();
      if (tracer != nullptr) tracer->close(span);
    };
    op_flops_ = 0;
    kernel("spmm_a", [&] { return spmm_a(csr_, b_, out_spmm_a_, pool); });
    kernel("spmm_b", [&] { return spmm_b(csr_, a_, out_spmm_b_, pool); });
    kernel("masked_dot_products", [&] {
      return masked_dot_products(csr_, a_, b_, out_dots_, pool);
    });
    kernel("fusedmm_a",
           [&] { return fusedmm_a(csr_, a_, b_, out_fused_, pool); });
  }

  int verify_op() override {
    const bool ok = op_flops_ == ref_flops_ &&
                    close_to(out_spmm_a_.data(), ref_spmm_a_.data(), 1e-10) &&
                    close_to(out_spmm_b_.data(), ref_spmm_b_.data(), 1e-10) &&
                    close_to(out_dots_, ref_dots_, 1e-10) &&
                    close_to(out_fused_.data(), ref_fused_.data(), 1e-10);
    if (!ok) std::fprintf(stderr, "kernels_rmat_t4: pooled != serial\n");
    return ok ? 0 : 1;
  }

  std::optional<std::uint64_t> flops() const override { return op_flops_; }

  bool uses(Layer layer) const override { return layer == Layer::Local; }

  void measure(Layer layer, Metrics& out) override {
    if (layer != Layer::Local) {
      throw std::logic_error("kernels_rmat_t4 only uses the local layer");
    }
    measure_local(coo_, kR, seed_, out);
  }

 private:
  std::uint64_t seed_;
  CooMatrix coo_;
  CsrMatrix csr_;
  std::unique_ptr<ThreadPool> pool_;
  DenseMatrix a_, b_;
  DenseMatrix ref_spmm_a_, ref_spmm_b_, ref_fused_;
  std::vector<Scalar> ref_dots_;
  std::uint64_t ref_flops_ = 0;
  DenseMatrix out_spmm_a_, out_spmm_b_, out_fused_;
  std::vector<Scalar> out_dots_;
  std::uint64_t op_flops_ = 0;
};

} // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "als_fused_er") return std::make_unique<AlsFusedEr>(seed);
  if (name == "serve_topk_batch") {
    return std::make_unique<ServeTopK>(seed, false);
  }
  if (name == "serve_topk_single") {
    return std::make_unique<ServeTopK>(seed, true);
  }
  if (name == "kernels_rmat_t4") return std::make_unique<KernelsRmatT4>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

} // namespace perfbench
