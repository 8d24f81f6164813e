/// dsk_perfbench: one closed-loop workload, measured end to end or
/// traced layer by layer.
///
///   dsk_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                 [--trace-out <path>]
///
/// The last line of standard output is one JSON object: correct,
/// attempted, failed, metrics (the end-to-end metrics untraced, the
/// per-layer metrics traced) and info (sample counts, exact traffic,
/// machine description, and in a traced run the premise checks and the
/// per-span self times). Exits 1 when any op fails or any check
/// mismatches, 2 on bad arguments.

#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-ups per run: at least 3, and more (up to 11) while they have
/// taken under a second in total, so a cheap set-up's median is steady.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 11;
constexpr double kSetupBudgetS = 1.0;
/// The first executes run 2-3x slower than steady state.
constexpr int kWarmupOps = 3;
/// Enough samples that 10 fall beyond the 90th percentile.
constexpr int kMinSamples = 100;
/// Wall-clock cap on the op loop, from process start, so a run on a
/// slower machine still ends well inside its time limit.
constexpr double kMaxLoopWallS = 140.0;
constexpr double kMaxTracedLoopWallS = 100.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dsk_perfbench: %s\nusage: dsk_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || args.seconds <= 0) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

/// The layer a traced run borrows from another workload when its own
/// ops bypass it: the serving workload for apps, the FusedMM workload
/// for the rest.
std::string owner_of(Layer layer, const std::string& workload,
                     const Workload& w) {
  if (w.uses(layer)) return workload;
  return layer == Layer::Apps ? "serve_topk_batch" : "als_fused_er";
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Local: return "local";
    case Layer::Wire: return "wire";
    case Layer::Runtime: return "runtime";
    case Layer::Collectives: return "collectives";
    case Layer::Dist: return "dist";
    case Layer::Apps: return "apps";
  }
  return "?";
}

int run(const Args& args) {
  const auto start = Clock::now();
  auto workload = make_workload(args.workload, args.seed);

  std::vector<double> setups;
  double setup_total = 0;
  while (setups.size() < kMinSetupReps ||
         (setup_total < kSetupBudgetS && setups.size() < kMaxSetupReps)) {
    const auto t0 = Clock::now();
    workload->setup();
    setups.push_back(seconds_between(t0, Clock::now()));
    setup_total += setups.back();
  }

  int attempted = 0, failed = 0;
  const auto attempt = [&](Tracer* tracer, int root, int op) {
    ++attempted;
    try {
      workload->run_op(tracer, root, op);
      return true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %d threw: %s\n", op, e.what());
      ++failed;
      return false;
    }
  };
  for (int i = 0; i < kWarmupOps; ++i) {
    workload->prepare();
    if (attempt(nullptr, -1, -1)) failed += workload->verify_op();
  }

  // Closed loop: the next op starts only after the previous one has
  // completed and been verified; only the op itself is timed.
  Tracer tracer;
  std::vector<double> untraced_ms, traced_ms;
  double timed_s = 0;
  int op = 0;
  const double cap = args.trace ? kMaxTracedLoopWallS : kMaxLoopWallS;
  std::optional<CommCounts> comm;
  while ((timed_s < args.seconds || op < kMinSamples) &&
         seconds_between(start, Clock::now()) < cap) {
    workload->prepare();
    const bool traced = args.trace && op % 2 == 1;
    const int root = traced ? tracer.open("op", -1, op) : -1;
    const auto t0 = Clock::now();
    const bool ran = attempt(traced ? &tracer : nullptr, root, op);
    const double dt = seconds_between(t0, Clock::now());
    if (traced) tracer.close(root);
    timed_s += dt;
    if (ran) {
      (traced ? traced_ms : untraced_ms).push_back(dt * 1e3);
      failed += workload->verify_op();
      if (!comm) comm = workload->comm();
    }
    ++op;
  }
  failed += workload->verify_end();
  const int samples = static_cast<int>(untraced_ms.size() + traced_ms.size());
  if (untraced_ms.empty()) throw std::runtime_error("no op completed");

  Metrics metrics;
  std::string info_extra;
  if (!args.trace) {
    metrics.set("setup_s", median(setups), "s");
    metrics.set("ops_per_s", (samples - failed) / timed_s, "1/s");
    metrics.set("latency_ms_p50", quantile(untraced_ms, 0.5), "ms");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    // Recorded beside the metrics: on a VM whose neighbours steal CPU
    // time, the tail tracks the stolen share more than the program.
    info_extra += ", \"latency_ms_p90\": " +
                  json_number(quantile(untraced_ms, 0.9));
  } else {
    metrics.set("trace.overhead_ratio", median(traced_ms) / median(untraced_ms),
                "ratio");
    metrics.set("trace.op_self_ms", tracer.median_root_self_ms(), "ms");

    std::map<std::string, std::unique_ptr<Workload>> borrowed;
    std::string owners;
    for (const Layer layer : {Layer::Local, Layer::Wire, Layer::Runtime,
                              Layer::Collectives, Layer::Dist, Layer::Apps}) {
      const std::string owner = owner_of(layer, args.workload, *workload);
      Workload* w = workload.get();
      if (owner != args.workload) {
        auto& slot = borrowed[owner];
        if (!slot) {
          slot = make_workload(owner, args.seed);
          slot->setup();
          for (int i = 0; i < kWarmupOps; ++i) {
            slot->prepare();
            slot->run_op(nullptr, -1, -1);
          }
        }
        w = slot.get();
      }
      w->measure(layer, metrics);
      owners += std::string(owners.empty() ? "" : ", ") +
                json_string(layer_name(layer)) + ": " + json_string(owner);
    }

    // The premises of the layer -> end-to-end map, each checked where
    // this run measured the shapes it is about.
    std::vector<std::pair<std::string, bool>> premises;
    if (owner_of(Layer::Dist, args.workload, *workload) == "als_fused_er") {
      const double excess = metrics.get("dist.execute_ms.fusedmm_b") -
                            metrics.get("dist.execute_ms.fusedmm_a");
      const double ratio = excess / metrics.get("dist.plan_build_ms");
      info_extra += ", \"fusedmm_b_excess_over_plan_build\": " +
                    json_number(ratio);
      // The excess is the plan rebuild plus transposing S, so "about"
      // allows up to 3x.
      premises.emplace_back("fusedmm_b_exceeds_a_by_about_plan_build",
                            ratio > 0.5 && ratio < 3.0);
    } else {
      premises.emplace_back(
          "auto_comm_words_below_dense",
          metrics.get("dist.comm_words") < metrics.get("dist.comm_words_dense"));
    }
    if (args.workload == "kernels_rmat_t4") {
      premises.emplace_back("spmm_b_t4_slower_than_t1",
                            metrics.get("local.spmm_b.gflops_t4") <
                                metrics.get("local.spmm_b.gflops_t1"));
    }
    info_extra += ", \"premises\": {";
    for (std::size_t i = 0; i < premises.size(); ++i) {
      info_extra += (i > 0 ? ", " : "") + json_string(premises[i].first) +
                    ": " + (premises[i].second ? "true" : "false");
    }
    info_extra += "}, \"layer_owner\": {" + owners + "}";
    info_extra += ", \"median_self_ms\": {";
    const auto self = tracer.median_self_ms();
    for (std::size_t i = 0; i < self.size(); ++i) {
      info_extra += (i > 0 ? ", " : "") + json_string(self[i].first) + ": " +
                    json_number(self[i].second);
    }
    info_extra += "}";
    if (!args.trace_out.empty() && !tracer.write(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  std::string info = "{\"workload\": " + json_string(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"samples\": " + std::to_string(samples) +
                     ", \"untraced_samples\": " +
                     std::to_string(untraced_ms.size()) +
                     ", \"warmup_ops\": " + std::to_string(kWarmupOps) +
                     ", \"setup_samples\": " + std::to_string(setups.size()) +
                     ", \"timed_s\": " + json_number(timed_s) +
                     ", \"error_rate\": " +
                     json_number(static_cast<double>(failed) / attempted);
  if (comm) {
    info += ", \"comm_words\": " + std::to_string(comm->words) +
            ", \"comm_messages\": " + std::to_string(comm->messages);
  }
  if (const auto flops = workload->flops()) {
    info += ", \"flops_per_op\": " + std::to_string(*flops);
  }
  info += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
          ", \"cpu_model\": " + json_string(cpu_model()) +
          ", \"l2_bytes\": " + std::to_string(sysconf(_SC_LEVEL2_CACHE_SIZE)) +
          ", \"l3_bytes\": " + std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE)) +
          info_extra + "}";

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s, \"info\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.json().c_str(), info.c_str());
  return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsk_perfbench: %s\n", e.what());
    return 1;
  }
}
