// Large-message schedule sweep for ISSUE 5: modelled critical path of
// every state-allreduce schedule — legacy two-message, whole-state
// butterfly, chunked Rabenseifner, ring reduce-scatter+allgather, and the
// pipelined binomial tree — plus the cost-model autotuner's pick, over
// state sizes from 4 KB to 4 MB at p ∈ {4, 8, 16}.
//
// Every fixed schedule is driven through the public dispatch with
// RSMPI_SCHEDULE pinned (so the bench measures exactly what a user
// forcing that schedule gets); the autotuned row runs with the
// environment clear.  compute_scale = 0 makes the modelled critical path
// machine-independent, so the committed BENCH_largemsg.json doubles as a
// regression baseline: `--check <baseline.json>` re-measures and fails if
// the autotuned critical path regresses more than 5% at any point the
// current mode sweeps.
//
// Emits machine-readable JSON on stdout (committed as BENCH_largemsg.json
// from a full run) and a human summary on stderr.  --smoke sweeps a
// subset of the full grid for CI; every smoke point exists in the full
// baseline, so --smoke --check works against the committed file.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mprt/cost_model.hpp"
#include "mprt/runtime.hpp"
#include "rs/ops/counts.hpp"
#include "rs/state_exchange.hpp"

namespace {

using namespace rsmpi;
namespace ops = rs::ops;
using mprt::Comm;
using rs::detail::Schedule;

mprt::CostModel bench_model() {
  mprt::CostModel model;        // default LogGP: o = 1 us, L = 10 us, 1 GB/s
  model.compute_scale = 0.0;    // deterministic: communication charges only
  model.copy_per_byte_s = 0.25e-9;
  return model;
}

ops::Counts filled_counts(std::size_t buckets, int rank) {
  ops::Counts op(buckets);
  for (int i = 0; i < 512; ++i) {
    op.accum(static_cast<int>((static_cast<std::size_t>(rank) * 7919 + i * 31) %
                              buckets));
  }
  return op;
}

struct ScheduleRow {
  const char* env_name;  // RSMPI_SCHEDULE value, nullptr = autotuned
  const char* json_key;
};

const ScheduleRow kRows[] = {
    {"two_message", "two_message_us"}, {"butterfly", "butterfly_us"},
    {"rabenseifner", "rabenseifner_us"}, {"ring", "ring_us"},
    {"pipelined", "pipelined_us"},     {nullptr, "autotuned_us"},
};
constexpr std::size_t kNumFixed = 5;  // rows before the autotuned one

/// Modelled critical path (seconds) of one allreduce of `buckets` Counts
/// state at `p` ranks, with RSMPI_SCHEDULE pinned to `env_name` (or
/// cleared for the autotuned dispatch).  The env var changes only between
/// runs, never while rank threads are live.
double measure(const char* env_name, int p, std::size_t buckets) {
  if (env_name != nullptr) {
    ::setenv("RSMPI_SCHEDULE", env_name, /*overwrite=*/1);
  } else {
    ::unsetenv("RSMPI_SCHEDULE");
  }
  const ops::Counts prototype(buckets);
  const double t = bench::time_phase(
      p, bench_model(), [&](Comm&) {},
      [&](Comm& comm) {
        auto op = filled_counts(buckets, comm.rank());
        rs::detail::state_allreduce(comm, op, prototype);
      });
  ::unsetenv("RSMPI_SCHEDULE");
  return t;
}

const char* schedule_name(Schedule s) {
  switch (s) {
    case Schedule::kTwoMessage: return "two_message";
    case Schedule::kButterfly: return "butterfly";
    case Schedule::kRabenseifner: return "rabenseifner";
    case Schedule::kRing: return "ring";
    case Schedule::kPipelined: return "pipelined";
    case Schedule::kHierarchical: return "hierarchical";
    case Schedule::kAuto: break;
  }
  return "auto";
}

struct Point {
  int p = 0;
  std::size_t state_bytes = 0;
  double us[6] = {};  // per kRows order, autotuned last
  const char* choice = "auto";
  double best_fixed_us = 0.0;
  double autotuned_vs_best = 0.0;
  double ring_speedup_vs_butterfly = 0.0;
};

Point measure_point(int p, std::size_t state_bytes) {
  Point pt;
  pt.p = p;
  pt.state_bytes = state_bytes;
  const std::size_t buckets = state_bytes / sizeof(long);
  for (std::size_t i = 0; i < std::size(kRows); ++i) {
    pt.us[i] = measure(kRows[i].env_name, p, buckets) * 1e6;
  }
  pt.best_fixed_us = pt.us[0];
  for (std::size_t i = 1; i < kNumFixed; ++i) {
    if (pt.us[i] < pt.best_fixed_us) pt.best_fixed_us = pt.us[i];
  }
  pt.autotuned_vs_best = pt.us[kNumFixed] / pt.best_fixed_us;
  pt.ring_speedup_vs_butterfly = pt.us[1] / pt.us[3];
  pt.choice = schedule_name(rs::detail::choose_allreduce_schedule(
      bench_model(), p, buckets * sizeof(long),
      rs::detail::kDefaultSegmentBytes));
  return pt;
}

// --- baseline check ---------------------------------------------------------

/// Extracts the number following `"key": ` in `line`, or -1 if absent.
double json_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::atof(line.c_str() + pos + needle.size());
}

/// Compares each measured point's autotuned critical path against the
/// committed baseline; returns the number of points regressing > 5%.
int check_against_baseline(const std::vector<Point>& points,
                           const char* baseline_path) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "check: cannot open baseline %s\n", baseline_path);
    return 1;
  }
  struct Base {
    int p;
    std::size_t bytes;
    double autotuned_us;
  };
  std::vector<Base> baseline;
  std::string line;
  while (std::getline(in, line)) {
    const double p = json_field(line, "p");
    const double bytes = json_field(line, "state_bytes");
    const double us = json_field(line, "autotuned_us");
    if (p > 0 && bytes > 0 && us > 0) {
      baseline.push_back({static_cast<int>(p),
                          static_cast<std::size_t>(bytes), us});
    }
  }
  int failures = 0;
  for (const Point& pt : points) {
    const Base* match = nullptr;
    for (const Base& b : baseline) {
      if (b.p == pt.p && b.bytes == pt.state_bytes) match = &b;
    }
    if (match == nullptr) {
      std::fprintf(stderr, "check: no baseline point for p=%d bytes=%zu\n",
                   pt.p, pt.state_bytes);
      ++failures;
      continue;
    }
    const double limit = match->autotuned_us * 1.05;
    if (pt.us[kNumFixed] > limit) {
      std::fprintf(stderr,
                   "check: REGRESSION p=%d bytes=%zu autotuned %.1f us > "
                   "baseline %.1f us * 1.05\n",
                   pt.p, pt.state_bytes, pt.us[kNumFixed],
                   match->autotuned_us);
      ++failures;
    }
  }
  if (failures == 0) {
    std::fprintf(stderr, "check: %zu points within 5%% of baseline\n",
                 points.size());
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    }
  }

  const std::vector<int> procs = smoke ? std::vector<int>{4, 16}
                                       : std::vector<int>{4, 8, 16};
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{4096, 4u << 20}
            : std::vector<std::size_t>{4096, 64u << 10, 512u << 10, 4u << 20};
  const auto model = bench_model();

  std::vector<Point> points;
  std::fprintf(stderr, "== large-message allreduce schedules ==\n");
  std::fprintf(stderr, "%4s %10s %12s %12s %12s %12s %12s %12s  %s\n", "p",
               "bytes", "two_msg", "butterfly", "rabenseif", "ring",
               "pipelined", "autotuned", "choice");
  for (const int p : procs) {
    for (const std::size_t bytes : sizes) {
      const Point pt = measure_point(p, bytes);
      std::fprintf(stderr,
                   "%4d %10zu %12.1f %12.1f %12.1f %12.1f %12.1f %12.1f  %s\n",
                   pt.p, pt.state_bytes, pt.us[0], pt.us[1], pt.us[2],
                   pt.us[3], pt.us[4], pt.us[5], pt.choice);
      points.push_back(pt);
    }
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"micro_largemsg\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"operator\": \"Counts(state_bytes / 8)\",\n");
  std::printf("  \"cost_model\": {\"latency_s\": %g, \"overhead_s\": %g, "
              "\"per_byte_s\": %g, \"copy_per_byte_s\": %g, "
              "\"compute_scale\": %g},\n",
              model.latency_s, model.send_overhead_s, model.per_byte_s,
              model.copy_per_byte_s, model.compute_scale);
  std::printf("  \"segment_bytes\": %zu,\n", rs::detail::kDefaultSegmentBytes);
  std::printf("  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    std::printf("    {\"p\": %d, \"state_bytes\": %zu", pt.p, pt.state_bytes);
    for (std::size_t k = 0; k < std::size(kRows); ++k) {
      std::printf(", \"%s\": %.3f", kRows[k].json_key, pt.us[k]);
    }
    std::printf(", \"autotuned_choice\": \"%s\", \"best_fixed_us\": %.3f, "
                "\"autotuned_vs_best\": %.4f, "
                "\"ring_speedup_vs_butterfly\": %.4f}%s\n",
                pt.choice, pt.best_fixed_us, pt.autotuned_vs_best,
                pt.ring_speedup_vs_butterfly,
                i + 1 < points.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");

  if (baseline_path != nullptr) {
    return check_against_baseline(points, baseline_path) == 0 ? 0 : 1;
  }
  return 0;
}
