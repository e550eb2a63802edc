// The three workloads of the benchmark and the layer probes.  Each
// workload function runs its set-ups and timed phases through
// perfbench::drive and returns the raw measurements; main.cpp turns them
// into metrics.
#pragma once

#include <map>
#include <string>

#include "harness.hpp"

namespace perfbench {

/// One reported figure.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct WorkloadOutput {
  RunConfig cfg;
  DriveResult run;
  /// Workload-specific per-layer figures (e.g. the service's epoch p99).
  Metrics layer;
};

/// NAS IS + MG kernels, class A, p=8 on 2 workers x local width 2.
WorkloadOutput run_nas_kernels(const Options& opt, int setup_reps);
/// MinK reduce + Sum xscan + async Sorted reduce, p=256 on 4 workers.
WorkloadOutput run_latency_p256(const Options& opt, int setup_reps);
/// Four-tenant svc::Service epochs under Zipf keys, p=16 on 4 workers.
WorkloadOutput run_svc_stream(const Options& opt, int setup_reps);

/// Shape of each workload (p, workers, local width), for the thread
/// budget check before anything runs.
RunConfig workload_config(const std::string& name);

/// Ratio of the busiest shard's events to the mean, averaged over the
/// svc_stream workload's generated epochs and streams (an input property).
double svc_shard_load_max_over_mean(std::uint64_t seed);

/// Runs every layer probe; keys are per-layer metric names.  `seed`
/// derives the latency workload's values for the MinK probe.
Metrics run_probes(std::uint64_t seed);

/// Largest workers x local width any probe uses.
int probe_thread_need();

}  // namespace perfbench
