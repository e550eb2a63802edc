// perfbench: the wall-clock benchmark of rsmpi.
//
//   perfbench --workload <nas_kernels|latency_p256|svc_stream> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//             [--source-id <id>]
//
// --trace 0 sets the workload up five times (setup_s is their median)
// and times its ops for --seconds; it prints the end-to-end metrics.
// --trace 1 splits --seconds between an untraced and a traced phase,
// runs every layer probe, writes the traced phase's spans as Chrome
// trace-event JSON, and prints the per-layer metrics.  Human-readable
// lines go to stderr; the last stdout line is the result object.  The
// exit code is non-zero when any op's output differs from the serial
// oracle or the run aborts.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "nas/classes.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

constexpr const char* kWorkloads[] = {"nas_kernels", "latency_p256",
                                      "svc_stream"};
constexpr int kSetupReps = 5;
/// Traced-phase ops written to the Chrome trace file (self times use all).
constexpr std::uint32_t kTraceFileOps = 50;

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// "L1d=48K L1i=32K L2=2048K L3=..." from cpu0's cache directory.
std::string cache_sizes() {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string size = read_line(dir + "size");
    if (size.empty()) break;
    std::string type = read_line(dir + "type");
    const char* suffix = type == "Data"          ? "d"
                         : type == "Instruction" ? "i"
                                                 : "";
    out += (out.empty() ? "" : " ") + std::string("L") +
           read_line(dir + "level") + suffix + "=" + size;
  }
  return out.empty() ? "unknown" : out;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no NaN or infinity
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

/// span_names[i] names value i of the SpanName enum in the workload's
/// source file.
RunConfig workload_config(const std::string& name) {
  RunConfig c;
  c.model.compute_scale = 0.0;  // the virtual clock charges communication only
  if (name == "nas_kernels") {
    c.p = 8;
    c.workers = 2;
    c.local_width = 2;
    c.warmup_ops = 3;
    c.span_names = {"op", "rs.reduce.sorted", "rs.reduce.counts",
                    "nas.fill_grid", "nas.zran3", "nas.apply_charges"};
  } else if (name == "latency_p256") {
    c.p = 256;
    c.workers = 4;
    c.model = rsmpi::mprt::CostModel::cluster_of_smp(8);
    c.model.compute_scale = 0.0;
    c.warmup_ops = 20;
    c.span_names = {"op", "rs.reduce.mink", "rs.xscan.sum",
                    "rs.reduce_async.sorted"};
  } else if (name == "svc_stream") {
    c.p = 16;
    c.workers = 4;
    c.warmup_ops = 16;
    c.span_names = {"op", "svc.stage", "svc.step_epoch"};
  }
  return c;
}

namespace {

/// Every span name any workload records, in reporting order.
const std::vector<std::string>& all_span_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const char* w : kWorkloads) {
      for (const auto& s : workload_config(w).span_names) {
        if (std::find(v.begin(), v.end(), s) == v.end()) v.push_back(s);
      }
    }
    return v;
  }();
  return names;
}

/// Sum of self time per span name over all ranks and ops of the traced
/// phase, divided by ops x ranks.  A span's self time is its duration
/// minus that of its child spans.
std::map<std::string, double> self_us_per_op(const RunConfig& cfg,
                                             const Phase& traced) {
  std::vector<double> self_ns(cfg.span_names.size(), 0.0);
  for (const auto& spans : traced.spans) {
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self_ns[static_cast<std::size_t>(spans[i].name)] +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) -
          child_ns[i];
    }
  }
  std::map<std::string, double> out;
  const double denom = static_cast<double>(traced.ops) *
                       static_cast<double>(traced.spans.size());
  for (std::size_t i = 0; i < self_ns.size(); ++i) {
    out[cfg.span_names[i]] = denom > 0 ? self_ns[i] / denom / 1e3 : 0.0;
  }
  return out;
}

/// Chrome trace-event JSON of the first traced ops, one track per rank.
void write_chrome_trace(const std::string& path, const RunConfig& cfg,
                        const Phase& traced) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (std::size_t r = 0; r < traced.spans.size(); ++r) {
    for (const Span& s : traced.spans[r]) {
      if (s.op >= kTraceFileOps) break;
      out << (first ? "" : ",\n") << "{\"name\": \""
          << cfg.span_names[static_cast<std::size_t>(s.name)]
          << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " << r
          << ", \"ts\": " << num(static_cast<double>(s.start_ns) / 1e3)
          << ", \"dur\": "
          << num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          << ", \"args\": {\"op\": " << s.op << ", \"parent\": \""
          << (s.parent >= 0 ? "op" : "") << "\"}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <nas_kernels|latency_p256|"
               "svc_stream> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--source-id <id>]\n");
}

bool parse(int argc, char** argv, Options& opt) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0 || !kv.count("workload")) return false;
  opt.workload = kv["workload"];
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!known) return false;
  try {
    if (kv.count("seed")) opt.seed = std::stoull(kv["seed"]);
    if (kv.count("seconds")) opt.seconds = std::stod(kv["seconds"]);
    if (kv.count("trace")) opt.trace = std::stoi(kv["trace"]) != 0;
  } catch (const std::exception&) {
    return false;
  }
  if (kv.count("out-dir")) opt.out_dir = kv["out-dir"];
  if (kv.count("source-id")) opt.source_id = kv["source-id"];
  return opt.seconds > 0;
}

}  // namespace

int main_impl(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  // Program knobs that would change what is measured come from here only.
  for (const char* knob :
       {"RSMPI_WORKERS", "RSMPI_SCHEDULE", "RSMPI_SEGMENT_BYTES",
        "RSMPI_LOCAL_GRAIN", "RSMPI_LOCAL_CHUNKED", "RSMPI_STACK_BYTES"}) {
    ::unsetenv(knob);
  }

  const RunConfig cfg = workload_config(opt.workload);
  const int cores = nproc();
  const int need = std::max(cfg.workers * cfg.local_width,
                            opt.trace ? probe_thread_need() : 1);
  if (need > cores) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d OS threads (workers x local width) "
                 "but only %d CPUs are available; refusing to run\n",
                 opt.workload.c_str(), need, cores);
    return 3;
  }
  std::filesystem::create_directories(opt.out_dir);

  ::setenv("RSMPI_LOCAL_THREADS", std::to_string(cfg.local_width).c_str(), 1);
  const int reps = opt.trace ? 1 : kSetupReps;
  WorkloadOutput w;
  if (opt.workload == "nas_kernels") {
    w = run_nas_kernels(opt, reps);
  } else if (opt.workload == "latency_p256") {
    w = run_latency_p256(opt, reps);
  } else {
    w = run_svc_stream(opt, reps);
  }
  ::setenv("RSMPI_LOCAL_THREADS", "1", 1);
  const DriveResult& run = w.run;
  const Phase& ph = run.plain;

  // Correctness: ops whose outputs differ from the oracle, plus, after an
  // abort, the ops the phase would still have run.
  std::uint64_t attempted = ph.ops + (run.traced ? run.traced->ops : 0);
  std::uint64_t failed =
      ph.failed_ops + (run.traced ? run.traced->failed_ops : 0);
  if (run.aborted) {
    const std::uint64_t done = ph.op_us.size();
    const double p50 = median(ph.op_us);
    const double expected = p50 > 0 ? opt.seconds * 1e6 / p50 : 0.0;
    attempted = std::max<std::uint64_t>(
        done + 1, static_cast<std::uint64_t>(expected));
    failed = attempted - done;
    std::fprintf(stderr, "perfbench: run aborted: %s\n",
                 run.abort_what.c_str());
  }
  const bool correct =
      !run.aborted && run.warmup_ok && failed == 0 && attempted > 0;
  const double ops = static_cast<double>(std::max<std::uint64_t>(ph.ops, 1));
  const double p50 = median(ph.op_us);
  // Per-block tail and throughput, reported as medians over the blocks.
  const auto blocks = blocks_of(ph.op_us.size());
  std::vector<double> block_tail, block_pct, block_rate;
  for (const auto& [lo, hi] : blocks) {
    const auto first = ph.op_us.begin();
    const Tail t = tail_of({first + static_cast<std::ptrdiff_t>(lo),
                            first + static_cast<std::ptrdiff_t>(hi)});
    block_tail.push_back(t.value);
    block_pct.push_back(t.percentile);
    if (hi > lo) {
      const double t0 = lo == 0 ? 0.0 : ph.op_end_s[lo - 1];
      block_rate.push_back(w.cfg.elems_per_op * static_cast<double>(hi - lo) /
                           std::max(ph.op_end_s[hi - 1] - t0, 1e-9));
    }
  }
  const Tail tail{median(block_tail), median(block_pct)};

  Metrics e2e;
  e2e["setup_s"] = {median(run.setup_s), "s"};
  e2e["elems_per_s"] = {median(block_rate), "elements/s"};
  e2e["op_wall_us_p50"] = {p50, "us"};
  e2e["op_wall_us_tail"] = {tail.value, "us"};
  e2e["cpu_ms_per_op"] = {ph.cpu_s * 1e3 / ops, "ms"};
  e2e["peak_rss_mb"] = {run.peak_rss_mb, "MiB"};

  // --- per-layer -----------------------------------------------------------
  Metrics layer;
  const auto per_op = [&](std::uint64_t v) {
    return static_cast<double>(v) / ops;
  };
  const bool is_svc = opt.workload == "svc_stream";
  layer["model_us_per_op"] = {ph.model_s * 1e6 / ops, "us"};
  layer["failed_op_frac"] = {attempted > 0 ? static_cast<double>(failed) /
                                                 static_cast<double>(attempted)
                                           : 1.0,
                             "ratio"};
  layer["mprt.msgs_per_op"] = {per_op(ph.delta.msgs), "count"};
  layer["mprt.bytes_per_op"] = {per_op(ph.delta.bytes), "B"};
  layer["mprt.park_events_per_op"] = {per_op(ph.park_events), "count"};
  layer["mprt.payload_allocs_per_op"] = {per_op(ph.delta.allocs), "count"};
  // Peak-RSS growth after the fixed-work read: memory the run keeps per op.
  layer["mprt.rss_growth_kib_per_op"] = {
      ph.ops > run.rss_ops ? (run.end_rss_mb - run.peak_rss_mb) * 1024.0 /
                                 static_cast<double>(ph.ops - run.rss_ops)
                           : 0.0,
      "KiB"};
  layer["coll.autotune_per_op"] = {per_op(ph.delta.autotune), "count"};
  layer["coll.intra_bytes_per_op"] = {per_op(ph.delta.intra), "B"};
  layer["coll.inter_bytes_per_op"] = {per_op(ph.delta.inter), "B"};
  layer["par.chunks_per_op"] = {per_op(ph.delta.chunks), "count"};
  layer["par.steals_per_op"] = {per_op(ph.delta.steals), "count"};
  layer["svc.warm_autotune"] = {
      is_svc ? static_cast<double>(ph.delta.autotune) : 0.0, "count"};
  layer["svc.epoch_model_us_p99"] = {0.0, "us"};
  layer["svc.degraded_streams"] = {0.0, "count"};
  for (const auto& [name, m] : w.layer) layer[name] = m;
  std::string tail_label = "p" + num(tail.percentile);
  std::string trace_path;
  if (opt.trace) {
    layer["svc.shard_load_max_over_mean"] = {
        svc_shard_load_max_over_mean(opt.seed), "ratio"};
    const Metrics probes = run_probes(opt.seed);
    const auto probe = [&](const char* name) { return probes.at(name).value; };
    for (const auto& [name, m] : probes) layer[name] = m;

    // Σ(count per op x probe unit cost) over the wall p50 of one op.  A
    // rate in GB/s is bytes per ns, so bytes / rate is ns.
    double covered_ns = per_op(ph.delta.msgs) * probe("mprt.pingpong_ns");
    if (opt.workload == "nas_kernels") {
      const auto is = rsmpi::nas::is_params(rsmpi::nas::ProblemClass::A);
      const auto mg = rsmpi::nas::mg_params(rsmpi::nas::ProblemClass::A);
      covered_ns += static_cast<double>(is.total_keys) *
                    (probe("rs.accum_ns_per_elem.sorted") +
                     probe("rs.accum_ns_per_elem.counts"));
      covered_ns += static_cast<double>(mg.nx) * mg.ny * mg.nz *
                    probe("rs.accum_ns_per_elem.topbottomk");
      covered_ns += per_op(ph.delta.bytes) / probe("rs.save_gbps.counts") +
                    per_op(ph.delta.bytes) /
                        probe("rs.combine_from_bytes_gbps.counts");
      covered_ns += cfg.p * probe("nas.fill_grid_ms") * 1e6;
    } else if (opt.workload == "latency_p256") {
      // One third of the op's input values feed the MinK reduction.
      covered_ns +=
          w.cfg.elems_per_op / 3.0 * probe("rs.accum_ns_per_elem.mink");
    }
    layer["budget.coverage"] = {covered_ns / (p50 * 1e3), "ratio"};

    std::map<std::string, double> self;
    double traced_p50 = 0.0;
    if (run.traced) {
      self = self_us_per_op(cfg, *run.traced);
      traced_p50 = median(run.traced->op_us);
      trace_path = opt.out_dir + "/trace_" + opt.workload + "_seed" +
                   std::to_string(opt.seed) + ".json";
      write_chrome_trace(trace_path, cfg, *run.traced);
    }
    for (const auto& s : all_span_names()) {
      layer["trace." + s + ".self_us_per_op"] = {
          self.count(s) ? self[s] : 0.0, "us"};
    }
    layer["trace.overhead_pct"] = {
        p50 > 0 ? 100.0 * (traced_p50 - p50) / p50 : 0.0, "%"};
  }

  // --- report --------------------------------------------------------------
  std::fprintf(stderr,
               "== perfbench %s: p=%d on %d fiber workers x local width %d, "
               "seed %llu, %s ==\n",
               opt.workload.c_str(), cfg.p, cfg.workers, cfg.local_width,
               static_cast<unsigned long long>(opt.seed),
               opt.trace ? "traced" : "untraced");
  std::fprintf(stderr,
               "timed ops %llu over %.3f s in %zu blocks; op_wall_us_tail is "
               "the median over blocks of each block's %s (%zu samples in "
               "all); elems_per_s is the median block rate; setup_s is the "
               "median of %zu set-ups\n",
               static_cast<unsigned long long>(ph.ops), ph.wall_s,
               blocks.size(), tail_label.c_str(), ph.op_us.size(),
               run.setup_s.size());
  std::fprintf(stderr, "wall p50 %.1f us vs LogGP model %.1f us per op\n", p50,
               ph.model_s * 1e6 / ops);
  for (const auto* group : {&e2e, &layer}) {
    if (group == &layer && !opt.trace) break;
    for (const auto& [name, m] : *group) {
      std::fprintf(stderr, "  %-44s %16.6g %s\n", name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  if (!trace_path.empty()) {
    std::fprintf(stderr, "spans of the first %u traced ops: %s\n",
                 kTraceFileOps, trace_path.c_str());
  }

  std::ostringstream rec;
  rec << "{\"run_record\": {\"workload\": \"" << opt.workload
      << "\", \"seed\": " << opt.seed << ", \"seconds\": " << num(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"p\": " << cfg.p
      << ", \"fiber_workers\": " << cfg.workers
      << ", \"local_width\": " << cfg.local_width << ", \"nproc\": " << cores
      << ", \"cpu_model\": \"" << json_escape(cpu_model())
      << "\", \"caches\": \"" << json_escape(cache_sizes())
      << "\", \"compiler\": \""
      << json_escape(std::string("g++ ") + __VERSION__)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"source_id\": \"" << json_escape(opt.source_id)
      << "\", \"timed_ops\": " << ph.ops
      << ", \"tail_percentile\": " << num(tail.percentile)
      << ", \"tail_samples\": " << ph.op_us.size()
      << ", \"tail_blocks\": " << blocks.size()
      << ", \"setup_reps\": " << run.setup_s.size()
      << ", \"model_us_per_op\": " << num(ph.model_s * 1e6 / ops)
      << ", \"trace_file\": \"" << json_escape(trace_path) << "\"}}";
  const std::string record = rec.str();
  std::printf("%s\n", record.c_str());
  std::ofstream(opt.out_dir + "/record_" + opt.workload + "_seed" +
                std::to_string(opt.seed) + "_trace" + (opt.trace ? "1" : "0") +
                ".json")
      << record << "\n";

  const Metrics& shown = opt.trace ? layer : e2e;
  std::ostringstream res;
  res << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : shown) {
    res << (first ? "" : ", ") << "\"" << name
        << "\": {\"value\": " << num(m.value) << ", \"unit\": \"" << m.unit
        << "\"}";
    first = false;
  }
  res << "}}";
  std::printf("%s\n", res.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
