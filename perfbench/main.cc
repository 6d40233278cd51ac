// Fresh-decision benchmark: command-line entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Prints a metric table and informational lines, then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs the
// traced pass and reports the per-layer metrics, writing a Chrome trace of
// the run to the --out-dir directory. See README.md.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "src/obs/span.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Metric names in output order; they match BENCHMARK.json.
constexpr const char* kEndToEnd[] = {
    "decisions_per_s", "setup_p95_ms",          "admit_p50_ms",
    "admit_p90_ms",    "reject_p90_ms",         "admission_probability",
    "peak_rss_mb",     "setup_s",
};

constexpr const char* kPerLayer[] = {
    "server.round_ms_p50",
    "server.queue_wait_ms_p50",
    "server.requests_per_round",
    "server.prewarm_points_per_setup",
    "server.prewarm_hit_ratio",
    "server.evictions_per_setup",
    "server.vs_serial_ratio",
    "cac.request_ms_p50.exact_admit",
    "cac.request_ms_p50.exact_reject",
    "cac.tier_share.step1_reject",
    "cac.tier_share.floor_reject",
    "cac.tier_share.screen_admit",
    "cac.tier_share.exact_admit",
    "cac.tier_share.exact_reject",
    "cac.tier_share.memo_hit",
    "cac.probe_evals_per_setup",
    "cac.screen_cert_ratio",
    "cac.session_hit_ratio.port",
    "cac.session_hit_ratio.suffix",
    "cac.session_hit_ratio.decision",
    "cac.evictions_per_setup",
    "cac.release_us_p50",
    "analyzer.send_prefix_ms_p50",
    "analyzer.complete_cold_ms_p50",
    "analyzer.complete_memo_ms_p50",
    "analyzer.fresh_vs_memo_ratio",
    "analyzer.active_set_mean",
    "servers.mac.analyze_us_p50",
    "servers.conversion.analyze_us_p50",
    "servers.constant.analyze_us_p50",
    "servers.fifo_port.bound_us_p50",
    "traffic.uplink_sample_ns",
    "traffic.uplink_breakpoints",
    "host.parallel_scaling",
    "trace.overhead_ratio",
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_u03|mixed_sat --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               msg);
  return 2;
}

// Peak resident set size of this process (VmHWM), in MB.
std::optional<double> peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nullopt;
}

// Host calibration: the same independent spin work on one thread, then on
// two at once. Returns 2 * t(1 thread) / t(2 threads), the effective cores
// two threads get on this host (2.0 on two idle cores). Median of three.
double parallel_scaling() {
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&sink] {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  Samples ratios;
  for (int rep = 0; rep < 3; ++rep) {
    std::int64_t t0 = now_ns();
    spin();
    const double one = double(now_ns() - t0);
    t0 = now_ns();
    std::thread other(spin);
    spin();
    other.join();
    const double two = double(now_ns() - t0);
    ratios.add(2.0 * one / two);
  }
  return *ratios.median();
}

std::string number(std::optional<double> v) {
  if (!v.has_value()) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", *v);
  return buf;
}

const Metric* find(const Report& report, const char* name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

int run(const Options& opt) {
  Report report;
  {
    hetnet::obs::ScopedRecording recording(opt.trace);
    run_paper_stream(opt, report);
    if (opt.trace && !opt.out_dir.empty()) {
      const std::string path = opt.out_dir + "/trace-" + opt.workload +
                               "-seed" + std::to_string(opt.seed) + ".json";
      std::ofstream out(path);
      recording.recorder().write_chrome_trace(out);
      report.notes.push_back("chrome trace: " + path + " (" +
                             std::to_string(
                                 recording.recorder().event_count()) +
                             " events, " +
                             std::to_string(
                                 recording.recorder().dropped_count()) +
                             " dropped)");
    }
  }
  if (opt.trace) {
    report.add("host.parallel_scaling", parallel_scaling(), "ratio");
  } else {
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
  }

  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& f : report.failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("# %-36s %22s %-6s %8s\n", "metric", "value", "unit", "n");
  for (const Metric& m : report.metrics) {
    std::printf("# %-36s %22s %-6s %8zu\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.n);
  }

  // The summary line admits only numbers. A metric without a value (null in
  // the table above: a percentile without ten samples beyond it, or a ratio
  // over nothing) means the workload is too small for its metrics, and the
  // run fails without a summary line.
  std::string metrics;
  bool missing = false;
  const auto emit = [&](const char* name) {
    const Metric* m = find(report, name);
    if (m == nullptr) {
      std::fprintf(stderr, "perfbench: metric %s not produced\n", name);
      std::exit(1);
    }
    if (!m->value.has_value()) {
      std::fprintf(stderr, "perfbench: metric %s has no value\n", name);
      missing = true;
      return;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m->name + "\": {\"value\": " + number(m->value) +
               ", \"unit\": \"" + m->unit + "\"}";
  };
  if (opt.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  if (missing) return 1;
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return perfbench::usage("missing value");
    const std::string value = argv[++i];
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value != "0";
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      return perfbench::usage(("unknown flag " + key).c_str());
    }
  }
  if (!have_workload ||
      (opt.workload != "paper_u03" && opt.workload != "mixed_sat")) {
    return perfbench::usage("unknown workload");
  }
  return perfbench::run(opt);
}
