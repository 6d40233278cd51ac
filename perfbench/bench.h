// Shared pieces of the fresh-decision benchmark: run options, the report
// every workload fills, output checks, end-to-end accumulation, and the
// traced run's outside-in layer probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "quantile.h"
#include "src/core/analyzer.h"
#include "src/core/cac.h"
#include "src/core/session.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir;  // Chrome traces of traced runs
};

struct Metric {
  std::string name;
  std::optional<double> value;
  std::string unit;
  std::size_t n = 0;  // samples behind the value (0 for plain ratios)
};

// Everything one run reports. Workloads append metrics in a fixed order;
// main() prints them and the summary line.
struct Report {
  std::uint64_t attempted = 0;  // SETUP decisions in measured passes
  std::uint64_t failed = 0;     // output-check violations
  std::vector<std::string> failures;  // first few violation messages
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // digests and other informational lines

  void expect(bool ok, const std::string& what);
  void add(const std::string& name, std::optional<double> value,
           const std::string& unit, std::size_t n = 0);
  void add(const std::string& name, Percentile p, const std::string& unit);
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double ns_to_ms(std::int64_t ns) { return double(ns) * 1e-6; }

inline std::optional<double> ratio(double num, double den) {
  if (den == 0.0) return std::nullopt;
  return num / den;
}

std::string hex(std::uint64_t v);

// trace.overhead_ratio: wall time of the traced passes over the time spent
// inside program calls in them (shadow probes, spans and counter snapshots
// make up the difference).
void add_trace_overhead(Report& report, std::int64_t wall_ns,
                        std::int64_t program_ns);

// A measured pass ends once it holds enough samples for every end-to-end
// percentile (p95 of setups, p90 of admits and of Theorem-4 rejects): the
// first SETUP at which all three counts are reached closes it. Decisions
// are deterministic, so the pass length is a function of the seed alone;
// workloads set min_setups high enough that it is the count that binds,
// so that every seed runs the same number of setups.
struct PassTarget {
  static constexpr std::uint64_t kAdmitted = 100;
  static constexpr std::uint64_t kInfeasible = 100;

  // At least 1000, so that p95 of setups rests on 50 samples beyond it;
  // a workload may ask for more.
  std::uint64_t min_setups = 1000;
  std::uint64_t setups = 0, admitted = 0, infeasible = 0;

  void record(bool ok, hetnet::core::RejectReason reason) {
    ++setups;
    if (ok) ++admitted;
    if (reason == hetnet::core::RejectReason::kInfeasible) ++infeasible;
  }
  bool met() const {
    return setups >= min_setups && admitted >= kAdmitted &&
           infeasible >= kInfeasible;
  }
};

// End-to-end outcome classes, recorded per measured SETUP.
struct EndToEnd {
  Samples setup_ms;
  Samples admit_ms;
  Samples reject_ms;  // kInfeasible (Theorem 4) rejects only
  Samples setup_s;    // one sample per set-up
  std::uint64_t setups = 0;
  std::uint64_t admitted = 0;
  std::uint64_t no_bandwidth = 0;
  std::uint64_t infeasible = 0;
  std::int64_t measured_ns = 0;

  void record(bool admitted, hetnet::core::RejectReason reason, double ms);
  // Checks admitted + no_sync_bandwidth + infeasible = setups.
  void check_outcome_sum(Report& report) const;
  void emit(Report& report);
};

// Counter deltas of one AdmissionController around a call or a pass.
using Counters = std::map<std::string, std::uint64_t>;
std::uint64_t delta(const Counters& before, const Counters& after,
                    const char* name);

// Checks that the cac.tier.* tallies partition cac.requests over [before,
// after] and that the controller's own outcome counters agree with the
// benchmark's tally of the same decisions.
void check_counters(const Counters& before, const Counters& after,
                    std::uint64_t admitted, std::uint64_t no_bandwidth,
                    std::uint64_t infeasible, Report& report);

// Per-call decision tier, read from counter deltas around one request().
enum class Tier {
  kStep1Reject,
  kFloorReject,
  kScreenAdmit,
  kExactAdmit,
  kExactReject,
  kMemoHit,
};
inline constexpr int kNumTiers = 6;
const char* tier_name(Tier tier);
Tier classify(const Counters& before, const Counters& after, bool admitted);

// The traced run's layer probes. Every number is timed from outside, around
// calls to the layer's public functions, on objects the benchmark owns: a
// private DelayAnalyzer and session, so the controller's caches are never
// touched. Each probe also records a bench-side span (category
// "perfbench") into the process trace recorder when one is installed.
class LayerProbes {
 public:
  explicit LayerProbes(const hetnet::net::AbhnTopology* topology,
                       const hetnet::AnalysisConfig& config);

  // Shadows one SETUP before the controller sees it: the candidate at its
  // max_avail point against the pre-request active set. Skips step-1
  // rejects (no analysis runs for them).
  void before_request(const hetnet::core::AdmissionController& cac,
                      const hetnet::net::ConnectionSpec& spec);
  // Forgets the bench-side send prefix of a released connection.
  void on_release(hetnet::net::ConnectionId id) { prefixes_.erase(id); }

  // Times one request() and classifies its tier from counter deltas.
  hetnet::core::AdmissionDecision request(
      hetnet::core::AdmissionController& cac,
      const hetnet::net::ConnectionSpec& spec);
  void record_release_us(double us) { release_us_.add(us); }

  // Appends cac.*, analyzer.*, servers.* and traffic.* metrics (all but
  // cac.evictions_per_setup, which the workload adds). `before` and
  // `after` bracket the pass on the controller that served the per-call
  // classification; `setups` counts its SETUPs.
  void emit(const Counters& before, const Counters& after,
            std::uint64_t setups, Report& report);

  // Wall time spent inside request() and release() calls of the traced
  // pass, for trace.overhead_ratio.
  std::int64_t program_ns = 0;

 private:
  const hetnet::net::AbhnTopology* topology_;
  hetnet::AnalysisConfig config_;
  hetnet::core::DelayAnalyzer analyzer_;
  std::map<hetnet::net::ConnectionId, hetnet::core::SendPrefix> prefixes_;

  Samples tier_ms_[kNumTiers];
  Samples release_us_;
  Samples send_prefix_ms_, complete_cold_ms_, complete_memo_ms_;
  Samples active_set_;
  Samples mac_us_, conversion_us_, constant_us_, fifo_port_us_;
  Samples uplink_sample_ns_, uplink_breakpoints_;
  double sample_sink_ = 0.0;  // keeps the sampled values observable
};

}  // namespace perfbench
