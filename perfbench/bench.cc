#include "bench.h"

#include <cinttypes>
#include <cstdio>
#include <string>

#include "src/obs/names.h"

namespace perfbench {

namespace names = hetnet::obs::names;
using hetnet::core::RejectReason;

void Report::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  if (failures.size() < 10) failures.push_back(what);
}

void Report::add(const std::string& name, std::optional<double> value,
                 const std::string& unit, std::size_t n) {
  metrics.push_back({name, value, unit, n});
}

void Report::add(const std::string& name, Percentile p,
                 const std::string& unit) {
  metrics.push_back({name, p.value, unit, p.count});
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

void add_trace_overhead(Report& report, std::int64_t wall_ns,
                        std::int64_t program_ns) {
  report.add("trace.overhead_ratio", ratio(double(wall_ns), double(program_ns)),
             "ratio");
}

void EndToEnd::record(bool ok, RejectReason reason, double ms) {
  ++setups;
  setup_ms.add(ms);
  if (ok) {
    ++admitted;
    admit_ms.add(ms);
  } else if (reason == RejectReason::kNoSyncBandwidth) {
    ++no_bandwidth;
  } else if (reason == RejectReason::kInfeasible) {
    ++infeasible;
    reject_ms.add(ms);
  }
}

void EndToEnd::check_outcome_sum(Report& report) const {
  report.expect(admitted + no_bandwidth + infeasible == setups,
                "admitted + no_sync_bandwidth + infeasible != setups");
}

void EndToEnd::emit(Report& report) {
  report.attempted += setups;
  const double measured_s = double(measured_ns) * 1e-9;
  report.add("decisions_per_s", ratio(double(setups), measured_s), "1/s",
             setups);
  report.add("setup_p95_ms", setup_ms.at(95), "ms");
  report.add("admit_p50_ms", admit_ms.at(50), "ms");
  report.add("admit_p90_ms", admit_ms.at(90), "ms");
  report.add("reject_p90_ms", reject_ms.at(90), "ms");
  report.add("admission_probability", ratio(double(admitted), double(setups)),
             "ratio", setups);
  report.add("setup_s", setup_s.median(), "s", setup_s.size());
}

std::uint64_t delta(const Counters& before, const Counters& after,
                    const char* name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  const std::uint64_t va = a == after.end() ? 0 : a->second;
  const std::uint64_t vb = b == before.end() ? 0 : b->second;
  return va - vb;
}

void check_counters(const Counters& before, const Counters& after,
                    std::uint64_t admitted, std::uint64_t no_bandwidth,
                    std::uint64_t infeasible, Report& report) {
  const std::uint64_t requests = delta(before, after, names::kCacRequests);
  const std::uint64_t tiers =
      delta(before, after, names::kCacTierScreenAdmit) +
      delta(before, after, names::kCacTierScreenReject) +
      delta(before, after, names::kCacTierFallback);
  report.expect(tiers == requests, "cac.tier.* tallies (" +
                                       std::to_string(tiers) +
                                       ") != cac.requests (" +
                                       std::to_string(requests) + ")");
  report.expect(delta(before, after, names::kCacAdmitted) == admitted,
                "cac.admitted disagrees with the benchmark's tally");
  report.expect(
      delta(before, after, names::kCacRejectedNoSyncBandwidth) ==
          no_bandwidth,
      "cac.rejected.no_sync_bandwidth disagrees with the benchmark's tally");
  report.expect(delta(before, after, names::kCacRejectedInfeasible) ==
                    infeasible,
                "cac.rejected.infeasible disagrees with the benchmark's tally");
  report.expect(requests == admitted + no_bandwidth + infeasible,
                "cac.requests != admitted + no_sync_bandwidth + infeasible");
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kStep1Reject: return "step1_reject";
    case Tier::kFloorReject: return "floor_reject";
    case Tier::kScreenAdmit: return "screen_admit";
    case Tier::kExactAdmit: return "exact_admit";
    case Tier::kExactReject: return "exact_reject";
    case Tier::kMemoHit: return "memo_hit";
  }
  return "unknown";
}

Tier classify(const Counters& before, const Counters& after, bool admitted) {
  if (delta(before, after, names::kCacRejectedNoSyncBandwidth) != 0) {
    return Tier::kStep1Reject;
  }
  if (delta(before, after, names::kCacTierScreenReject) != 0) {
    return Tier::kFloorReject;
  }
  if (delta(before, after, names::kCacTierScreenAdmit) != 0) {
    return Tier::kScreenAdmit;
  }
  // Exact tier: a decision that stored no fresh joint analysis was served
  // entirely from the Tier-B memo.
  if (delta(before, after, names::kCacSessionDecisionEvals) == 0) {
    return Tier::kMemoHit;
  }
  return admitted ? Tier::kExactAdmit : Tier::kExactReject;
}

}  // namespace perfbench
