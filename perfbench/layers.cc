// The traced run's outside-in layer probes (see LayerProbes in bench.h).
#include <memory>
#include <string>

#include "bench.h"
#include "src/obs/names.h"
#include "src/obs/span.h"
#include "src/servers/constant_delay.h"
#include "src/servers/conversion.h"
#include "src/servers/fddi_mac.h"
#include "src/servers/fifo_mux.h"
#include "src/servers/tdma_mac.h"
#include "src/traffic/algebra.h"
#include "src/traffic/sources.h"

namespace perfbench {

namespace core = hetnet::core;
namespace names = hetnet::obs::names;
using hetnet::EnvelopePtr;
using hetnet::Seconds;
using hetnet::ServerPtr;

namespace {

// Runs `fn` inside a bench-side span and returns its wall time in ns.
template <typename Fn>
std::int64_t timed(const char* span, Fn&& fn) {
  hetnet::obs::ScopedSpan s(span, "perfbench");
  const std::int64_t t0 = now_ns();
  fn();
  return now_ns() - t0;
}

double us(std::int64_t ns) { return double(ns) * 1e-3; }

}  // namespace

LayerProbes::LayerProbes(const hetnet::net::AbhnTopology* topology,
                         const hetnet::AnalysisConfig& config)
    : topology_(topology), config_(config), analyzer_(topology, config) {}

void LayerProbes::before_request(const core::AdmissionController& cac,
                                 const hetnet::net::ConnectionSpec& spec) {
  const bool intra = spec.src.ring == spec.dst.ring;
  const Seconds h_s = cac.ledger(spec.src.ring).available();
  const Seconds h_r = intra ? Seconds{} : cac.ledger(spec.dst.ring).available();
  const Seconds h_min = cac.config().h_min_abs;
  if (h_s < h_min || (!intra && h_r < h_min)) return;  // step-1 reject

  // The pre-request active set with bench-side send prefixes (computed once
  // per admitted connection, like the controller's own prefix cache).
  std::vector<core::ConnectionInstance> set;
  std::vector<core::SendPrefix> prefixes;
  for (const auto& [id, conn] : cac.active()) {
    set.push_back({conn.spec, conn.alloc});
    auto it = prefixes_.find(id);
    if (it == prefixes_.end()) {
      it = prefixes_
               .emplace(id, analyzer_.send_prefix(conn.spec, conn.alloc.h_s))
               .first;
    }
    prefixes.push_back(it->second);
  }
  active_set_.add(double(set.size()));

  core::SendPrefix cand;
  send_prefix_ms_.add(ns_to_ms(timed("perfbench.analyzer.send_prefix", [&] {
    cand = analyzer_.send_prefix(spec, h_s);
  })));
  set.push_back({spec, {h_s, h_r}});
  prefixes.push_back(cand);

  // Joint analysis at max_avail: once against an empty session (every port
  // and suffix computed), then again against the session that now holds
  // every port and suffix of this exact instance set.
  core::AnalysisSession session;
  complete_cold_ms_.add(ns_to_ms(timed("perfbench.analyzer.complete_cold", [&] {
    (void)analyzer_.complete(set, prefixes, &session);
  })));
  complete_memo_ms_.add(ns_to_ms(timed("perfbench.analyzer.complete_memo", [&] {
    (void)analyzer_.complete(set, prefixes, &session);
  })));

  // Server models along the candidate's path.
  const auto walk = [&](const std::vector<ServerPtr>& stages,
                        EnvelopePtr env) -> EnvelopePtr {
    for (const ServerPtr& s : stages) {
      std::optional<hetnet::ServerAnalysis> r;
      const std::int64_t ns =
          timed("perfbench.servers.analyze", [&] { r = s->analyze(env); });
      const hetnet::Server* raw = s.get();
      if (dynamic_cast<const hetnet::FddiMacServer*>(raw) != nullptr ||
          dynamic_cast<const hetnet::TdmaMacServer*>(raw) != nullptr) {
        mac_us_.add(us(ns));
      } else if (dynamic_cast<const hetnet::ConversionServer*>(raw) !=
                 nullptr) {
        conversion_us_.add(us(ns));
      } else if (dynamic_cast<const hetnet::ConstantDelayServer*>(raw) !=
                 nullptr) {
        constant_us_.add(us(ns));
      }
      if (!r.has_value()) return nullptr;
      env = r->output;
    }
    return env;
  };
  const hetnet::servers::AccessMedium& src_medium =
      topology_->access_medium(spec.src.ring);
  const EnvelopePtr sent =
      walk(src_medium.send_stages(h_s, intra, config_), spec.source);
  if (!intra && sent != nullptr && cand.finite) {
    // The uplink port: every active flow whose route starts there, plus
    // the candidate, multiplexed FIFO.
    const hetnet::atm::PortId port =
        topology_->backbone_route(spec.src, spec.dst).front().port;
    std::vector<EnvelopePtr> flows;
    for (std::size_t i = 0; i + 1 < set.size(); ++i) {
      const auto& s = set[i].spec;
      if (s.src.ring == s.dst.ring || !prefixes[i].finite) continue;
      if (topology_->backbone_route(s.src, s.dst).front().port == port) {
        flows.push_back(prefixes[i].at_uplink);
      }
    }
    flows.push_back(cand.at_uplink);
    const hetnet::atm::Backbone& backbone = topology_->backbone();
    hetnet::FifoMuxParams mux;
    mux.capacity = backbone.port_capacity(port);
    mux.non_preemption = backbone.port_cell_time(port);
    mux.cell_bits = topology_->params().cells.payload;
    mux.buffer_limit = backbone.port_link(port).port_buffer;
    const hetnet::FifoMuxServer uplink(
        topology_->backbone_medium().port_label(port), mux,
        std::make_shared<hetnet::ZeroEnvelope>(), config_);
    const EnvelopePtr aggregate = hetnet::sum_envelopes(flows);
    std::optional<hetnet::FifoMuxServer::PortAnalysis> bound;
    fifo_port_us_.add(us(timed("perfbench.servers.fifo_port", [&] {
      bound = uplink.analyze_port(aggregate);
    })));
    if (bound.has_value()) {
      walk(topology_->access_medium(spec.dst.ring).receive_stages(h_r, config_),
           uplink.flow_output(cand.at_uplink, bound->worst_case_delay));
    }
  }

  // Pointwise sampling of the candidate's uplink envelope over its own
  // breakpoints up to the screen horizon.
  if (cand.finite) {
    const std::vector<Seconds> points =
        cand.at_uplink->breakpoints(cac.config().screen_horizon);
    if (!points.empty()) {
      hetnet::Bits total{};
      const std::int64_t ns = timed("perfbench.traffic.uplink_sample", [&] {
        for (const Seconds t : points) total += cand.at_uplink->bits(t);
      });
      uplink_sample_ns_.add(double(ns) / double(points.size()));
      uplink_breakpoints_.add(double(points.size()));
      sample_sink_ += total.value();
    }
  }
}

core::AdmissionDecision LayerProbes::request(
    core::AdmissionController& cac, const hetnet::net::ConnectionSpec& spec) {
  const Counters before = cac.metrics().counter_snapshot();
  core::AdmissionDecision d;
  const std::int64_t ns =
      timed("perfbench.cac.request", [&] { d = cac.request(spec); });
  program_ns += ns;
  const Tier tier =
      classify(before, cac.metrics().counter_snapshot(), d.admitted);
  tier_ms_[static_cast<int>(tier)].add(ns_to_ms(ns));
  return d;
}

void LayerProbes::emit(const Counters& before, const Counters& after,
                       std::uint64_t setups, Report& report) {
  std::size_t calls = 0;
  for (const Samples& s : tier_ms_) calls += s.size();
  // Latency is reported for the exact tiers only: every workload resolves
  // hundreds of setups there, while step-1, floor, screen and memo
  // resolutions can be absent or too few for a median on a workload.
  for (const Tier tier : {Tier::kExactAdmit, Tier::kExactReject}) {
    report.add(std::string("cac.request_ms_p50.") + tier_name(tier),
               tier_ms_[static_cast<int>(tier)].at(50), "ms");
  }
  for (int i = 0; i < kNumTiers; ++i) {
    report.add(
        std::string("cac.tier_share.") + tier_name(static_cast<Tier>(i)),
        ratio(double(tier_ms_[i].size()), double(calls)), "ratio", calls);
  }
  const auto d = [&](const char* name) {
    return double(delta(before, after, name));
  };
  report.add("cac.probe_evals_per_setup",
             ratio(d(names::kCacProbeEvals), double(setups)), "count",
             setups);
  // Tier-A certificates per screened point: each screened point first
  // tries the floor certificate and, failing that, runs the kUp screen.
  report.add("cac.screen_cert_ratio",
             ratio(d(names::kCacScreenFloorCerts) +
                       d(names::kCacScreenUpperCerts),
                   d(names::kCacScreenFloorCerts) + d(names::kCacScreenEvals)),
             "ratio");
  const auto hit_ratio = [&](const char* hits, const char* evals) {
    return ratio(d(hits), d(hits) + d(evals));
  };
  report.add("cac.session_hit_ratio.port",
             hit_ratio(names::kCacSessionPortHits,
                       names::kCacSessionPortEvals),
             "ratio");
  report.add("cac.session_hit_ratio.suffix",
             hit_ratio(names::kCacSessionSuffixHits,
                       names::kCacSessionSuffixEvals),
             "ratio");
  report.add("cac.session_hit_ratio.decision",
             hit_ratio(names::kCacSessionDecisionHits,
                       names::kCacSessionDecisionEvals),
             "ratio");
  report.add("cac.release_us_p50", release_us_.at(50), "us");

  report.add("analyzer.send_prefix_ms_p50", send_prefix_ms_.at(50), "ms");
  const Percentile cold = complete_cold_ms_.at(50);
  const Percentile memo = complete_memo_ms_.at(50);
  report.add("analyzer.complete_cold_ms_p50", cold, "ms");
  report.add("analyzer.complete_memo_ms_p50", memo, "ms");
  std::optional<double> fresh_vs_memo;
  if (cold.value && memo.value) fresh_vs_memo = ratio(*cold.value, *memo.value);
  report.add("analyzer.fresh_vs_memo_ratio", fresh_vs_memo, "ratio",
             cold.count);
  report.add("analyzer.active_set_mean", active_set_.mean(), "count",
             active_set_.size());

  report.add("servers.mac.analyze_us_p50", mac_us_.at(50), "us");
  report.add("servers.conversion.analyze_us_p50", conversion_us_.at(50), "us");
  report.add("servers.constant.analyze_us_p50", constant_us_.at(50), "us");
  report.add("servers.fifo_port.bound_us_p50", fifo_port_us_.at(50), "us");

  report.add("traffic.uplink_sample_ns", uplink_sample_ns_.at(50), "ns");
  report.add("traffic.uplink_breakpoints", uplink_breakpoints_.mean(), "count",
             uplink_breakpoints_.size());
}

}  // namespace perfbench
