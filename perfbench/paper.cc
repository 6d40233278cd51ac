// The Section-6 admission stream (workloads paper_u03 and mixed_sat).
//
// Poisson arrivals of dual-periodic connections; each arrival picks a
// source among the hosts that originate no connection and a destination on
// another ring, so every route crosses the backbone. Admitted connections
// hold for an exponential lifetime and then release. The stream is closed
// loop: which hosts are idle depends on earlier verdicts. The benchmark
// draws every random quantity up front (the endpoints from the seed, the
// load from a fixed sample path); the controller sees only the resulting
// requests, through AdmissionController::request and release at analysis
// threads = 1.
#include <memory>
#include <queue>
#include <string>

#include "src/core/cac.h"
#include "src/net/topology.h"
#include "src/obs/span.h"
#include "src/server/request_stream.h"
#include "src/sim/workload.h"
#include "src/traffic/fingerprint.h"
#include "src/traffic/sources.h"
#include "src/util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace core = hetnet::core;
namespace net = hetnet::net;
namespace server = hetnet::server;
namespace units = hetnet::units;
using hetnet::Seconds;

namespace {

struct PaperSpec {
  net::TopologyParams topology;
  Seconds deadline;
  int warmup;        // arrivals in the set-up prefix
  int max_arrivals;  // arrivals generated; a pass stops at its PassTarget
  std::uint64_t min_setups;  // the pass target's SETUP count
  // SETUPs of the traced pass's log replayed through admissiond; enough
  // for the server.* medians to rest on ten rounds beyond them.
  std::uint64_t replay_setups;
};

PaperSpec paper_spec(const std::string& workload) {
  PaperSpec s;
  s.topology = net::paper_topology_params();
  s.warmup = 24;
  if (workload == "paper_u03") {
    s.deadline = units::ms(80);
    s.max_arrivals = 8000;
    s.min_setups = 2100;
    s.replay_setups = 1000;
  } else {
    // Access segments alternate FDDI and TDMA-Ethernet; the backbone is a
    // 250 ms/link satellite ATM mesh (propagation floor ~782 ms).
    s.topology.access_hops = {hetnet::servers::HopSpec{"fddi"},
                              hetnet::servers::HopSpec{"tdma-ethernet"}};
    s.topology.backbone_hop =
        hetnet::servers::HopSpec{"satellite-atm", units::ms(250)};
    s.deadline = units::ms(850);
    s.max_arrivals = 6000;
    s.min_setups = 1100;
    s.replay_setups = 500;
  }
  return s;
}

// The source shape and load of the paper's Fig 7/8 cell: C1 = 500 kb per
// P1 = 100 ms in C2 = 50 kb sub-bursts every P2 = 10 ms, mean lifetime
// 20 s, offered backbone-link utilization U = 0.3.
hetnet::sim::WorkloadParams source_params(Seconds deadline) {
  hetnet::sim::WorkloadParams w;
  w.c1 = units::kbits(500);
  w.p1 = units::ms(100);
  w.c2 = units::kbits(50);
  w.p2 = units::ms(10);
  w.mean_lifetime = units::sec(20);
  w.deadline = deadline;
  return w;
}

core::CacConfig paper_cac() {
  core::CacConfig c;
  c.beta = 0.5;
  c.bisection_iters = 12;
  c.equality_tolerance = 0.05;
  c.analysis.threads = 1;
  return c;
}

// Arrival instants and lifetimes follow one fixed Poisson sample path for
// every seed; the seed draws each measured arrival's endpoints. Burst and
// lull episodes of the arrival process are what make one seed's admission
// probability and latency mix differ from another's (AP 0.33-0.38 over
// five paper_u03 seeds at 2,500 setups when the seed drew them too), so a
// run measures the program on a fixed load over seed-chosen routes.
constexpr std::uint64_t kLoadSeed = 0x5EED0;
// Endpoints of the warm-up prefix, the same for every seed.
constexpr std::uint64_t kWarmupSeed = 0x5EED1;

struct Arrival {
  Seconds at;
  double src_u = 0.0;  // uniform draw picking the source among idle hosts
  double dst_u = 0.0;  // uniform draw picking the remote destination
  Seconds lifetime;
};

struct Departure {
  Seconds when;
  net::ConnectionId id;
  int host;
  bool operator>(const Departure& o) const { return when > o.when; }
};

// One controller plus the generated stream and the host/departure state.
class World {
 public:
  World(const PaperSpec& spec, std::uint64_t seed)
      : topology_(spec.topology),
        params_(source_params(spec.deadline)),
        cac_(&topology_, paper_cac()),
        busy_(static_cast<std::size_t>(topology_.num_hosts()), false) {
    const double lambda =
        hetnet::sim::lambda_for_utilization(0.3, params_, topology_);
    // The warm-up prefix is the same for every seed, so that set-up time
    // reflects the program rather than the seed's first arrivals (it would
    // otherwise vary 0.3-1.3 s with the seed).
    hetnet::Rng load_rng(kLoadSeed);
    hetnet::Rng warmup_rng(kWarmupSeed);
    hetnet::Rng seeded_rng(seed);
    Seconds t;
    arrivals_.reserve(static_cast<std::size_t>(spec.max_arrivals));
    for (int i = 0; i < spec.max_arrivals; ++i) {
      hetnet::Rng& endpoints = i < spec.warmup ? warmup_rng : seeded_rng;
      Arrival a;
      t += Seconds{load_rng.exponential_mean(1.0 / lambda)};
      a.at = t;
      a.lifetime = Seconds{
          load_rng.exponential_mean(hetnet::val(params_.mean_lifetime))};
      a.src_u = endpoints.uniform();
      a.dst_u = endpoints.uniform();
      arrivals_.push_back(a);
    }
    for (int i = 0; i < spec.warmup; ++i) step(arrivals_[std::size_t(i)]);
    next_ = static_cast<std::size_t>(spec.warmup);
  }

  core::AdmissionController& cac() { return cac_; }
  const net::AbhnTopology& topology() const { return topology_; }
  bool done() const { return next_ == arrivals_.size(); }
  // Every SETUP and RELEASE this world issued, in order, warm-up included.
  const std::vector<server::Request>& log() const { return log_; }
  // The verdict of each SETUP in the log, in order.
  const std::vector<bool>& verdicts() const { return verdicts_; }

  // Turns the next arrival into a SETUP: releases every connection whose
  // lifetime ended, then picks endpoints. Returns false when every host
  // already originates a connection (the arrival issues no SETUP).
  bool next_setup(net::ConnectionSpec* spec, LayerProbes* probes) {
    current_ = arrivals_[next_++];
    release_due(current_.at, probes);
    return make_spec(current_, spec);
  }

  // Books the verdict of the SETUP made by next_setup().
  void commit(const net::ConnectionSpec& spec,
              const core::AdmissionDecision& d) {
    verdicts_.push_back(d.admitted);
    if (!d.admitted) return;
    busy_[std::size_t(src_flat_)] = true;
    departures_.push({current_.at + current_.lifetime, spec.id, src_flat_});
  }

 private:
  void step(const Arrival& a) {
    current_ = a;
    release_due(a.at, nullptr);
    net::ConnectionSpec spec;
    if (make_spec(a, &spec)) commit(spec, cac_.request(spec));
  }

  void release_due(Seconds now, LayerProbes* probes) {
    while (!departures_.empty() && departures_.top().when <= now) {
      const Departure d = departures_.top();
      departures_.pop();
      server::Request release;
      release.seq = log_.size();
      release.type = server::RequestType::kRelease;
      release.id = d.id;
      release.arrival = d.when;
      log_.push_back(release);
      if (probes == nullptr) {
        cac_.release(d.id);
      } else {
        hetnet::obs::ScopedSpan span("perfbench.cac.release", "perfbench");
        const std::int64_t t0 = now_ns();
        cac_.release(d.id);
        const std::int64_t ns = now_ns() - t0;
        probes->program_ns += ns;
        probes->record_release_us(double(ns) * 1e-3);
        probes->on_release(d.id);
      }
      busy_[std::size_t(d.host)] = false;
    }
  }

  bool make_spec(const Arrival& a, net::ConnectionSpec* spec) {
    std::vector<int> idle;
    for (int h = 0; h < topology_.num_hosts(); ++h) {
      if (!busy_[std::size_t(h)]) idle.push_back(h);
    }
    if (idle.empty()) return false;
    src_flat_ = idle[pick(a.src_u, idle.size())];
    const net::HostId src = topology_.host_at(src_flat_);
    std::vector<int> remote;
    for (int h = 0; h < topology_.num_hosts(); ++h) {
      if (topology_.host_at(h).ring != src.ring) remote.push_back(h);
    }
    spec->id = next_id_++;
    spec->src = src;
    spec->dst = topology_.host_at(remote[pick(a.dst_u, remote.size())]);
    spec->source = std::make_shared<hetnet::DualPeriodicEnvelope>(
        params_.c1, params_.p1, params_.c2, params_.p2, params_.peak);
    spec->deadline = params_.deadline;
    server::Request setup;
    setup.seq = log_.size();
    setup.id = spec->id;
    setup.spec = *spec;
    setup.arrival = a.at;
    log_.push_back(setup);
    return true;
  }

  static std::size_t pick(double u, std::size_t n) {
    const auto k = static_cast<std::size_t>(u * double(n));
    return k < n ? k : n - 1;
  }

  net::AbhnTopology topology_;
  hetnet::sim::WorkloadParams params_;
  core::AdmissionController cac_;
  std::vector<Arrival> arrivals_;
  std::size_t next_ = 0;
  Arrival current_;
  std::vector<bool> busy_;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures_;
  net::ConnectionId next_id_ = 1;
  int src_flat_ = -1;
  std::vector<server::Request> log_;
  std::vector<bool> verdicts_;
};

void check_decision(const net::ConnectionSpec& spec,
                    const core::AdmissionDecision& d, Report& report) {
  const std::string id = " (connection " + std::to_string(spec.id) + ")";
  if (!d.admitted) {
    report.expect(d.reason == core::RejectReason::kNoSyncBandwidth ||
                      d.reason == core::RejectReason::kInfeasible,
                  "reject without a CAC reason" + id);
    return;
  }
  report.expect(hetnet::approx_le(d.worst_case_delay, spec.deadline),
                "admitted bound exceeds the deadline" + id);
  const auto within = [](Seconds lo, Seconds x, Seconds hi) {
    return lo <= x && x <= hi;
  };
  report.expect(within(d.min_need.h_s, d.alloc.h_s, d.max_avail.h_s) &&
                    within(d.min_need.h_r, d.alloc.h_r, d.max_avail.h_r),
                "allocation outside [min_need, max_avail]" + id);
}

std::uint64_t fold(std::uint64_t digest, const core::AdmissionDecision& d) {
  namespace fp = hetnet::fp;
  digest = fp::combine(digest, d.admitted ? 1u : 0u);
  digest = fp::combine(digest, std::uint64_t(d.reason));
  digest = fp::combine(digest, fp::of_double(d.alloc.h_s.value()));
  digest = fp::combine(digest, fp::of_double(d.alloc.h_r.value()));
  return fp::combine(digest, fp::of_double(d.worst_case_delay.value()));
}

struct PassResult {
  std::int64_t ns = 0;
  std::uint64_t digest = 0;
};

// Runs the measured arrivals of one world, up to its PassTarget. With
// `probes` set, every call is shadowed and classified (traced run);
// otherwise only request() is timed.
PassResult run_pass(World& world, std::uint64_t min_setups, EndToEnd& e2e,
                    Report& report, LayerProbes* probes) {
  const Counters before = world.cac().metrics().counter_snapshot();
  const std::uint64_t admitted0 = e2e.admitted;
  const std::uint64_t no_bandwidth0 = e2e.no_bandwidth;
  const std::uint64_t infeasible0 = e2e.infeasible;
  PassResult pass;
  PassTarget target;
  target.min_setups = min_setups;
  const std::int64_t start = now_ns();
  while (!target.met() && !world.done()) {
    net::ConnectionSpec spec;
    if (!world.next_setup(&spec, probes)) continue;
    core::AdmissionDecision d;
    std::int64_t ns;
    if (probes == nullptr) {
      const std::int64_t t0 = now_ns();
      d = world.cac().request(spec);
      ns = now_ns() - t0;
    } else {
      probes->before_request(world.cac(), spec);
      const std::int64_t program0 = probes->program_ns;
      d = probes->request(world.cac(), spec);
      ns = probes->program_ns - program0;
    }
    e2e.record(d.admitted, d.reason, ns_to_ms(ns));
    target.record(d.admitted, d.reason);
    check_decision(spec, d, report);
    pass.digest = fold(pass.digest, d);
    world.commit(spec, d);
  }
  pass.ns = now_ns() - start;
  check_counters(before, world.cac().metrics().counter_snapshot(),
                 e2e.admitted - admitted0, e2e.no_bandwidth - no_bandwidth0,
                 e2e.infeasible - infeasible0, report);
  return pass;
}

}  // namespace

void run_paper_stream(const Options& opt, Report& report) {
  const PaperSpec spec = paper_spec(opt.workload);
  EndToEnd e2e;
  const auto setup = [&] {
    const std::int64_t t0 = now_ns();
    auto world = std::make_unique<World>(spec, opt.seed);
    e2e.setup_s.add(double(now_ns() - t0) * 1e-9);
    return world;
  };

  if (opt.trace) {
    auto world = setup();
    const core::CacConfig cfg = world->cac().config();
    LayerProbes probes(&world->cac().topology(), cfg.analysis);
    const Counters before = world->cac().metrics().counter_snapshot();
    const std::uint64_t evictions0 = world->cac().eviction_count();
    const PassResult pass =
        run_pass(*world, spec.min_setups, e2e, report, &probes);
    e2e.check_outcome_sum(report);
    report.notes.push_back("digest " + opt.workload + " seed " +
                           std::to_string(opt.seed) + ": " +
                           hex(pass.digest));
    report.notes.push_back(
        "admission_probability " +
        std::to_string(double(e2e.admitted) / double(e2e.setups)));
    measure_server_layer(world->topology(), cfg, world->log(),
                         world->verdicts(), spec.replay_setups, report);
    probes.emit(before, world->cac().metrics().counter_snapshot(), e2e.setups,
                report);
    report.add("cac.evictions_per_setup",
               ratio(double(world->cac().eviction_count() - evictions0),
                     double(e2e.setups)),
               "count", e2e.setups);
    report.attempted += e2e.setups;
    add_trace_overhead(report, pass.ns, probes.program_ns);
    return;
  }

  // Repeated set-ups give setup_s a median; the last world is measured.
  // Further passes (each on a fresh set-up of the same seed) run while they
  // fit in the measuring time, and must reproduce the first pass's digest.
  for (int i = 0; i < 4; ++i) setup();
  std::uint64_t digest = 0;
  std::int64_t last_pass_ns = 0;
  int passes = 0;
  do {
    auto world = setup();
    const PassResult pass =
        run_pass(*world, spec.min_setups, e2e, report, nullptr);
    if (passes == 0) digest = pass.digest;
    report.expect(pass.digest == digest,
                  "decision digest differs between passes of one seed");
    e2e.measured_ns += pass.ns;
    last_pass_ns = pass.ns;
    ++passes;
  } while (double(e2e.measured_ns + last_pass_ns) * 1e-9 <= opt.seconds);
  e2e.check_outcome_sum(report);
  report.notes.push_back("digest " + opt.workload + " seed " +
                         std::to_string(opt.seed) + ": " + hex(digest));
  report.notes.push_back("passes " + std::to_string(passes));
  e2e.emit(report);
}

}  // namespace perfbench
