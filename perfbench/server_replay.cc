// The server layer of a traced run: the controller pass's own request log
// replayed through admissiond.
//
// The log (every SETUP and RELEASE the pass issued, warm-up included) is
// cut after its first `setups` SETUPs and fed to AdmissionService at
// its defaults (batch 32, prewarm on) with analysis threads = 2 and a
// reduced session cap, so generational eviction runs. The benchmark keeps
// one batch outstanding: before each round it tops the queue up to two
// batches, so a request waits one round in the queue and commits in the
// next. The same prefix then runs through the serial reference (batch 1,
// prewarm off, threads 1). Both must commit the controller's verdicts.
#include <deque>
#include <string>

#include "src/obs/names.h"
#include "src/obs/span.h"
#include "src/server/admissiond.h"
#include "workloads.h"

namespace perfbench {

namespace server = hetnet::server;
namespace names = hetnet::obs::names;

namespace {

constexpr std::size_t kSessionCap = 4096;

server::AdmissiondConfig service_config(const hetnet::core::CacConfig& cac) {
  server::AdmissiondConfig c;
  c.cac = cac;
  c.cac.analysis.threads = 2;
  c.cac.session_max_entries = kSessionCap;
  c.record_outcomes = true;
  return c;
}

server::AdmissiondConfig serial_config(const hetnet::core::CacConfig& cac) {
  server::AdmissiondConfig c = service_config(cac);
  c.batch_size = 1;
  c.prewarm = false;
  c.cac.analysis.threads = 1;
  return c;
}

}  // namespace

void measure_server_layer(const hetnet::net::AbhnTopology& topology,
                          const hetnet::core::CacConfig& cac_config,
                          const std::vector<server::Request>& log,
                          const std::vector<bool>& verdicts,
                          std::uint64_t replay_setups, Report& report) {
  std::size_t count = 0;
  std::uint64_t setups = 0;
  while (count < log.size() && setups < replay_setups) {
    if (log[count++].type == server::RequestType::kSetup) ++setups;
  }
  // Keep the RELEASEs that follow the last replayed SETUP.
  while (count < log.size() && log[count].type == server::RequestType::kRelease) {
    ++count;
  }

  server::AdmissionService service(&topology, service_config(cac_config));
  const hetnet::core::AdmissionController& cac = service.cac();
  const Counters before = cac.metrics().counter_snapshot();
  const std::uint64_t evictions0 = cac.eviction_count();
  const std::size_t batch = service_config(cac_config).batch_size;
  Samples round_ms, queue_wait_ms, requests_per_round;
  std::int64_t service_ns = 0;
  std::deque<std::int64_t> submitted;
  std::size_t next = 0;
  while (true) {
    while (service.pending() < 2 * batch && next < count) {
      hetnet::obs::ScopedSpan span("perfbench.server.submit", "perfbench");
      submitted.push_back(now_ns());
      service.submit(log[next++]);
    }
    if (service.pending() == 0) break;
    std::size_t committed;
    const std::int64_t start = now_ns();
    {
      hetnet::obs::ScopedSpan span("perfbench.server.round", "perfbench");
      committed = service.run_round();
    }
    const std::int64_t end = now_ns();
    service_ns += end - start;
    round_ms.add(ns_to_ms(end - start));
    requests_per_round.add(double(committed));
    for (std::size_t k = 0; k < committed; ++k) {
      queue_wait_ms.add(ns_to_ms(start - submitted.front()));
      submitted.pop_front();
    }
  }
  const Counters after = cac.metrics().counter_snapshot();

  server::AdmissionService serial(&topology, serial_config(cac_config));
  std::int64_t serial_ns = 0;
  for (std::size_t i = 0; i < count; ++i) {
    serial.submit(log[i]);
    const std::int64_t start = now_ns();
    hetnet::obs::ScopedSpan span("perfbench.server.serial_round", "perfbench");
    serial.run_round();
    serial_ns += now_ns() - start;
  }
  report.expect(serial.decision_digest() == service.decision_digest(),
                "admissiond decision digest differs from its serial replay");
  bool same = service.outcomes().size() == setups;
  for (std::size_t i = 0; same && i < setups; ++i) {
    same = service.outcomes()[i].admitted == verdicts[i];
  }
  report.expect(same, "admissiond verdicts differ from the controller's");

  const auto d = [&](const char* name) {
    return double(delta(before, after, name));
  };
  report.add("server.round_ms_p50", round_ms.at(50), "ms");
  report.add("server.queue_wait_ms_p50", queue_wait_ms.at(50), "ms");
  report.add("server.requests_per_round", requests_per_round.mean(), "count",
             requests_per_round.size());
  report.add("server.prewarm_points_per_setup",
             ratio(d(names::kCacPrewarmPoints), double(setups)), "count",
             setups);
  report.add("server.prewarm_hit_ratio",
             ratio(d(names::kCacSessionDecisionHits),
                   d(names::kCacPrewarmPoints)),
             "ratio");
  report.add("server.evictions_per_setup",
             ratio(double(cac.eviction_count() - evictions0), double(setups)),
             "count", setups);
  report.add("server.vs_serial_ratio",
             ratio(double(service_ns), double(serial_ns)), "ratio");
}

}  // namespace perfbench
