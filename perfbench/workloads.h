// The benchmark's workloads. Each fills `report` with its end-to-end
// metrics (untraced run) or its per-layer metrics (traced run).
#pragma once

#include <vector>

#include "bench.h"
#include "src/server/request_stream.h"

namespace perfbench {

// paper_u03 and mixed_sat (paper.cc).
void run_paper_stream(const Options& opt, Report& report);

// The server.* per-layer metrics: replays the prefix of `log` that holds
// its first `replay_setups` SETUPs through AdmissionService and its serial
// reference, both on the controller's `cac_config`, and checks them against
// the controller's `verdicts` (server_replay.cc).
void measure_server_layer(const hetnet::net::AbhnTopology& topology,
                          const hetnet::core::CacConfig& cac_config,
                          const std::vector<hetnet::server::Request>& log,
                          const std::vector<bool>& verdicts,
                          std::uint64_t replay_setups, Report& report);

}  // namespace perfbench
