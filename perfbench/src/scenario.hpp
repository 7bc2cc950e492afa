// The benchmark's workloads and the one timed unit of work each run
// repeats: generate the traces, build the system, load the traces, run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/trace.hpp"
#include "sim/metrics.hpp"
#include "sim/system_config.hpp"

namespace pacsim {
class Pac;
}  // namespace pacsim

namespace perfbench {

class HostProbe;

enum class Size : std::uint8_t {
  kFull,   ///< the measured size
  kSmoke,  ///< seconds for all workloads: the benchmark's own test
};

struct Scenario {
  std::string name;
  pacsim::SystemConfig cfg;
  /// Builds the per-core traces; deterministic in the seed it was made with.
  std::function<pacsim::TraceSet()> generate;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& scenario_names();

/// Throws std::invalid_argument on an unknown name.
Scenario make_scenario(const std::string& name, std::uint64_t seed, Size size);

/// Host time of one setup-and-run, in seconds.
struct Timings {
  double generate_s = 0.0;
  double construct_s = 0.0;
  double load_s = 0.0;
  double setup_s = 0.0;  ///< generate + construct + load, one outer span
  double run_s = 0.0;    ///< inside run()
  /// setup_s and run_s at the reference host speed (host_probe.hpp); set
  /// only by a run_scenario() call given a probe.
  double setup_ref_s = 0.0;
  double run_ref_s = 0.0;
};

struct RunOutput {
  pacsim::RunResult result;
  Timings t;
  pacsim::SharedTraceSet traces;
  std::uint64_t mem_ops = 0;         ///< loads, stores and atomics executed
  std::uint64_t shard_cycle_sum = 0; ///< simulated cycles summed over shards
};

/// Generate, build, load and run `sc` under `cfg` (a variant of sc.cfg).
/// Uses ShardedSystem when cfg.exec asks for it, System otherwise. Given a
/// probe, it also measures the host's speed and fills in the
/// reference-speed times.
RunOutput run_scenario(const Scenario& sc, const pacsim::SystemConfig& cfg,
                       HostProbe* probe = nullptr);

/// Build the controller `cfg.coalescer` names, as System does; `pac`
/// receives the controller when it is a Pac and nullptr otherwise.
std::unique_ptr<pacsim::Coalescer> make_controller(
    const pacsim::SystemConfig& cfg, pacsim::DevicePort* port,
    const pacsim::Pac** pac);

/// Every simulated statistic a host-only change must leave identical, as
/// named integers (doubles by bit pattern). Host-side blocks (throughput,
/// exec) and the verifier's counters are left out, so a fast-forward, a
/// naive, a threaded, a verified and a decorated run of one input compare
/// equal. `pac`, when given, replaces r.pac (decorated runs read the PAC
/// statistics from the wrapped controllers).
using Digest = std::vector<std::pair<std::string, std::uint64_t>>;
Digest digest(const pacsim::RunResult& r, const pacsim::PacStats* pac);

/// "" when equal, else the first differing fields.
std::string digest_diff(const Digest& expected, const Digest& actual);

/// The conservation equation of a verified run:
/// issued == retired + fences + poisoned, and no violations.
bool conservation_closes(const pacsim::VerifyStats& v);

}  // namespace perfbench
