// The two passes a benchmark run makes over one workload: the untraced pass
// gives the end-to-end metrics, the traced pass the per-layer ones.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "scenario.hpp"
#include "spans.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Runs attempted and failed in a pass, and the metrics it measured. A run
/// fails when it throws or when its simulated statistics differ from the
/// workload's reference run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;  ///< the BENCHMARK.json metrics of the pass
  std::vector<Metric> extra;    ///< printed, but not in the JSON result
  /// Traced pass: every phase-sum check held within its tolerance.
  bool phases_ok = true;

  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// Tolerances of the traced pass's phase-sum checks, as a share of the
/// measured wall time (see README.md "Phase sums"). Setup: the medians of
/// the generate, construct and load spans against the median setup span.
/// Replay: the replay's spans, plus their calibrated clock cost, against
/// the replay's wall time.
inline constexpr double kSetupPhaseTolerance = 0.10;
inline constexpr double kReplayPhaseTolerance = 0.15;

/// The reference run: one undecorated verify=counters run, writing any
/// forensics dump under `forensics_dir`. Every other run of the workload
/// must reproduce its simulated statistics, and its conservation equation
/// must close. Returns nullopt (and records the failure) when either fails.
std::optional<Digest> reference_run(const Scenario& sc,
                                    const std::string& forensics_dir,
                                    Outcome& o, std::vector<Timings>* setups);

/// Run `run`, which returns {run, digest of its simulated statistics}, as
/// one attempt: a throw or a digest different from `ref` counts as a failed
/// run.
template <class F>
auto attempt(Outcome& o, const std::string& label, const Digest& ref, F&& run)
    -> std::optional<decltype(run().first)> {
  ++o.attempted;
  try {
    auto r = run();
    const std::string diff = digest_diff(ref, r.second);
    if (diff.empty()) return std::move(r.first);
    o.errors.push_back(label + " diverged from the reference: " + diff);
  } catch (const std::exception& e) {
    o.errors.push_back(label + " threw: " + e.what());
  }
  ++o.failed;
  return std::nullopt;
}

/// An undecorated run, for attempt(); `probe` as for run_scenario().
inline std::pair<RunOutput, Digest> plain_run(const Scenario& sc,
                                              const pacsim::SystemConfig& cfg,
                                              HostProbe* probe = nullptr) {
  RunOutput r = run_scenario(sc, cfg, probe);
  Digest d = digest(r.result, nullptr);
  return {std::move(r), std::move(d)};
}

/// Untraced pass: repeat the timed setup-and-run until `seconds` have passed
/// and at least `min_reps` runs were made; report medians.
Outcome untraced_pass(const Scenario& sc, double seconds, unsigned min_reps,
                      const std::string& forensics_dir);

/// Traced pass: decorated run, memory-path and cache replays, and the
/// naive-loop and serial comparison runs.
Outcome traced_pass(const Scenario& sc, const SpanCost& cost,
                    const std::string& forensics_dir);

double median(std::vector<double> v);

}  // namespace perfbench
