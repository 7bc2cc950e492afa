#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "host_probe.hpp"
#include "passes.hpp"

namespace perfbench {

using namespace pacsim;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<Digest> reference_run(const Scenario& sc,
                                    const std::string& forensics_dir,
                                    Outcome& o, std::vector<Timings>* setups) {
  SystemConfig cfg = sc.cfg;
  cfg.verify.level = VerifyLevel::kCounters;
  cfg.verify.forensics_dir = forensics_dir;
  ++o.attempted;
  try {
    const RunOutput out = run_scenario(sc, cfg);
    if (setups != nullptr) setups->push_back(out.t);
    const VerifyStats& v = out.result.verification;
    if (conservation_closes(v)) return digest(out.result, nullptr);
    o.errors.push_back(
        "reference run: conservation does not close (issued " +
        std::to_string(v.issued) + ", retired " + std::to_string(v.retired) +
        ", fences " + std::to_string(v.fences) + ", poisoned " +
        std::to_string(v.poisoned) + ", violations " +
        std::to_string(v.violations) + ")");
  } catch (const std::exception& e) {
    o.errors.push_back(std::string("reference run threw: ") + e.what());
  }
  ++o.failed;
  return std::nullopt;
}

Outcome untraced_pass(const Scenario& sc, double seconds, unsigned min_reps,
                      const std::string& forensics_dir) {
  Outcome o;
  const std::optional<Digest> ref =
      reference_run(sc, forensics_dir, o, nullptr);
  if (!ref) return o;

  // Host times at the reference host speed (host_probe.hpp); the measured
  // medians are printed beside them.
  HostProbe probe;
  std::vector<double> setup_s, run_s, raw_setup_s, raw_run_s, speed;
  std::optional<RunOutput> last;
  const Clock::time_point start = Clock::now();
  while (run_s.size() < min_reps || seconds_since(start) < seconds) {
    std::optional<RunOutput> out =
        attempt(o, "timed run " + std::to_string(o.attempted), *ref,
                [&] { return plain_run(sc, sc.cfg, &probe); });
    if (!out) {
      if (o.failed >= 3) break;  // a broken build fails every run
      continue;
    }
    const Timings& t = out->t;
    std::fprintf(stderr,
                 "perfbench: timed run %zu: setup %.4f s, run %.4f s, host "
                 "speed %.4f\n",
                 run_s.size() + 1, t.setup_s, t.run_s, t.run_ref_s / t.run_s);
    setup_s.push_back(t.setup_ref_s);
    run_s.push_back(t.run_ref_s);
    raw_setup_s.push_back(t.setup_s);
    raw_run_s.push_back(t.run_s);
    speed.push_back(t.run_ref_s / t.run_s);
    out->traces.reset();
    last = std::move(out);
  }
  if (!last) return o;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const RunResult& r = last->result;
  const double run = median(run_s);
  o.add("setup_s", median(setup_s), "s");
  o.add("run_s", run, "s");
  o.add("mcycles_per_s", static_cast<double>(r.cycles) / 1e6 / run,
        "Mcycles/s");
  o.add("mops_per_s", static_cast<double>(last->mem_ops) / 1e6 / run,
        "Mops/s");
  o.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  o.add("sim_cycles", static_cast<double>(r.cycles), "cycles");
  o.add("mem_latency_ns", r.avg_hmc_latency_ns(), "ns");
  o.add("link_bytes", static_cast<double>(r.link_bytes()), "bytes");
  o.add("energy_uj", r.total_energy / 1e6, "uJ");
  // Printed only, since a bound relative to 0 means nothing: coalescing_eff
  // is 0 under the direct controller (the traced pass reports it as
  // coalescer.coalescing_eff), failed_frac on every correct run (the result
  // line carries it as failed over attempted).
  o.extra.push_back({"coalescing_eff", r.coalescing_efficiency(), "ratio"});
  o.extra.push_back({"failed_frac",
                     static_cast<double>(o.failed) /
                         static_cast<double>(o.attempted),
                     "ratio"});
  o.extra.push_back({"timed_runs", static_cast<double>(run_s.size()),
                     "count"});
  o.extra.push_back({"run_s_min", *std::min_element(run_s.begin(),
                                                    run_s.end()), "s"});
  o.extra.push_back({"run_s_max", *std::max_element(run_s.begin(),
                                                    run_s.end()), "s"});
  o.extra.push_back({"setup_s_raw", median(raw_setup_s), "s"});
  o.extra.push_back({"run_s_raw", median(raw_run_s), "s"});
  o.extra.push_back({"host_speed", median(speed), "ratio"});
  return o;
}

}  // namespace perfbench
