// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--forensics DIR]
//   perfbench --smoke [--forensics DIR]
//
// --trace 0 runs the untraced pass and reports the end-to-end metrics;
// --trace 1 runs the traced pass and reports the per-layer metrics. The last
// line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the exit code is non-zero when any run failed or diverged from the
// workload's reference. --smoke runs every workload at a quick size through
// both passes, printing each pass's result line, then "smoke: PASS" or
// "smoke: FAIL"; it fails on any failed run or phase-sum check.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "passes.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string forensics_dir = ".bench_build/forensics";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value, &used);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value, &used);
    } else if (key == "--trace") {
      a.trace = std::stoi(value, &used) != 0;
    } else if (key == "--forensics") {
      a.forensics_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
    if (key != "--workload" && key != "--forensics" && used != value.size()) {
      throw std::invalid_argument("bad value for " + key + ": " + value);
    }
  }
  if (!a.smoke && !have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  return a;
}

void print_metrics(const std::string& title, const Outcome& o) {
  std::printf("%s\n", title.c_str());
  for (const std::vector<Metric>* list : {&o.metrics, &o.extra}) {
    for (const Metric& m : *list) {
      std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  if (!o.phases_ok) {
    std::printf("  WARNING: phase sums outside the stated tolerance\n");
  }
  for (const std::string& e : o.errors) {
    std::printf("  ERROR: %s\n", e.c_str());
  }
  std::fflush(stdout);
}

/// The result line. Non-finite values cannot be written as JSON numbers;
/// they make the result incorrect.
bool print_result(const Outcome& o) {
  bool finite = true;
  std::string metrics;
  for (const Metric& m : o.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      finite = false;
      v = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), v,
                  m.unit.c_str());
    metrics += buf;
  }
  const bool correct = o.correct() && finite;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(o.attempted, 1)),
      static_cast<unsigned long long>(o.failed), metrics.c_str());
  std::fflush(stdout);
  return correct;
}

int smoke(const Args& a) {
  const SpanCost cost = calibrate_span_cost();
  bool ok = true;
  for (const std::string& name : scenario_names()) {
    const Scenario sc = make_scenario(name, a.seed, Size::kSmoke);
    const Outcome plain = untraced_pass(sc, 0.0, 2, a.forensics_dir);
    print_metrics(name + " (smoke, untraced)", plain);
    const bool plain_ok = print_result(plain);
    const Outcome traced = traced_pass(sc, cost, a.forensics_dir);
    print_metrics(name + " (smoke, traced)", traced);
    const bool traced_ok = print_result(traced);
    ok = ok && plain_ok && traced_ok && traced.phases_ok;
  }
  std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Serve every allocation of 128 KiB or more with fresh pages. glibc's
  // default threshold adapts to the sizes freed so far, so whether a
  // setup's large arrays reused freed memory or faulted in new pages
  // depended on the process's history, and setup_s settled on one of two
  // values a factor of three apart.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args a;
  try {
    a = parse(argc, argv);
    if (a.smoke) return smoke(a);
    const Scenario sc = make_scenario(a.workload, a.seed, Size::kFull);
    Outcome o;
    if (a.trace) {
      o = traced_pass(sc, calibrate_span_cost(), a.forensics_dir);
      print_metrics(a.workload + " per-layer (traced pass)", o);
    } else {
      o = untraced_pass(sc, a.seconds, 3, a.forensics_dir);
      print_metrics(a.workload + " end-to-end (untraced pass)", o);
    }
    return print_result(o) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
