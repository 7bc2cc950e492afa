#include "scenario.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <variant>

#include "host_probe.hpp"
#include "noc/traffic_gen.hpp"
#include "pac/pac.hpp"
#include "sim/sharded_system.hpp"
#include "sim/system.hpp"
#include "spans.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using namespace pacsim;

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> kNames{"paper-gs", "latency-bfs",
                                               "sharded-mesh"};
  return kNames;
}

namespace {

std::function<TraceSet()> suite_generator(const char* suite,
                                          const WorkloadConfig& w) {
  const Workload* workload = find_workload(suite);
  if (workload == nullptr) {
    throw std::logic_error(std::string("perfbench: no suite ") + suite);
  }
  return [workload, w] { return workload->generate(w); };
}

}  // namespace

Scenario make_scenario(const std::string& name, std::uint64_t seed,
                       Size size) {
  const bool full = size == Size::kFull;
  Scenario sc;
  sc.name = name;
  if (name == "paper-gs") {
    // Paper config (Table 1 defaults): 8 cores, MLP 8, prefetch on, HMC,
    // PAC, fast-forward on. The Fig. 15 peak: bandwidth-bound and
    // coalescer-heavy.
    WorkloadConfig w;
    w.num_cores = 8;
    w.seed = seed;
    w.max_ops_per_core = full ? 300'000 : 4'000;
    sc.cfg.num_cores = w.num_cores;
    sc.cfg.coalescer = CoalescerKind::kPac;
    sc.generate = suite_generator("gs", w);
  } else if (name == "latency-bfs") {
    // Latency-bound and read-mostly: two cores with one outstanding load,
    // no prefetcher, no coalescing. The event horizon skips most cycles.
    WorkloadConfig w;
    w.num_cores = 2;
    w.seed = seed;
    w.max_ops_per_core = full ? 1'000'000 : 10'000;
    // A quarter-size graph: a core's ops then cover whole traversals, so
    // the simulated statistics vary by about 1% across seeds instead of
    // 25% (the first levels of one traversal depend on the seed).
    w.scale = 0.25;
    sc.cfg.num_cores = w.num_cores;
    sc.cfg.max_outstanding_loads = 1;
    sc.cfg.enable_prefetch = false;
    sc.cfg.coalescer = CoalescerKind::kDirect;
    sc.generate = suite_generator("bfs", w);
  } else if (name == "sharded-mesh") {
    // Open-loop Zipf traffic over a 4-cube mesh with link CRC errors, so
    // the retry port tracks every request; 8 cores in 4 shards on 2 worker
    // threads. The bandwidth-bound host profile of bench_multicube: MLP 32
    // and 16 controller slots per cube.
    constexpr std::uint32_t kCubes = 4;
    TrafficConfig t;
    t.cubes = kCubes;
    t.zipf = 0.8;
    t.store_percent = 20;
    t.num_cores = 8;
    t.ops_per_core = full ? 60'000 : 2'000;
    t.seed = seed;
    t.cube_capacity_bytes = sc.cfg.hmc.map.capacity_bytes;
    SystemConfig& c = sc.cfg;
    c.num_cores = t.num_cores;
    c.identity_paging = true;
    c.max_outstanding_loads = 32;
    c.noc.cubes = kCubes;
    c.noc.topology = Topology::kMesh;
    c.coalescer = CoalescerKind::kPac;
    const std::uint32_t conc = 16 * kCubes;
    c.pac.maq_entries = conc;
    c.pac.num_mshrs = conc;
    c.miss_queue_entries = std::max(c.miss_queue_entries, conc);
    c.fault.link_error_rate = 1e-3;
    c.exec.shards = 4;
    c.exec.threads = 2;
    sc.generate = [t] { return generate_traffic(t); };
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return sc;
}

namespace {

/// Target host time of one slice of a probed System run: short next to the
/// host's speed swings, long next to one probe.
constexpr double kSliceS = 0.02;
/// Probes averaged before and after setup.
constexpr int kProbesAround = 4;

/// System::run() in slices of about kSliceS with the probe between them;
/// run_until() splits a run bit-identically. Each slice's host time is
/// scaled by kProbeReferenceS over the faster of the probes on either side
/// of it, so one probe the scheduler interrupted does not count.
RunResult run_probed(System& s, HostProbe& probe, double before, Timings& t) {
  Cycle step = 1024;
  Clock::time_point t0 = Clock::now();
  s.begin_run();
  for (bool done = false; !done;) {
    done = s.run_until(s.now() + step);
    const double dt = seconds_since(t0);
    const double after = probe.measure();
    t.run_s += dt;
    t.run_ref_s += dt * kProbeReferenceS / std::min(before, after);
    before = after;
    if (dt < kSliceS / 2) {
      step *= 2;
    } else if (dt > kSliceS * 2 && step > 1) {
      step /= 2;
    }
    t0 = Clock::now();
  }
  RunResult r = s.collect_result();
  const double dt = seconds_since(t0);
  t.run_s += dt;
  t.run_ref_s += dt * kProbeReferenceS / before;
  return r;
}

}  // namespace

RunOutput run_scenario(const Scenario& sc, const SystemConfig& cfg,
                       HostProbe* probe) {
  using Sec = std::chrono::duration<double>;
  RunOutput out;
  const double probe_before_setup =
      probe != nullptr ? probe->mean(kProbesAround) : 0.0;
  const Clock::time_point t0 = Clock::now();
  out.traces = std::make_shared<const TraceSet>(sc.generate());
  const Clock::time_point t1 = Clock::now();

  std::variant<std::unique_ptr<System>, std::unique_ptr<ShardedSystem>> sys;
  if (cfg.exec.sharded()) {
    sys = std::make_unique<ShardedSystem>(cfg);
  } else {
    sys = std::make_unique<System>(cfg);
  }
  const Clock::time_point t2 = Clock::now();

  std::visit(
      [&](auto& s) {
        for (std::uint32_t core = 0; core < cfg.num_cores; ++core) {
          s->load_trace(core,
                        core < out.traces->size()
                            ? SharedTrace(out.traces, &(*out.traces)[core])
                            : SharedTrace{});
        }
      },
      sys);
  const Clock::time_point t3 = Clock::now();
  if (probe == nullptr) {
    out.result = std::visit([](auto& s) { return s->run(); }, sys);
    out.t.run_s = seconds_since(t3);
  } else {
    const double probe_after_setup = probe->mean(kProbesAround);
    out.t.setup_ref_s = Sec(t3 - t0).count() * kProbeReferenceS /
                        std::min(probe_before_setup, probe_after_setup);
    if (auto* plain = std::get_if<std::unique_ptr<System>>(&sys)) {
      out.result = run_probed(**plain, *probe, probe_after_setup, out.t);
    } else {
      // A ShardedSystem's shards run on worker threads, whose speed a probe
      // on this thread does not follow: scaled by probes around the run,
      // the repetitions of sharded-mesh spread twice as wide as measured.
      // So its run time stays as measured.
      const Clock::time_point t4 = Clock::now();
      out.result = std::get<std::unique_ptr<ShardedSystem>>(sys)->run();
      out.t.run_s = seconds_since(t4);
      out.t.run_ref_s = out.t.run_s;
    }
  }

  out.t.generate_s = Sec(t1 - t0).count();
  out.t.construct_s = Sec(t2 - t1).count();
  out.t.load_s = Sec(t3 - t2).count();
  out.t.setup_s = Sec(t3 - t0).count();

  if (auto* sharded = std::get_if<std::unique_ptr<ShardedSystem>>(&sys)) {
    for (unsigned s = 0; s < (*sharded)->shard_count(); ++s) {
      out.shard_cycle_sum += (*sharded)->shard(s).now();
    }
  } else {
    out.shard_cycle_sum = std::get<std::unique_ptr<System>>(sys)->now();
  }
  for (const Trace& trace : *out.traces) {
    for (const TraceOp& op : trace) {
      out.mem_ops += op.kind == OpKind::kLoad || op.kind == OpKind::kStore ||
                     op.kind == OpKind::kAtomic;
    }
  }
  return out;
}

std::unique_ptr<Coalescer> make_controller(const SystemConfig& cfg,
                                           DevicePort* port, const Pac** pac) {
  *pac = nullptr;
  switch (cfg.coalescer) {
    case CoalescerKind::kPac: {
      auto p = std::make_unique<Pac>(cfg.pac, port);
      *pac = p.get();
      return p;
    }
    case CoalescerKind::kMshrDmc:
      return std::make_unique<MshrDmc>(cfg.mshr_dmc, port);
    case CoalescerKind::kDirect:
      return std::make_unique<DirectController>(cfg.direct, port);
    case CoalescerKind::kSortingDmc:
      return std::make_unique<SortingCoalescer>(cfg.sorting_dmc, port);
  }
  throw std::logic_error("perfbench: unknown coalescer kind");
}

Digest digest(const RunResult& r, const PacStats* pac) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  Digest d{
      {"cycles", r.cycles},
      {"coal.raw_requests", r.coal.raw_requests},
      {"coal.coalesced_away", r.coal.coalesced_away},
      {"coal.issued_requests", r.coal.issued_requests},
      {"coal.issued_payload_bytes", r.coal.issued_payload_bytes},
      {"coal.comparisons", r.coal.comparisons},
      {"coal.atomics", r.coal.atomics},
      {"coal.fences", r.coal.fences},
      {"coal.request_size_mean", bits(r.coal.request_size_bytes.mean())},
      {"backend.requests", r.hmc.requests},
      {"backend.row_accesses", r.hmc.row_accesses},
      {"backend.bank_conflicts", r.hmc.bank_conflicts},
      {"backend.conflict_wait_cycles", r.hmc.conflict_wait_cycles},
      {"backend.refreshes", r.hmc.refreshes},
      {"backend.request_flits", r.hmc.request_flits},
      {"backend.response_flits", r.hmc.response_flits},
      {"backend.payload_bytes", r.hmc.payload_bytes},
      {"backend.latency_count", r.hmc.access_latency.count()},
      {"backend.latency_sum", bits(r.hmc.access_latency.sum())},
      {"l1_hits", r.l1_hits},
      {"l1_misses", r.l1_misses},
      {"llc_hits", r.llc_hits},
      {"llc_misses", r.llc_misses},
      {"prefetches_issued", r.prefetches_issued},
      {"core_stall_cycles", r.core_stall_cycles},
      {"total_energy", bits(r.total_energy)},
      {"noc.req_packets", r.noc.req_packets},
      {"noc.rsp_packets", r.noc.rsp_packets},
      {"noc.nack_packets", r.noc.nack_packets},
      {"noc.link_crc_nacks", r.noc.link_crc_nacks},
      {"noc.ingress_retries", r.noc.ingress_retries},
      {"retry.retransmissions", r.resilience.retry.retransmissions},
      {"retry.nacks", r.resilience.retry.nacks},
      {"retry.timeout_fires", r.resilience.retry.timeout_fires},
      {"fault.link_errors", r.resilience.fault.link_errors},
  };
  std::uint64_t link_busy = 0;
  for (const LinkStats& l : r.noc.links) link_busy += l.busy_cycles;
  d.emplace_back("noc.link_busy_cycles", link_busy);
  for (std::size_t i = 0; i < r.energy.size(); ++i) {
    d.emplace_back("energy." + std::to_string(i), bits(r.energy[i]));
  }
  if (pac == nullptr && r.has_pac) pac = &r.pac;
  if (pac != nullptr) {
    d.insert(d.end(),
             {{"pac.flushed_streams", pac->flushed_streams},
              {"pac.timeout_flushes", pac->timeout_flushes},
              {"pac.fence_flushes", pac->fence_flushes},
              {"pac.full_chunk_flushes", pac->full_chunk_flushes},
              {"pac.c0_bypass_requests", pac->c0_bypass_requests},
              {"pac.controller_bypass_requests",
               pac->controller_bypass_requests},
              {"pac.cross_page_adjacent", pac->cross_page_adjacent},
              {"pac.mshr_merges", pac->mshr_merges},
              {"pac.stream_occupancy_total", pac->stream_occupancy.total()},
              {"pac.stream_occupancy_mean",
               bits(pac->stream_occupancy.mean())},
              {"pac.stage2_latency_sum", bits(pac->stage2_latency.sum())},
              {"pac.stage3_latency_sum", bits(pac->stage3_latency.sum())},
              {"pac.maq_fill_latency_sum", bits(pac->maq_fill_latency.sum())},
              {"pac.request_latency_count", pac->request_latency.count()},
              {"pac.request_latency_sum", bits(pac->request_latency.sum())}});
  }
  return d;
}

std::string digest_diff(const Digest& expected, const Digest& actual) {
  if (expected.size() != actual.size()) {
    return "field count " + std::to_string(actual.size()) + " != " +
           std::to_string(expected.size());
  }
  std::string diff;
  int shown = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] == actual[i]) continue;
    if (shown++ == 4) return diff + ", ...";
    if (!diff.empty()) diff += ", ";
    diff += actual[i].first + " " + std::to_string(actual[i].second) +
            " != " + std::to_string(expected[i].second);
  }
  return diff;
}

bool conservation_closes(const VerifyStats& v) {
  return v.enabled && v.violations == 0 &&
         v.issued == v.retired + v.fences + v.poisoned;
}

}  // namespace perfbench
