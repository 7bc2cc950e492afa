// The traced pass. Tracing is applied only from outside the simulator:
//   (a) the coalescer_factory seam installs TimingCoalescer around the real
//       controller of every shard;
//   (b) the raw requests (a) recorded are replayed, at their recorded
//       cycles, into a standalone controller -> DevicePort -> TimingBackend
//       stack, in System::step's call order; nested backend spans give the
//       coalescer's self time;
//   (c) the core traces are replayed through PageTable::translate and
//       standalone L1s plus an LLC;
//   (d) a naive-loop run and, on sharded workloads, a one-thread run.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "decorators.hpp"
#include "hmc/backend_factory.hpp"
#include "mem/page_table.hpp"
#include "noc/multi_cube_backend.hpp"
#include "passes.hpp"

namespace perfbench {

using namespace pacsim;

SpanCost calibrate_span_cost() {
  constexpr int kTrials = 7;
  constexpr int kSpans = 200'000;
  std::vector<double> inner, outer;
  for (int trial = 0; trial < kTrials; ++trial) {
    Profiler p(SpanCost{});
    SpanStat stat;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i) Profiler::Scope s(p, stat);
    outer.push_back(seconds_since(t0) * 1e9 / kSpans);
    inner.push_back(stat.incl_ns / kSpans);
  }
  return SpanCost{median(inner), median(outer)};
}

namespace {

using Traces = std::vector<std::unique_ptr<CoalescerTrace>>;

double per_call(const SpanStat& s) {
  return s.calls == 0 ? 0.0 : s.self_ns / static_cast<double>(s.calls);
}

struct Decorated {
  RunOutput out;
  Traces shards;  ///< one per shard, in shard order
};

/// (a): run with every shard's controller wrapped in a TimingCoalescer.
std::pair<Decorated, Digest> run_decorated(const Scenario& sc,
                                           SystemConfig cfg, SpanCost cost,
                                           bool record) {
  auto traces = std::make_shared<Traces>();
  const SystemConfig base = cfg;
  // Called once per shard, from the constructing thread.
  cfg.coalescer_factory = [traces, base, cost,
                           record](DevicePort* port) {
    auto t = std::make_unique<CoalescerTrace>(cost);
    t->record = record;
    auto deco = std::make_unique<TimingCoalescer>(
        make_controller(base, port, &t->pac), *t);
    traces->push_back(std::move(t));
    return std::unique_ptr<Coalescer>(std::move(deco));
  };
  Decorated d;
  d.out = run_scenario(sc, cfg);
  d.shards = std::move(*traces);

  // The wrapped Pacs died with their System; TimingCoalescer's destructor
  // kept their final statistics. Folded in shard order, as ShardedSystem
  // folds them, so the merged doubles are bit-identical.
  PacStats pac;
  bool has_pac = false;
  for (const auto& t : d.shards) {
    if (!t->pac_final) continue;
    const PacStats& s = *t->pac_final;
    has_pac = true;
    pac.flushed_streams += s.flushed_streams;
    pac.timeout_flushes += s.timeout_flushes;
    pac.fence_flushes += s.fence_flushes;
    pac.full_chunk_flushes += s.full_chunk_flushes;
    pac.c0_bypass_requests += s.c0_bypass_requests;
    pac.controller_bypass_requests += s.controller_bypass_requests;
    pac.cross_page_adjacent += s.cross_page_adjacent;
    pac.mshr_merges += s.mshr_merges;
    pac.stream_occupancy.merge(s.stream_occupancy);
    pac.stage2_latency.merge(s.stage2_latency);
    pac.stage3_latency.merge(s.stage3_latency);
    pac.maq_fill_latency.merge(s.maq_fill_latency);
    pac.request_latency.merge(s.request_latency);
  }
  Digest dig = digest(d.out.result, has_pac ? &pac : nullptr);
  return {std::move(d), std::move(dig)};
}

/// Spans of the memory-path replay; all share the coalescer trace's
/// profiler so backend spans nest inside coalescer spans.
struct ReplayTrace {
  explicit ReplayTrace(SpanCost cost) : coal(cost) {}
  CoalescerTrace coal;
  BackendTrace hmc, noc;
  SpanStat port_tick;
  double wall_s = 0.0;
};

const AddressMapConfig& map_config(const SystemConfig& cfg) {
  switch (cfg.backend) {
    case BackendKind::kHmc: return cfg.hmc.map;
    case BackendKind::kHbm: return cfg.hbm.map;
    case BackendKind::kDdr: return cfg.ddr.map;
  }
  throw std::logic_error("perfbench: unknown backend kind");
}

/// (b): replay one shard's accepted raw requests.
void replay_memory_path(const SystemConfig& cfg,
                        const std::vector<RecordedRaw>& raws,
                        ReplayTrace& rt) {
  PowerModel power(cfg.power);
  std::unique_ptr<FaultInjector> fault =
      cfg.fault.enabled() ? std::make_unique<FaultInjector>(cfg.fault)
                          : nullptr;
  Profiler& prof = rt.coal.prof;
  const auto cube = [&] {
    return std::make_unique<TimingBackend>(
        make_backend(cfg.backend, cfg.hmc, cfg.hbm, cfg.ddr, &power,
                     fault.get()),
        prof, rt.hmc);
  };
  // A workload without a fabric is replayed through a one-cube
  // MultiCubeBackend, the pass-through that the cubes=1 differential suite
  // proves bit-identical, so its noc spans measure what that layer costs
  // when it only forwards.
  NocConfig noc = cfg.noc;
  if (!noc.active()) noc.wrap_single = true;
  std::vector<std::unique_ptr<MemoryBackend>> cubes;
  for (std::uint32_t c = 0; c < noc.cubes; ++c) cubes.push_back(cube());
  const std::unique_ptr<MemoryBackend> device =
      std::make_unique<TimingBackend>(
          std::make_unique<MultiCubeBackend>(noc, map_config(cfg),
                                             std::move(cubes), fault.get()),
          prof, rt.noc);
  DevicePort port(device.get(), cfg.retry, fault != nullptr, fault.get());
  const Pac* pac = nullptr;
  TimingCoalescer coal(make_controller(cfg, &port, &pac), rt.coal);

  std::vector<DeviceResponse> completed;
  std::vector<std::uint64_t> satisfied;
  std::size_t next = 0;
  Cycle now = 0;
  const Cycle limit = 8 * (raws.empty() ? 0 : raws.back().cycle) + 10'000'000;
  const Clock::time_point t0 = Clock::now();
  while (true) {
    // System::step's order, minus the cores and caches.
    device->tick(now);
    {
      Profiler::Scope s(prof, rt.port_tick);
      port.tick(now);
    }
    port.drain_completed_into(completed);
    for (const DeviceResponse& rsp : completed) coal.complete(rsp, now);
    coal.tick(now);
    coal.drain_satisfied_into(satisfied);
    if (next < raws.size() && raws[next].cycle <= now &&
        coal.accept(raws[next].req, now)) {
      ++next;
    }
    ++now;
    if (next == raws.size() && coal.idle() && device->idle() && port.idle()) {
      break;
    }
    if (now > limit) throw std::runtime_error("memory-path replay stalled");
    // Event horizon, as System::next_event_cycle: a due feed pins stepping.
    if (next < raws.size() && raws[next].cycle <= now) continue;
    Cycle bound = device->next_event_cycle(now);
    if (bound == now) continue;
    bound = std::min(bound, port.next_event_cycle(now));
    if (bound == now) continue;
    bound = std::min(bound, coal.next_event_cycle(now));
    if (bound == now) continue;
    if (next < raws.size()) bound = std::min(bound, raws[next].cycle);
    if (bound == kNeverCycle) continue;
    coal.fast_forward_to(bound);
    now = bound;
  }
  rt.wall_s += seconds_since(t0);
}

/// (c): translate and cache-access every load and store of `traces`, the
/// cores interleaved one op at a time. Returns {translate ns, access ns}
/// per call.
std::pair<double, double> replay_caches(const SystemConfig& cfg,
                                        const TraceSet& traces) {
  struct Access {
    Addr vaddr;
    std::uint32_t core;
    bool store;
  };
  std::vector<Access> ops;
  std::size_t longest = 0;
  for (const Trace& t : traces) longest = std::max(longest, t.size());
  for (std::size_t i = 0; i < longest; ++i) {
    for (std::uint32_t c = 0; c < traces.size(); ++c) {
      if (i >= traces[c].size()) continue;
      const TraceOp& op = traces[c][i];
      if (op.kind == OpKind::kLoad || op.kind == OpKind::kStore) {
        ops.push_back(Access{op.vaddr, c, op.kind == OpKind::kStore});
      }
    }
  }
  if (ops.empty()) return {0.0, 0.0};

  PageTable pages(cfg.phys_pages, cfg.page_table_seed, cfg.identity_paging);
  std::vector<Addr> paddr(ops.size());
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    paddr[i] = pages.translate(0, ops[i].vaddr);
  }
  const double translate_s = seconds_since(t0);

  std::vector<Cache> l1(traces.size(), Cache(cfg.l1));
  Cache llc(cfg.l2);
  std::uint64_t calls = 0;
  const Clock::time_point t1 = Clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Addr block = block_base(paddr[i]);
    ++calls;
    if (!l1[ops[i].core].access(block, ops[i].store).hit) {
      ++calls;
      llc.access(block, false);
    }
  }
  const double access_s = seconds_since(t1);
  return {translate_s * 1e9 / static_cast<double>(ops.size()),
          access_s * 1e9 / static_cast<double>(calls)};
}

double frac(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

Outcome traced_pass(const Scenario& sc, const SpanCost& cost,
                    const std::string& forensics_dir) {
  Outcome o;
  std::vector<Timings> setups;
  const std::optional<Digest> ref =
      reference_run(sc, forensics_dir, o, &setups);
  if (!ref) return o;

  const auto plain = [&](const std::string& label, const SystemConfig& cfg) {
    std::optional<RunOutput> out =
        attempt(o, label, *ref, [&] { return plain_run(sc, cfg); });
    if (out) setups.push_back(out->t);
    return out;
  };

  const std::optional<RunOutput> untraced = plain("untraced run", sc.cfg);
  SystemConfig naive_cfg = sc.cfg;
  naive_cfg.enable_fast_forward = false;
  const std::optional<RunOutput> naive = plain("naive-loop run", naive_cfg);

  // Spans only add up to wall time when one thread runs every shard, so the
  // decorated run of a threaded workload is serial; a second, threaded
  // decorated run checks that shard threads still reproduce the reference.
  const bool threaded = sc.cfg.exec.threads > 1;
  SystemConfig serial_cfg = sc.cfg;
  serial_cfg.exec.threads = 1;
  std::optional<RunOutput> serial;
  if (threaded) serial = plain("one-thread run", serial_cfg);

  std::optional<Decorated> deco = attempt(o, "decorated run", *ref, [&] {
    return run_decorated(sc, serial_cfg, cost, /*record=*/true);
  });
  if (deco) setups.push_back(deco->out.t);
  if (threaded) {
    attempt(o, "threaded decorated run", *ref, [&] {
      return run_decorated(sc, sc.cfg, cost, /*record=*/false);
    });
  }
  if (!untraced || !naive || !deco || (threaded && !serial)) return o;

  ReplayTrace rt(cost);
  try {
    for (std::size_t s = 0; s < deco->shards.size(); ++s) {
      SystemConfig shard_cfg = sc.cfg;
      shard_cfg.fault.seed ^= s;  // as ShardedSystem seeds its shards
      shard_cfg.exec = ExecConfig{};
      replay_memory_path(shard_cfg, deco->shards[s]->raws, rt);
    }
  } catch (const std::exception& e) {
    o.errors.push_back(std::string("memory-path replay threw: ") + e.what());
    return o;
  }
  const auto [translate_ns, access_ns] =
      replay_caches(sc.cfg, *untraced->traces);

  const RunResult& r = untraced->result;
  const RunOutput& base = threaded ? *serial : *untraced;

  // (a) Coalescer spans of the decorated run, summed over shards.
  CoalescerTrace sum(cost);
  double root_charge_ns = 0.0;
  std::uint64_t spans = 0;
  const auto add = [](SpanStat& into, const SpanStat& from) {
    into.calls += from.calls;
    into.incl_ns += from.incl_ns;
    into.self_ns += from.self_ns;
  };
  for (const auto& t : deco->shards) {
    add(sum.accept, t->accept);
    add(sum.tick, t->tick);
    add(sum.complete, t->complete);
    add(sum.drain, t->drain);
    add(sum.next_event, t->next_event);
    add(sum.fast_forward, t->fast_forward);
    add(sum.idle, t->idle);
    sum.accepted += t->accepted;
    root_charge_ns += t->prof.root_charge_ns();
    spans += t->prof.spans();
  }
  const double traced_run_s = deco->out.t.run_s;
  const double span_cost_s = static_cast<double>(spans) * cost.outer_ns / 1e9;
  const double other_s = traced_run_s - root_charge_ns / 1e9;

  std::vector<double> gen, construct, load, setup;
  for (const Timings& t : setups) {
    gen.push_back(t.generate_s);
    construct.push_back(t.construct_s);
    load.push_back(t.load_s);
    setup.push_back(t.setup_s);
  }
  const double setup_med = median(setup);

  o.add("workloads.generate_s", median(gen), "s");
  o.add("sim.construct_s", median(construct), "s");
  o.add("sim.load_trace_s", median(load), "s");
  o.add("coalescer.accept_s", sum.accept.incl_ns / 1e9, "s");
  o.add("coalescer.accept_calls", static_cast<double>(sum.accept.calls),
        "count");
  o.add("coalescer.accept_ok_frac", frac(sum.accepted, sum.accept.calls),
        "ratio");
  o.add("coalescer.tick_s", sum.tick.incl_ns / 1e9, "s");
  o.add("coalescer.tick_calls", static_cast<double>(sum.tick.calls), "count");
  o.add("coalescer.complete_s", sum.complete.incl_ns / 1e9, "s");
  o.add("coalescer.drain_s", sum.drain.incl_ns / 1e9, "s");
  o.add("coalescer.self_s", rt.coal.self_ns() / 1e9, "s");
  o.add("coalescer.next_event_s", sum.next_event.incl_ns / 1e9, "s");
  o.add("coalescer.next_event_calls",
        static_cast<double>(sum.next_event.calls), "count");
  o.add("sim.other_s", other_s, "s");
  o.add("sim.ff_jumps", static_cast<double>(r.throughput.fast_forward_jumps),
        "count");
  o.add("sim.ff_skipped_frac",
        frac(r.throughput.skipped_cycles, untraced->shard_cycle_sum), "ratio");
  o.add("sim.ff_speedup", naive->t.run_s / untraced->t.run_s, "ratio");
  o.add("sim.epochs", static_cast<double>(r.exec.epochs), "count");
  o.add("sim.parallel_eff",
        threaded ? serial->t.run_s /
                       (r.exec.threads * untraced->t.run_s)
                 : 1.0,
        "ratio");
  o.add("hmc.submit_ns", per_call(rt.hmc.submit), "ns");
  o.add("hmc.tick_ns", per_call(rt.hmc.tick), "ns");
  o.add("hmc.next_event_ns", per_call(rt.hmc.next_event), "ns");
  o.add("hmc.drain_ns", per_call(rt.hmc.drain), "ns");
  o.add("hmc.port_tick_ns", per_call(rt.port_tick), "ns");
  o.add("hmc.retransmissions",
        static_cast<double>(r.resilience.retry.retransmissions), "count");
  o.add("hmc.bank_conflict_frac",
        frac(r.hmc.bank_conflicts, r.hmc.row_accesses), "ratio");
  o.add("noc.submit_ns", per_call(rt.noc.submit), "ns");
  o.add("noc.tick_ns", per_call(rt.noc.tick), "ns");
  std::uint64_t busiest = 0, queued = 0, packets = 0;
  for (const LinkStats& l : r.noc.links) {
    busiest = std::max(busiest, l.busy_cycles);
    queued += l.queued_packets;
    packets += l.packets;
  }
  o.add("noc.link_busy_frac", frac(busiest, untraced->shard_cycle_sum),
        "ratio");
  o.add("noc.queued_frac", frac(queued, packets), "ratio");
  o.add("noc.ingress_retries", static_cast<double>(r.noc.ingress_retries),
        "count");
  o.add("cache.access_ns", access_ns, "ns");
  o.add("mem.translate_ns", translate_ns, "ns");
  o.add("cache.l1_hit_frac", frac(r.l1_hits, r.l1_hits + r.l1_misses),
        "ratio");
  o.add("cache.llc_hit_frac", frac(r.llc_hits, r.llc_hits + r.llc_misses),
        "ratio");
  o.add("coalescer.raw_requests", static_cast<double>(r.coal.raw_requests),
        "count");
  o.add("coalescer.issued_requests",
        static_cast<double>(r.coal.issued_requests), "count");
  o.add("sim.core_stall_cycles", static_cast<double>(r.core_stall_cycles),
        "cycles");
  o.add("coalescer.coalescing_eff", r.coalescing_efficiency(), "ratio");
  o.add("sim.trace_overhead_frac", traced_run_s / base.t.run_s - 1.0,
        "ratio");
  // Phase sums. Setup: the three setup spans against the setup span. Run:
  // coalescer inclusive + sim.other_s + the calibrated span cost equals the
  // decorated run's wall time by construction, so the check is that the
  // spans never claim more than that wall time; run_residual_frac compares
  // the decorated run less its span cost with the undecorated run, two
  // separate runs, so it carries the host's run-to-run noise. Replay: the
  // replay loop does little outside its spans, so they must cover its wall
  // time.
  const double setup_residual =
      (median(gen) + median(construct) + median(load) - setup_med) / setup_med;
  const double replay_unattributed =
      (rt.wall_s - rt.coal.prof.root_charge_ns() / 1e9) / rt.wall_s;
  o.add("sim.setup_residual_frac", setup_residual, "ratio");
  o.add("sim.run_residual_frac",
        (traced_run_s - span_cost_s - base.t.run_s) / base.t.run_s, "ratio");
  o.phases_ok = std::abs(setup_residual) <= kSetupPhaseTolerance &&
                other_s >= 0.0 &&
                std::abs(replay_unattributed) <= kReplayPhaseTolerance;

  o.extra.push_back({"span_inner_ns", cost.inner_ns, "ns"});
  o.extra.push_back({"span_outer_ns", cost.outer_ns, "ns"});
  o.extra.push_back({"traced_run_s", traced_run_s, "s"});
  o.extra.push_back({"untraced_run_s", base.t.run_s, "s"});
  o.extra.push_back({"replay_wall_s", rt.wall_s, "s"});
  o.extra.push_back({"replay_unattributed_frac", replay_unattributed,
                     "ratio"});
  return o;
}

}  // namespace perfbench
