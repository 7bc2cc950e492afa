// Timing decorators installed from outside the simulator.
//
// TimingCoalescer wraps the real controller that the
// SystemConfig::coalescer_factory seam builds; TimingBackend wraps a
// MemoryBackend in the standalone memory-path replay. Both are purely
// observational: every virtual is forwarded to the wrapped object, so a
// decorated run's simulated statistics equal the undecorated run's. Each
// decorator writes only to the trace object it was given, and the benchmark
// gives every shard its own, so shard threads share no mutable state.
//
// Coalescer::set_verifier is not virtual, so a wrapped controller never sees
// a verifier: verified runs are always made undecorated.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mem/memory_backend.hpp"
#include "pac/coalescer.hpp"
#include "pac/pac.hpp"
#include "spans.hpp"

namespace perfbench {

using pacsim::Cycle;

/// A raw request the controller accepted, and the cycle it accepted it.
struct RecordedRaw {
  Cycle cycle = 0;
  pacsim::MemRequest req;
};

/// What one decorated controller records.
struct CoalescerTrace {
  explicit CoalescerTrace(SpanCost cost) : prof(cost) {}

  Profiler prof;
  SpanStat accept, tick, complete, drain, next_event, fast_forward, idle;
  std::uint64_t accepted = 0;
  bool record = false;             ///< keep accepted raws for the replay
  std::vector<RecordedRaw> raws;
  const pacsim::Pac* pac = nullptr;  ///< the wrapped controller, if a Pac
  /// The Pac's statistics, kept when its decorator is destroyed.
  std::optional<pacsim::PacStats> pac_final;

  /// Work inside every span site, nested spans excluded.
  [[nodiscard]] double self_ns() const {
    return accept.self_ns + tick.self_ns + complete.self_ns + drain.self_ns +
           next_event.self_ns + fast_forward.self_ns + idle.self_ns;
  }
};

class TimingCoalescer final : public pacsim::Coalescer {
 public:
  TimingCoalescer(std::unique_ptr<pacsim::Coalescer> inner, CoalescerTrace& t)
      : inner_(std::move(inner)), t_(t) {}
  ~TimingCoalescer() override {
    if (t_.pac != nullptr) t_.pac_final = t_.pac->pac_stats();
    t_.pac = nullptr;
  }
  TimingCoalescer(const TimingCoalescer&) = delete;
  TimingCoalescer& operator=(const TimingCoalescer&) = delete;
  TimingCoalescer(TimingCoalescer&&) = delete;
  TimingCoalescer& operator=(TimingCoalescer&&) = delete;

  bool accept(const pacsim::MemRequest& request, Cycle now) override {
    bool ok = false;
    {
      Profiler::Scope s(t_.prof, t_.accept);
      ok = inner_->accept(request, now);
    }
    if (ok) {
      ++t_.accepted;
      if (t_.record) t_.raws.push_back(RecordedRaw{now, request});
    }
    return ok;
  }
  void tick(Cycle now) override {
    Profiler::Scope s(t_.prof, t_.tick);
    inner_->tick(now);
  }
  void complete(const pacsim::DeviceResponse& response, Cycle now) override {
    Profiler::Scope s(t_.prof, t_.complete);
    inner_->complete(response, now);
  }
  void drain_satisfied_into(std::vector<std::uint64_t>& out) override {
    Profiler::Scope s(t_.prof, t_.drain);
    inner_->drain_satisfied_into(out);
  }
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const override {
    Profiler::Scope s(t_.prof, t_.next_event);
    return inner_->next_event_cycle(now);
  }
  void fast_forward_to(Cycle target) override {
    Profiler::Scope s(t_.prof, t_.fast_forward);
    inner_->fast_forward_to(target);
  }
  [[nodiscard]] bool idle() const override {
    Profiler::Scope s(t_.prof, t_.idle);
    return inner_->idle();
  }
  [[nodiscard]] const pacsim::CoalescerStats& stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] std::string debug_json() const override {
    return inner_->debug_json();
  }
  void checkpoint_save(pacsim::BinWriter& w) const override {
    inner_->checkpoint_save(w);
  }
  void checkpoint_load(pacsim::BinReader& r) override {
    inner_->checkpoint_load(r);
  }

 private:
  std::unique_ptr<pacsim::Coalescer> inner_;
  CoalescerTrace& t_;
};

/// Span sites of one backend layer (hmc cubes, or the noc fabric).
struct BackendTrace {
  SpanStat submit, tick, next_event, drain, other;
};

class TimingBackend final : public pacsim::MemoryBackend {
 public:
  TimingBackend(std::unique_ptr<pacsim::MemoryBackend> inner, Profiler& prof,
                BackendTrace& t)
      : inner_(std::move(inner)), prof_(prof), t_(t) {}

  [[nodiscard]] pacsim::BackendKind kind() const override {
    return inner_->kind();
  }
  [[nodiscard]] bool can_accept() const override {
    Profiler::Scope s(prof_, t_.other);
    return inner_->can_accept();
  }
  void submit(pacsim::DeviceRequest req, Cycle now) override {
    Profiler::Scope s(prof_, t_.submit);
    inner_->submit(std::move(req), now);
  }
  void tick(Cycle now) override {
    Profiler::Scope s(prof_, t_.tick);
    inner_->tick(now);
  }
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const override {
    Profiler::Scope s(prof_, t_.next_event);
    return inner_->next_event_cycle(now);
  }
  void drain_completed_into(std::vector<pacsim::DeviceResponse>& out) override {
    Profiler::Scope s(prof_, t_.drain);
    inner_->drain_completed_into(out);
  }
  void drain_nacks_into(std::vector<pacsim::DeviceNack>& out) override {
    Profiler::Scope s(prof_, t_.other);
    inner_->drain_nacks_into(out);
  }
  [[nodiscard]] bool in_flight(std::uint64_t id) const override {
    Profiler::Scope s(prof_, t_.other);
    return inner_->in_flight(id);
  }
  void forget(std::uint64_t id) override {
    Profiler::Scope s(prof_, t_.other);
    inner_->forget(id);
  }
  [[nodiscard]] bool idle() const override {
    Profiler::Scope s(prof_, t_.other);
    return inner_->idle();
  }
  [[nodiscard]] std::uint32_t outstanding() const override {
    Profiler::Scope s(prof_, t_.other);
    return inner_->outstanding();
  }
  [[nodiscard]] const pacsim::BackendStats& stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] const pacsim::AddressMap& address_map() const override {
    return inner_->address_map();
  }
  void set_verifier(pacsim::Verifier* verifier) override {
    inner_->set_verifier(verifier);
  }
  [[nodiscard]] std::string debug_json() const override {
    return inner_->debug_json();
  }
  void checkpoint_save(pacsim::BinWriter& w) const override {
    inner_->checkpoint_save(w);
  }
  void checkpoint_load(pacsim::BinReader& r) override {
    inner_->checkpoint_load(r);
  }

 private:
  std::unique_ptr<pacsim::MemoryBackend> inner_;
  Profiler& prof_;
  BackendTrace& t_;
};

}  // namespace perfbench
