// Host-time spans recorded around calls into a layer's public interface.
//
// A Profiler keeps a stack of open spans. Closing a span charges its full
// cost to the enclosing span, so each span knows both its inclusive time and
// its self time (inclusive minus nested spans). Every sum is corrected by a
// calibrated clock cost: a span around an empty body still measures a few
// tens of nanoseconds of steady_clock, and per-call figures for calls that
// take about as long as the clock read would otherwise mostly be the clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Cost of one span: `inner_ns` is what a span measures around an empty
/// body, `outer_ns` is the time one empty span adds to its caller.
struct SpanCost {
  double inner_ns = 0.0;
  double outer_ns = 0.0;
};

/// Totals for one span site, clock cost already subtracted.
struct SpanStat {
  std::uint64_t calls = 0;
  double incl_ns = 0.0;  ///< work inside the span, nested spans' work included
  double self_ns = 0.0;  ///< work inside the span minus nested spans
};

class Profiler {
 public:
  explicit Profiler(SpanCost cost) : cost_(cost) { stack_.reserve(8); }

  class Scope {
   public:
    Scope(Profiler& p, SpanStat& stat) : p_(p), stat_(stat) {
      p_.stack_.emplace_back();
      start_ = Clock::now();
    }
    ~Scope() {
      const double dur =
          std::chrono::duration<double, std::nano>(Clock::now() - start_)
              .count();
      p_.close(stat_, dur);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler& p_;
    SpanStat& stat_;
    Clock::time_point start_;
  };

  /// Spans closed so far, nested ones included.
  [[nodiscard]] std::uint64_t spans() const { return root_.nested; }
  /// Wall time the outermost spans took from their callers' point of view:
  /// their work plus the cost of every span recorded inside them.
  [[nodiscard]] double root_charge_ns() const { return root_.child_ns; }

 private:
  struct Frame {
    double child_ns = 0.0;     ///< caller-visible time of direct children
    std::uint64_t nested = 0;  ///< spans closed inside this one
  };

  void close(SpanStat& stat, double dur_ns) {
    const Frame f = stack_.back();
    stack_.pop_back();
    ++stat.calls;
    stat.self_ns += dur_ns - cost_.inner_ns - f.child_ns;
    stat.incl_ns += dur_ns - cost_.inner_ns -
                    static_cast<double>(f.nested) * cost_.outer_ns;
    Frame& parent = stack_.empty() ? root_ : stack_.back();
    parent.child_ns += dur_ns + (cost_.outer_ns - cost_.inner_ns);
    parent.nested += 1 + f.nested;
  }

  SpanCost cost_;
  std::vector<Frame> stack_;
  Frame root_;
};

/// Measure SpanCost on this host: the median over several batches of empty
/// spans.
SpanCost calibrate_span_cost();

}  // namespace perfbench
