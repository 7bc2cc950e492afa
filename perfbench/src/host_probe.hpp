// A fixed host-speed probe.
//
// On a shared host, other tenants slow a memory-bound run by up to 1.9x for
// seconds at a time, and the level moves over minutes, so neither a median
// nor a minimum over repetitions settles. The untraced pass runs this kernel
// before and after each setup and between short slices of each
// single-threaded run, on the same thread, and scales each span's host time
// by kProbeReferenceS over the probe's time next to it: those host times
// then read as seconds on a host running at the reference speed. The
// kernel makes random reads and writes over a 4 MiB
// table, more than the private caches hold, so it runs from the shared
// last-level cache like the simulator's cache models and request maps, and
// slows down with it. It never changes: a change to it changes every
// normalised metric.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// The probe's time on the reference host when no other tenant slows it
/// (see README.md "Host-speed normalisation").
inline constexpr double kProbeReferenceS = 440e-6;

class HostProbe {
 public:
  HostProbe();
  /// Run the kernel once; returns its host time in seconds.
  double measure();
  /// Mean of `n` back-to-back measure() calls.
  double mean(int n);

 private:
  std::vector<std::uint64_t> table_;
  std::uint64_t x_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc_ = 0;
};

}  // namespace perfbench
