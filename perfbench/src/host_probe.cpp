#include "host_probe.hpp"

#include "spans.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kWords = (std::uint64_t{4} << 20) / 8;  // 4 MiB
constexpr int kSteps = 32'768;

}  // namespace

HostProbe::HostProbe() : table_(kWords) {
  for (std::uint64_t i = 0; i < kWords; ++i) table_[i] = i * 7;
}

double HostProbe::measure() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = x_;
  std::uint64_t acc = acc_;
  for (int i = 0; i < kSteps; ++i) {
    x ^= x << 13;  // xorshift64
    x ^= x >> 7;
    x ^= x << 17;
    acc += table_[x & (kWords - 1)];
    table_[(x >> 20) & (kWords - 1)] += acc;
  }
  x_ = x;
  acc_ = acc;
  return seconds_since(t0);
}

double HostProbe::mean(int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += measure();
  return sum / n;
}

}  // namespace perfbench
