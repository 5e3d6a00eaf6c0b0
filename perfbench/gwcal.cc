// gwcal: times a fixed piece of host work, to measure how fast the host is
// running right now.
//
// The host the benchmark runs on is shared: its speed drifts by a quarter or
// more over minutes, and every workload slows together. perfbench/run.py
// starts this binary before the first sample and after every sample, and
// scales the sample's host seconds by the calibration time around it, so a
// median follows the program rather than the host. It uses no library code,
// so no change to the program can move it. One invocation prints one JSON
// object on stdout:
//
//   compute_s  nearest of 1024 four-dimensional centers for 32768 points
//   sort_s     std::sort of 2^20 random 64-bit keys
//   copy_s     memcpy of 32 MiB, 12 times
//   alloc_s    std::map insertion and in-order walk of 150000 random keys
//   cal_s      geometric mean of the four: the host-speed index
//
// The four kinds stand for the work the workloads do (kernels, sort/merge,
// buffer copies, allocation and pointer chasing); each moves with its own
// part of the host, so their mean follows the host better than any one.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

volatile double g_sink;  // keeps the compiler from dropping the work

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x;
}

template <class Fn>
double timed(Fn fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double compute() {
  constexpr int kDims = 4, kCenters = 1024, kPoints = 4096, kPasses = 8;
  std::vector<float> centers(kCenters * kDims), points(kPoints * kDims);
  for (std::size_t i = 0; i < centers.size(); ++i) centers[i] = (mix(i) % 1000) / 10.0f;
  for (std::size_t i = 0; i < points.size(); ++i) points[i] = (mix(i + 7) % 1000) / 10.0f;
  return timed([&] {
    double acc = 0;
    for (int i = 0; i < kPoints * kPasses; ++i) {
      const float* p = &points[static_cast<std::size_t>(i % kPoints) * kDims];
      float best = 1e30f;
      for (int c = 0; c < kCenters; ++c) {
        float d = 0;
        for (int k = 0; k < kDims; ++k) {
          const float x = p[k] - centers[static_cast<std::size_t>(c) * kDims + k];
          d += x * x;
        }
        best = std::min(best, d);
      }
      acc += best;
    }
    g_sink = acc;
  });
}

double sort() {
  std::vector<std::uint64_t> keys(1u << 20);
  return timed([&] {
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = mix(i * 31);
    std::sort(keys.begin(), keys.end());
    g_sink = static_cast<double>(keys[keys.size() / 2] % 7);
  });
}

double copy() {
  std::vector<char> a(32u << 20, 1), b(32u << 20, 2);
  return timed([&] {
    for (int r = 0; r < 12; ++r) {
      std::memcpy(b.data(), a.data(), a.size());
      a[static_cast<std::size_t>(r)] = b[static_cast<std::size_t>(r) * 7 + 1];
    }
    g_sink = a[3];
  });
}

double alloc() {
  return timed([] {
    std::map<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t i = 0; i < 150000; ++i) m[mix(i)] = i;
    double acc = 0;
    for (const auto& kv : m) acc += static_cast<double>(kv.second & 1);
    g_sink = acc;
  });
}

}  // namespace

int main() {
  const double t[] = {compute(), sort(), copy(), alloc()};
  double log_sum = 0;
  for (double s : t) log_sum += std::log(s);
  std::printf(
      "{\"compute_s\":%.9g,\"sort_s\":%.9g,\"copy_s\":%.9g,\"alloc_s\":%.9g,"
      "\"cal_s\":%.9g}\n",
      t[0], t[1], t[2], t[3], std::exp(log_sum / 4));
  return 0;
}
