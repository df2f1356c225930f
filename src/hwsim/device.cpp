#include "hwsim/device.hpp"

#include <cmath>

#include "support/common.hpp"

namespace aal {

SimulatedDevice::SimulatedDevice(TargetSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {}

double SimulatedDevice::sample_time_us(const KernelProfile& profile,
                                       std::int64_t config_flat,
                                       int repeat) const {
  AAL_CHECK(profile.valid, "cannot sample an invalid kernel profile");
  AAL_CHECK(repeat >= 0, "repeat index must be >= 0");
  // Counter-based stream: mix (flat, repeat) into a per-call key, then fold
  // in the device seed. splitmix64 is a bijection, so distinct
  // (flat, repeat) pairs map to distinct keys; xoshiro's reseed scrambles
  // the key again, giving each call an unrelated short stream.
  const std::uint64_t key =
      splitmix64(static_cast<std::uint64_t>(config_flat) * 0x9E3779B97F4A7C15ULL +
                 static_cast<std::uint64_t>(repeat));
  Rng rng(splitmix64(seed_ ^ key));
  // Multiplicative log-normal noise (centered so E[factor] ~= 1) plus a
  // small absolute launch jitter that dominates for microsecond kernels.
  const double sigma = profile.noise_sigma;
  const double factor =
      std::exp(rng.next_gaussian(-0.5 * sigma * sigma, sigma));
  const double jitter_us = std::abs(rng.next_gaussian(0.0, 0.15));
  total_runs_.fetch_add(1, std::memory_order_relaxed);
  return profile.base_time_us * factor + jitter_us;
}

MeasureOutcome SimulatedDevice::run(const KernelProfile& profile,
                                    std::int64_t flops, int repeats,
                                    std::int64_t config_flat,
                                    int attempt) const {
  AAL_CHECK(repeats >= 1, "repeats must be >= 1");
  // The timing stream is attempt-invariant by contract (see Device::run):
  // a retry after a transient fault reproduces the fault-free values.
  (void)attempt;
  MeasureOutcome out;
  if (!profile.valid) {
    out.ok = false;
    out.error = profile.error;
    return out;
  }
  out.ok = true;
  out.times_us.reserve(static_cast<std::size_t>(repeats));
  double total = 0.0;
  for (int i = 0; i < repeats; ++i) {
    const double t = sample_time_us(profile, config_flat, i);
    out.times_us.push_back(t);
    total += t;
  }
  out.mean_time_us = total / repeats;
  out.gflops = static_cast<double>(flops) / (out.mean_time_us * 1e3);
  return out;
}

}  // namespace aal
