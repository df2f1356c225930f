// Backend-neutral hardware target description.
//
// A TargetSpec names one deployment backend and carries the machine
// parameters its analytical device model needs. Three backend kinds are
// modeled:
//   * GPU  — the original Pascal-class CUDA simulator (GpuSpec);
//   * CPU  — a multicore SIMD CPU with a three-level cache hierarchy;
//   * FPGA — an AutoSA-style systolic array with on-chip local buffers.
// Every target is reachable by a stable registry name (`make_target`), which
// is the vocabulary of the CLI's --target flag, the bench baselines and the
// record-store task keys of non-default targets. The default target,
// gpu-pascal, reproduces the pre-target-layer behavior bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hwsim/gpu_spec.hpp"

namespace aal {

enum class TargetKind : int { kGpu, kCpu, kFpga };

/// Stable wire name of a target kind ("gpu", "cpu", "fpga").
const char* target_kind_name(TargetKind kind);

/// Multicore SIMD CPU description for the analytical CPU model. The model
/// needs the cache hierarchy (capacities and miss costs), the vector width
/// and the core count to reproduce the landscape a TVM x86 schedule sees:
/// cache-blocking cliffs, vectorization remainders, register spills and
/// parallel-grain tradeoffs.
struct CpuSpec {
  const char* name = "generic-cpu";

  int cores = 16;
  double clock_ghz = 3.0;
  /// fp32 lanes per vector unit (8 = AVX2, 16 = AVX-512).
  int simd_width = 8;
  /// Vector FMA pipes per core that can issue each cycle.
  int fma_ports = 2;
  /// Architectural vector registers available for accumulators.
  int vector_registers = 16;

  // Per-core private caches plus the shared last-level cache.
  std::int64_t l1_bytes = 32 * 1024;
  std::int64_t l2_bytes = 1024 * 1024;
  std::int64_t l3_bytes = 32LL * 1024 * 1024;  // shared across cores
  // Load-to-use miss costs in core cycles (next level services the miss).
  double l2_miss_cycles = 14.0;
  double l3_miss_cycles = 42.0;
  double dram_miss_cycles = 180.0;

  double dram_bw_gbps = 42.0;
  /// Cost of dispatching one wave of parallel tasks onto the thread pool.
  double parallel_launch_overhead_us = 3.0;

  /// Arithmetic-rate multipliers relative to fp32 (fp16 emulated, int8 via
  /// dp-style instructions).
  double fp16_rate = 1.0;
  double int8_rate = 2.0;

  /// Peak fp32 throughput in GFLOPS (FMA = 2 flops per lane per cycle).
  double peak_gflops() const {
    return 2.0 * static_cast<double>(cores) * simd_width * fma_ports *
           clock_ghz;
  }

  /// Desktop-class 16-core AVX2 part (the cpu-simd registry target).
  static CpuSpec desktop_simd();
};

/// Systolic-array FPGA description, in the spirit of AutoSA's generated
/// accelerators: a rectangular PE array with per-PE SIMD lanes, on-chip
/// local buffers fed by off-chip DRAM, deep pipelines whose fill cost is
/// paid per tile invocation, and double-buffering that hides (most of) the
/// transfer time behind compute.
struct FpgaSpec {
  const char* name = "generic-fpga";

  int pe_rows = 16;
  int pe_cols = 16;
  /// MAC units per PE issuing each cycle (SIMD inside the PE).
  int simd_lanes = 8;
  double clock_ghz = 0.30;  // typical post-place-and-route fabric clock

  /// Total on-chip local-buffer capacity (BRAM/URAM) available to one
  /// kernel's input/weight/output tiles.
  std::int64_t local_buffer_bytes = 4LL * 1024 * 1024;

  /// Pipeline depth in cycles: paid once per (tile invocation x outer
  /// reduction step) before the array streams at full rate.
  int pipeline_depth = 48;
  /// Fraction of off-chip transfer hidden behind compute by double
  /// buffering (0 = fully serialized, 1 = perfect overlap).
  double latency_hiding = 0.85;

  double dram_bw_gbps = 19.2;  // one DDR4-2400 channel
  /// Host-side kernel invocation overhead (once per enqueued run).
  double launch_overhead_us = 30.0;

  double fp16_rate = 2.0;  // narrower datapaths pack two MACs per DSP
  double int8_rate = 4.0;

  /// Peak fp32 throughput in GFLOPS across the full array.
  double peak_gflops() const {
    return 2.0 * static_cast<double>(pe_rows) * pe_cols * simd_lanes *
           clock_ghz;
  }

  /// Mid-range 16x16 systolic array (the fpga-systolic registry target).
  static FpgaSpec midrange_systolic();
};

/// One deployment target: a backend kind plus the matching machine spec.
/// Only the spec matching `kind` is meaningful; the others stay at their
/// defaults. Value type — cheap to copy, safe to store by value.
struct TargetSpec {
  TargetKind kind = TargetKind::kGpu;
  /// Stable registry name ("gpu-pascal", "cpu-simd", ...): the CLI / bench /
  /// record-store vocabulary.
  std::string name = "gpu-pascal";
  /// Human-readable device label for banners and logs.
  std::string device_name = "GeForce GTX 1080 Ti";

  GpuSpec gpu;    // valid when kind == kGpu
  CpuSpec cpu;    // valid when kind == kCpu
  FpgaSpec fpga;  // valid when kind == kFpga

  /// Peak fp32 throughput of the active backend in GFLOPS.
  double peak_gflops() const;

  /// Off-chip memory bandwidth of the active backend in GB/s.
  double dram_bw_gbps() const;

  /// Per-kernel launch/dispatch overhead of the active backend in us.
  double launch_overhead_us() const;

  /// Wraps a custom GpuSpec as a GPU target — the one GpuSpec -> TargetSpec
  /// entry point (registered machines come from make_target). A spec equal
  /// in every field to a registered GPU maps back to its registry name; any
  /// other gets a fingerprint-qualified name ("gpu-custom-xxxxxxxx" over the
  /// spec's fields) so two distinct machines never share a store key
  /// namespace — a shared name would leak tuning records and transfer
  /// priors across unrelated hardware.
  static TargetSpec from_gpu(const GpuSpec& spec);
};

/// Names of every registered target, in table order.
const std::vector<std::string>& target_names();

/// Resolves a registry name to its TargetSpec. Unknown names throw
/// InvalidArgument with a did-you-mean suggestion plus the valid names.
TargetSpec make_target(const std::string& name);

/// One-line description of a registered target (for --list-targets).
std::string target_description(const std::string& name);

}  // namespace aal
