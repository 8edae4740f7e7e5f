#pragma once
// Timing decorator over the "simd" engine, registered in the public
// parallel::EngineRegistry under kTracedEngine. A model compiled with that
// name, its checkpoint clones (serving replicas, distributed rank models)
// and every rank thread all forward to the simd kernels, so results are
// bit-identical to an untraced run; each call adds its wall time and one
// call to process-wide atomic counters, because ranks and shards call
// their engines concurrently.

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench {

inline constexpr const char* kTracedEngine = "perfbench_traced";

/// The four BCPNN primitives the Engine interface exposes.
enum class Primitive { kSupport, kSoftmax, kUpdateTraces, kRecomputeWeights };
inline constexpr std::size_t kPrimitives = 4;

/// Metric-name stems, indexed by Primitive.
inline constexpr std::array<const char*, kPrimitives> kPrimitiveNames = {
    "support", "softmax", "update_traces", "recompute_weights"};

/// Snapshot of the decorator's counters; subtract two to get a delta.
struct PrimitiveCounters {
  std::array<std::uint64_t, kPrimitives> calls{};
  std::array<std::uint64_t, kPrimitives> nanos{};

  [[nodiscard]] double seconds(Primitive p) const {
    return static_cast<double>(nanos[static_cast<std::size_t>(p)]) * 1e-9;
  }
  [[nodiscard]] double total_seconds() const;
  [[nodiscard]] PrimitiveCounters operator-(const PrimitiveCounters& rhs) const;
  PrimitiveCounters& operator+=(const PrimitiveCounters& rhs);
};

/// Register kTracedEngine once per process (idempotent).
void register_traced_engine();

/// Current totals over every traced engine instance in the process.
[[nodiscard]] PrimitiveCounters traced_counters();

}  // namespace perfbench
