#include "traced_engine.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "parallel/engine_registry.hpp"

namespace perfbench {
namespace {

namespace par = streambrain::parallel;
using streambrain::tensor::MatrixF;

struct Counters {
  std::array<std::atomic<std::uint64_t>, kPrimitives> calls{};
  std::array<std::atomic<std::uint64_t>, kPrimitives> nanos{};
};

Counters& counters() {
  static Counters instance;
  return instance;
}

/// Adds the lifetime of the scope to one primitive's counters.
class ScopedTimer {
 public:
  explicit ScopedTimer(Primitive primitive)
      : index_(static_cast<std::size_t>(primitive)),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    Counters& c = counters();
    c.nanos[index_].fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()),
        std::memory_order_relaxed);
    c.calls[index_].fetch_add(1, std::memory_order_relaxed);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::size_t index_;
  std::chrono::steady_clock::time_point start_;
};

class TracedEngine final : public par::Engine {
 public:
  TracedEngine() : inner_(par::EngineRegistry::instance().create("simd")) {}

  [[nodiscard]] std::string name() const override { return kTracedEngine; }

  void support(const MatrixF& x, const MatrixF& w, const float* bias,
               MatrixF& s) override {
    const ScopedTimer timer(Primitive::kSupport);
    inner_->support(x, w, bias, s);
  }

  void softmax_hcu(MatrixF& s, std::size_t mcus_per_hcu,
                   float inverse_temperature) override {
    const ScopedTimer timer(Primitive::kSoftmax);
    inner_->softmax_hcu(s, mcus_per_hcu, inverse_temperature);
  }

  void update_traces(const MatrixF& x, const MatrixF& a, float alpha,
                     float* pi, float* pj, MatrixF& pij) override {
    const ScopedTimer timer(Primitive::kUpdateTraces);
    inner_->update_traces(x, a, alpha, pi, pj, pij);
  }

  void recompute_weights(const float* pi, const float* pj, const MatrixF& pij,
                         float eps, float k_beta, MatrixF& w,
                         float* bias) override {
    const ScopedTimer timer(Primitive::kRecomputeWeights);
    inner_->recompute_weights(pi, pj, pij, eps, k_beta, w, bias);
  }

 private:
  std::unique_ptr<par::Engine> inner_;
};

}  // namespace

double PrimitiveCounters::total_seconds() const {
  double total = 0.0;
  for (std::size_t p = 0; p < kPrimitives; ++p) {
    total += seconds(static_cast<Primitive>(p));
  }
  return total;
}

PrimitiveCounters PrimitiveCounters::operator-(
    const PrimitiveCounters& rhs) const {
  PrimitiveCounters out;
  for (std::size_t p = 0; p < kPrimitives; ++p) {
    out.calls[p] = calls[p] - rhs.calls[p];
    out.nanos[p] = nanos[p] - rhs.nanos[p];
  }
  return out;
}

PrimitiveCounters& PrimitiveCounters::operator+=(
    const PrimitiveCounters& rhs) {
  for (std::size_t p = 0; p < kPrimitives; ++p) {
    calls[p] += rhs.calls[p];
    nanos[p] += rhs.nanos[p];
  }
  return *this;
}

void register_traced_engine() {
  auto& registry = par::EngineRegistry::instance();
  if (registry.contains(kTracedEngine)) return;
  par::EngineInfo info = registry.info("simd");
  info.name = kTracedEngine;
  info.description = "timing decorator over the simd engine";
  registry.register_engine(std::move(info),
                           [] { return std::make_unique<TracedEngine>(); });
}

PrimitiveCounters traced_counters() {
  PrimitiveCounters out;
  const Counters& c = counters();
  for (std::size_t p = 0; p < kPrimitives; ++p) {
    out.calls[p] = c.calls[p].load(std::memory_order_relaxed);
    out.nanos[p] = c.nanos[p].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace perfbench
