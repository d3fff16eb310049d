// Deterministic pseudo-random number generation for reproducible
// simulation campaigns. PCG32 (O'Neill): small state, good statistical
// quality, and — unlike std::mt19937 — a stable stream across standard
// library implementations, so fault-campaign results are bit-identical
// everywhere.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lsl::util {

/// 32-bit permuted congruential generator (PCG-XSH-RR).
class Pcg32 {
 public:
  /// Seeds the generator. `seq` selects one of 2^63 independent streams.
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t seq = 0xda3e39cb94b95bdbULL);

  /// Uniform 32-bit value.
  std::uint32_t next_u32();

  /// Uniform integer in [0, bound) without modulo bias. bound must be > 0.
  std::uint32_t next_below(std::uint32_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double next_range(double lo, double hi);

  /// Fair coin flip.
  bool next_bool();

  /// Standard-normal variate by Marsaglia's polar method. Each round
  /// draws uniform (u, v) pairs until 0 < u² + v² < 1 and yields two
  /// values: this call returns the first and keeps the second as a spare,
  /// which the next call returns without drawing.
  double next_gaussian();

  /// Advances the generator exactly as `n` next_gaussian() calls would,
  /// spare included: it draws and tests the same polar pairs, but skips
  /// the log/sqrt of every pair whose two values it throws away. Only a
  /// pair whose second value stays as the spare is computed.
  void discard_gaussians(std::size_t n);

  // UniformRandomBitGenerator interface for <algorithm> interop.
  using result_type = std::uint32_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }
  result_type operator()() { return next_u32(); }

 private:
  /// Draws uniform pairs on [-1, 1)² until one falls strictly inside
  /// the unit circle and off its centre; returns u² + v².
  double polar_pair(double& u, double& v);

  std::uint64_t state_;
  std::uint64_t inc_;
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace lsl::util
