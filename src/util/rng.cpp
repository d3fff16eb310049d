#include "util/rng.hpp"

#include <cmath>

namespace lsl::util {

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t seq) : state_(0), inc_((seq << 1u) | 1u) {
  next_u32();
  state_ += seed;
  next_u32();
}

std::uint32_t Pcg32::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint32_t Pcg32::next_below(std::uint32_t bound) {
  // Lemire-style rejection keeps the distribution exactly uniform.
  const std::uint32_t threshold = (-bound) % bound;
  for (;;) {
    const std::uint32_t r = next_u32();
    if (r >= threshold) return r % bound;
  }
}

double Pcg32::next_double() {
  return next_u32() * (1.0 / 4294967296.0);
}

double Pcg32::next_range(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

bool Pcg32::next_bool() {
  return (next_u32() & 1u) != 0;
}

double Pcg32::polar_pair(double& u, double& v) {
  double s = 0.0;
  do {
    u = next_range(-1.0, 1.0);
    v = next_range(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return s;
}

double Pcg32::next_gaussian() {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  double u = 0.0;
  double v = 0.0;
  const double s = polar_pair(u, v);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  have_spare_ = true;
  return u * factor;
}

void Pcg32::discard_gaussians(std::size_t n) {
  if (n > 0 && have_spare_) {
    have_spare_ = false;
    --n;
  }
  double u = 0.0;
  double v = 0.0;
  for (; n >= 2; n -= 2) (void)polar_pair(u, v);
  if (n == 1) (void)next_gaussian();
}

}  // namespace lsl::util
