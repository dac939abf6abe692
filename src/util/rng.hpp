// Deterministic, portable random number generation.
//
// The standard library's distribution objects (std::normal_distribution,
// std::lognormal_distribution, ...) produce implementation-defined sequences,
// which would make the paper's figures non-reproducible across toolchains.
// nldl therefore ships its own generator (xoshiro256**, seeded via SplitMix64)
// and its own distribution transforms, so that every experiment is
// bit-reproducible given a seed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace nldl::util {

/// SplitMix64 — used to expand a single 64-bit seed into generator state.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — Blackman & Vigna's general-purpose generator.
/// Satisfies the C++ UniformRandomBitGenerator requirements.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256StarStar(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Advance the state by 2^128 steps; used to derive non-overlapping
  /// streams for parallel workers.
  void jump() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// High-level seeded RNG with the distribution transforms nldl needs.
///
/// All transforms are implemented in-library (not via <random> distribution
/// objects) for cross-platform reproducibility; see the file comment.
class Rng {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0x5EEDBA5EBA11ULL;

  explicit Rng(std::uint64_t seed = kDefaultSeed) noexcept : gen_(seed) {}

  /// Raw 64 uniformly random bits.
  std::uint64_t next_u64() noexcept { return gen_(); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept {
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo < hi.
  double uniform(double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi] (unbiased, via
  /// rejection sampling).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via the Box–Muller transform (pairs are cached).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation (stddev >= 0).
  double normal(double mean, double stddev);

  /// Log-normal: exp(N(mu, sigma^2)). This is the distribution used by the
  /// paper's Figure 4(c) platform generator with mu = 0, sigma = 1.
  double lognormal(double mu, double sigma);

  /// Exponential with the given rate (mean 1/rate; rate > 0), via
  /// inversion. Drives the Poisson arrival process of online/.
  double exponential(double rate);

  /// Pareto (type I) with the given scale x_m > 0 and shape a > 0, via
  /// inversion: x_m · (1 − U)^(−1/a), always >= x_m. The heavy-tailed job
  /// size distribution of the qos/ traffic generators (mean a·x_m/(a−1)
  /// for a > 1, infinite otherwise).
  double pareto(double scale, double shape);

  /// Derive an independent sub-stream (jump-ahead by 2^128).
  Rng split() noexcept {
    Rng child = *this;
    child.gen_.jump();
    child.has_cached_normal_ = false;
    // Desynchronize the parent too so repeated split() calls differ.
    (void)gen_();
    return child;
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    if (values.size() < 2) return;
    for (std::size_t i = values.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i)));
      using std::swap;
      swap(values[i], values[j]);
    }
  }

 private:
  Xoshiro256StarStar gen_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace nldl::util
