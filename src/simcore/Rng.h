#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file Rng.h
/// Deterministic, named random-number streams.
///
/// Every stochastic component of the simulation draws from a stream obtained
/// by name from the RngRegistry. Streams are seeded from (root seed, name), so
/// adding a new component never perturbs the draws of existing ones — a
/// property the experiment benches rely on for reproducible tables. A
/// component resolves its streams once, when it is built, and keeps the
/// references: no draw looks a name up.
///
/// The engine and every distribution are implemented here, so a draw
/// sequence depends only on IEEE-754 double arithmetic and the C math
/// library's log/exp — not on which C++ standard library built the program.

namespace vg::sim {

/// The splitmix64 output function: the k-th output of the splitmix64 stream
/// started at \p x is splitmix64(x + k * 0x9E3779B97F4A7C15). Decorrelates
/// seeds (fleet home seeds, fuzz seeds, stream names) and seeds every Rng.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// xoshiro256** (Blackman & Vigna, 2018): 32 bytes of state, period
/// 2^256 - 1. The state must not be all zero.
struct Xoshiro256StarStar {
  std::uint64_t s[4];

  std::uint64_t operator()() {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
};

/// A single deterministic random stream: a xoshiro256** engine behind exact
/// distributions.
class Rng {
 public:
  /// Seeds the engine with the first four outputs of the splitmix64 stream
  /// started at \p seed (never all zero: splitmix64 is a bijection).
  explicit Rng(std::uint64_t seed)
      : engine_{{splitmix64(seed), splitmix64(seed + kGamma),
                 splitmix64(seed + 2 * kGamma), splitmix64(seed + 3 * kGamma)}} {}

  /// Uniform double in [0, 1): the top 53 bits, so every value is a
  /// multiple of 2^-53 and each is equally likely.
  double uniform() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi). Rounding of lo + (hi - lo) * u can reach
  /// hi; such a draw is mapped to the largest double below hi.
  double uniform(double lo, double hi) {
    const double x = lo + (hi - lo) * uniform();
    return x < hi ? x : std::nextafter(hi, lo);
  }

  /// Uniform integer in [lo, hi] (inclusive), exactly unbiased: Lemire's
  /// multiply-shift with rejection. Any int64 range, including the full one.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal with the given mean and standard deviation (Marsaglia's polar
  /// method; the pair's second variate is discarded so the stream carries no
  /// state beyond the engine).
  double normal(double mean, double stddev);

  /// Lognormal parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// Exponential with the given mean (not rate), by inversion.
  double exponential_mean(double mean) {
    return -mean * std::log1p(-uniform());
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  /// Picks a uniformly random index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Picks a uniformly random element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[index(v.size())];
  }

  /// Picks an index according to non-negative weights (at least one positive).
  std::size_t weighted_index(const std::vector<double>& weights);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

 private:
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

  Xoshiro256StarStar engine_;
};

/// Hands out named Rng streams derived from a single root seed.
class RngRegistry {
 public:
  explicit RngRegistry(std::uint64_t root_seed) : root_seed_(root_seed) {}

  /// Returns the stream for \p name, creating it on first use. The stream's
  /// seed depends only on (root seed, name), so creating a stream early
  /// changes none of its draws. The reference stays valid for the registry's
  /// lifetime. The lookup is a linear scan: resolve once, not per draw.
  Rng& stream(std::string_view name);

  [[nodiscard]] std::uint64_t root_seed() const { return root_seed_; }

  /// Stable 64-bit hash used for stream seeding (FNV-1a + splitmix64 finish).
  static std::uint64_t hash_name(std::uint64_t seed, std::string_view name);

 private:
  struct Stream {
    std::string name;
    Rng rng;
  };

  std::uint64_t root_seed_;
  std::deque<Stream> streams_;  // a deque never moves its elements
};

}  // namespace vg::sim
