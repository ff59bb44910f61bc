#include "simcore/Rng.h"

#include <stdexcept>

namespace vg::sim {

namespace {

__extension__ typedef unsigned __int128 U128;

}  // namespace

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument{"uniform_int: lo > hi"};
  // Work in unsigned arithmetic: hi - lo overflows int64 for wide ranges.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (span == ~std::uint64_t{0}) return static_cast<std::int64_t>(engine_());
  // Lemire (2019): the high word of x * n is uniform on [0, n) once draws
  // whose low word falls below 2^64 mod n are rejected.
  const std::uint64_t n = span + 1;
  U128 m = static_cast<U128>(engine_()) * n;
  if (static_cast<std::uint64_t>(m) < n) {
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    while (static_cast<std::uint64_t>(m) < threshold) {
      m = static_cast<U128>(engine_()) * n;
    }
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   static_cast<std::uint64_t>(m >> 64));
}

double Rng::normal(double mean, double stddev) {
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return mean + stddev * u * std::sqrt(-2.0 * std::log(s) / s);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument{"weighted_index: negative weight"};
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument{"weighted_index: all weights zero"};
  double x = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: x landed exactly on total
}

std::uint64_t RngRegistry::hash_name(std::uint64_t seed, std::string_view name) {
  std::uint64_t h = 14695981039346656037ULL ^ seed;
  for (char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return splitmix64(h);
}

Rng& RngRegistry::stream(std::string_view name) {
  for (Stream& s : streams_) {
    if (s.name == name) return s.rng;
  }
  Stream& s = streams_.emplace_back(
      Stream{std::string{name}, Rng{hash_name(root_seed_, name)}});
  return s.rng;
}

}  // namespace vg::sim
