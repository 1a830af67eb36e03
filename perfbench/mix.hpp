// Problem catalogues and seeded host data for the benchmark workloads.
// Every input is made by the benchmark's own generator and oracle, never
// by library code, so a change to the library cannot change what the
// benchmark feeds it or checks against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/permutation.hpp"
#include "tensor/shape.hpp"

namespace perfbench {

/// splitmix64: the benchmark's input generator.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (x_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t x_;
};

struct Problem {
  ttlg::Shape shape;
  ttlg::Permutation perm;
  int elem = 8;  ///< 4 = float, 8 = double
  std::string to_string() const;
};

/// The problem shapes are a fixed catalogue, the same for every seed, so
/// that runs with different seeds measure the same planning and
/// execution work: with shapes drawn per seed, one seed's slowest
/// problem alone moved single_use's p99 by 3x and its throughput by 20%.
/// The run's seed draws everything else: tensor values, op order,
/// arrival times, bursts and popularity.

/// The library workloads' catalogue: 48 problems of ranks 2-6 and
/// volumes 2^13-2^16, a quarter of them floats. Problems are drawn in
/// four structural classes (matching FVI with a wide or a narrow first
/// extent; non-matching FVI with wide or with narrow FVI extents) so
/// that every schema of the taxonomy is reached, and stratified by
/// volume and rank.
std::vector<Problem> library_mix();

/// `count` doubles of volume [vol_lo, vol_hi], ranks rank_lo-5,
/// stratified like library_mix; `set` names one fixed catalogue.
std::vector<Problem> double_mix(int set, int count, std::int64_t vol_lo,
                                std::int64_t vol_hi, int rank_lo = 2);

/// Seeded values in [-1, 1) for one tensor.
template <class T>
std::vector<T> make_values(std::uint64_t seed, std::int64_t n) {
  SeedRng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(n));
  for (T& x : v) x = static_cast<T>(rng.unit() * 2.0 - 1.0);
  return v;
}

/// Host oracle: out[rho(i)] = in[i], where output dimension j is input
/// dimension perm[j].
template <class T>
std::vector<T> oracle_transpose(const std::vector<T>& in,
                                const ttlg::Shape& shape,
                                const ttlg::Permutation& perm) {
  const auto rank = static_cast<std::size_t>(shape.rank());
  std::vector<std::int64_t> ext(rank), out_stride_of_in(rank);
  for (std::size_t k = 0; k < rank; ++k)
    ext[k] = shape.extent(static_cast<ttlg::Index>(k));
  std::int64_t stride = 1;
  for (std::size_t j = 0; j < rank; ++j) {
    const auto k = static_cast<std::size_t>(perm[static_cast<ttlg::Index>(j)]);
    out_stride_of_in[k] = stride;
    stride *= ext[k];
  }
  std::vector<T> out(in.size());
  std::vector<std::int64_t> idx(rank, 0);
  std::int64_t o = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[static_cast<std::size_t>(o)] = in[i];
    for (std::size_t k = 0; k < rank; ++k) {
      o += out_stride_of_in[k];
      if (++idx[k] < ext[k]) break;
      o -= out_stride_of_in[k] * ext[k];
      idx[k] = 0;
    }
  }
  return out;
}

}  // namespace perfbench
