#include "mix.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {
namespace {

using ttlg::Index;

template <std::size_t N>
Index pick(SeedRng& rng, const Index (&menu)[N]) {
  return menu[static_cast<std::size_t>(rng.range(0, N - 1))];
}

/// One problem of structural class `cls`, rank `rank` and volume within
/// a factor 1.5 of `target` (and within [vol_lo, vol_hi]):
///   0: perm[0] == 0, first extent >= 32 (matching FVI, wide)
///   1: perm[0] == 0, first extent < 32  (matching FVI, narrow)
///   2: perm[0] != 0, input and output FVI extents >= 32
///   3: perm[0] != 0, input and output FVI extents < 32
/// Classes 0, 1 and 3 need rank 3 or more and get it; where the class's
/// fixed extents make the target unreachable at this rank, the rank
/// drops by one every 1000 rejected draws. Permutations never place two
/// consecutive input dimensions next to each other in order, so index
/// fusion keeps the drawn rank.
Problem draw(SeedRng& rng, int cls, int rank_in, double target,
             std::int64_t vol_lo, std::int64_t vol_hi, int elem) {
  static constexpr Index kWide[] = {32, 40, 48, 64, 96, 128, 192, 256};
  static constexpr Index kNarrow[] = {2, 3, 4, 6, 8, 12, 16};
  static constexpr Index kOther[] = {2, 3, 4, 5, 6, 7, 8, 10, 12, 16};
  // No extreme aspect ratios: a single huge extent makes one problem's
  // plan cost an outlier that would set the mix's tail on its own.
  static constexpr Index kMaxExtent = 256;
  const int min_rank = cls == 2 ? 2 : 3;
  const double lo = std::max(static_cast<double>(vol_lo), target / 1.5);
  const double hi = std::min(static_cast<double>(vol_hi), target * 1.5);
  for (int attempt = 0;; ++attempt) {
    const auto rank =
        static_cast<std::size_t>(std::max(rank_in - attempt / 1000, min_rank));
    std::vector<Index> perm(rank);
    std::iota(perm.begin(), perm.end(), Index{0});
    for (std::size_t i = rank - 1; i > 0; --i)
      std::swap(perm[i], perm[static_cast<std::size_t>(
                             rng.range(0, static_cast<std::int64_t>(i)))]);
    if (cls <= 1) {
      std::swap(perm[0], *std::find(perm.begin(), perm.end(), Index{0}));
    } else if (perm[0] == 0) {
      continue;
    }
    bool fusable = false;
    for (std::size_t j = 0; j + 1 < rank; ++j)
      fusable |= perm[j + 1] == perm[j] + 1;
    if (fusable) continue;

    std::vector<Index> ext(rank);
    for (Index& e : ext) e = pick(rng, kOther);
    const auto out_fvi = static_cast<std::size_t>(perm[0]);
    switch (cls) {
      case 0: ext[0] = pick(rng, kWide); break;
      case 1: ext[0] = pick(rng, kNarrow); break;
      case 2:
        ext[0] = pick(rng, kWide);
        ext[out_fvi] = pick(rng, kWide);
        break;
      default:
        ext[0] = pick(rng, kNarrow);
        ext[out_fvi] = pick(rng, kNarrow);
        break;
    }
    // Solve the last dimension no class rule fixed for the target.
    for (std::size_t k = rank; k-- > 1;) {
      if (k == out_fvi) continue;
      Index rest = 1;
      for (std::size_t j = 0; j < rank; ++j)
        if (j != k) rest *= ext[j];
      ext[k] = std::max<Index>(2, static_cast<Index>(std::llround(
                                      target / static_cast<double>(rest))));
      break;
    }
    if (*std::max_element(ext.begin(), ext.end()) > kMaxExtent) continue;
    if (cls == 1 && ext[0] * ext[1] < 32) continue;
    Index vol = 1;
    for (const Index e : ext) vol *= e;
    if (static_cast<double>(vol) < lo || static_cast<double>(vol) > hi) continue;
    return Problem{ttlg::Shape(ext), ttlg::Permutation(perm), elem};
  }
}

/// `count` problems stratified so that every seed gets the same spread:
/// problem i has class i % 4, the (i / 4)-th of count / 4 log-spaced
/// volume strata between vol_lo and vol_hi, and a rank cycling through
/// [rank_lo, rank_hi]. The seed picks extents, permutations and the
/// volume within each stratum. `is_float(i)` marks the float problems.
template <class IsFloat>
std::vector<Problem> stratified(SeedRng& rng, int count, int rank_lo,
                                int rank_hi, std::int64_t vol_lo,
                                std::int64_t vol_hi, IsFloat is_float) {
  const int strata = std::max(count / 4, 1);
  const double span = std::log(static_cast<double>(vol_hi) /
                               static_cast<double>(vol_lo));
  std::vector<Problem> mix;
  for (int i = 0; i < count; ++i) {
    const int stratum = (i / 4) % strata;
    const double target =
        static_cast<double>(vol_lo) *
        std::exp(span * (stratum + rng.unit()) / strata);
    const int rank = rank_lo + (i / 4) % (rank_hi - rank_lo + 1);
    mix.push_back(draw(rng, i % 4, rank, target, vol_lo, vol_hi,
                       is_float(i) ? 4 : 8));
  }
  return mix;
}

}  // namespace

std::string Problem::to_string() const {
  return shape.to_string() + "->" + perm.to_string() +
         (elem == 4 ? " f32" : " f64");
}

std::vector<Problem> library_mix() {
  SeedRng rng(0x11);
  // A quarter floats: every class in strata 1, 5 and 9.
  return stratified(rng, 48, 2, 6, std::int64_t{1} << 13,
                    std::int64_t{1} << 16, [](int i) { return (i / 4) % 4 == 1; });
}

std::vector<Problem> double_mix(int set, int count, std::int64_t vol_lo,
                                std::int64_t vol_hi, int rank_lo) {
  SeedRng rng(0x22 + static_cast<std::uint64_t>(set));
  return stratified(rng, count, rank_lo, 5, vol_lo, vol_hi,
                    [](int) { return false; });
}

}  // namespace perfbench
