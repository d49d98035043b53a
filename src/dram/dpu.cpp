#include "dram/dpu.hpp"

#include <algorithm>
#include <bit>

#include "dram/subarray.hpp"

namespace pima::dram {
namespace {

// Set bits of `bits` in [lo, lo+width): each word the range touches is
// masked to it and counted whole.
std::size_t range_popcount(const BitVector& bits, std::size_t lo,
                           std::size_t width) {
  std::size_t n = 0;
  for (std::size_t i = lo, end = lo + width; i < end;) {
    const std::size_t w = i / 64, off = i % 64;
    const std::size_t take = std::min<std::size_t>(64 - off, end - i);
    const std::uint64_t mask =
        (take == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << take) - 1)
        << off;
    n += static_cast<std::size_t>(std::popcount(bits.word(w) & mask));
    i += take;
  }
  return n;
}

}  // namespace

bool Dpu::and_reduce(Subarray& sa, std::size_t row, std::size_t width) {
  return popcount(sa, row, width) == width;
}

bool Dpu::or_reduce(Subarray& sa, std::size_t row, std::size_t width) {
  return popcount(sa, row, width) > 0;
}

std::size_t Dpu::popcount(Subarray& sa, std::size_t row, std::size_t width) {
  PIMA_CHECK(width <= sa.geometry().columns, "reduce width exceeds row");
  return range_popcount(sa.dpu_fetch(row), 0, width);
}

std::size_t Dpu::popcount_range(Subarray& sa, std::size_t row, std::size_t lo,
                                std::size_t width) {
  PIMA_CHECK(lo + width <= sa.geometry().columns, "reduce range exceeds row");
  return range_popcount(sa.dpu_fetch(row), lo, width);
}

std::size_t Dpu::popcount_pairs(Subarray& sa, std::size_t row, std::size_t lo,
                                std::size_t pairs) {
  PIMA_CHECK(lo + 2 * pairs <= sa.geometry().columns,
             "pair range exceeds row");
  const BitVector& bits = sa.dpu_fetch(row);
  std::size_t n = 0;
  for (std::size_t p = 0; p < pairs; ++p)
    if (bits.get(lo + 2 * p) && bits.get(lo + 2 * p + 1)) ++n;
  return n;
}

}  // namespace pima::dram
