#include "core/degree.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "common/error.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/shard.hpp"

namespace pima::core {
namespace {

// Row allocator over a sub-array's data rows with recycling: carry-save
// intermediates are freed as soon as they are consumed, so the reduction
// runs in O(live numbers) rows instead of O(total intermediates).
class RowAllocator {
 public:
  explicit RowAllocator(const dram::Geometry& g) : limit_(g.data_rows()) {}

  dram::RowAddr alloc() {
    if (!free_.empty()) {
      const auto r = free_.back();
      free_.pop_back();
      return r;
    }
    PIMA_CHECK(next_ < limit_, "sub-array out of reserved rows");
    return next_++;
  }

  std::vector<dram::RowAddr> alloc_span(std::size_t n) {
    std::vector<dram::RowAddr> s(n);
    for (auto& r : s) r = alloc();
    return s;
  }

  void free(dram::RowAddr r) { free_.push_back(r); }

 private:
  dram::RowAddr next_ = 0;
  std::size_t limit_;
  std::vector<dram::RowAddr> free_;
};

// A vertical multi-bit number: row addresses LSB-first, held inline so
// the carry-save loop allocates nothing. 33 rows is a 32-bit readout plus
// the final add's carry-out; anything wider could not be read out.
class Number {
 public:
  static constexpr std::size_t kMaxBits = 33;

  Number() = default;
  explicit Number(dram::RowAddr r) { push_back(r); }

  void push_back(dram::RowAddr r) {
    PIMA_CHECK(size_ < kMaxBits, "vertical number wider than 33 bits");
    rows_[size_++] = r;
  }
  std::size_t size() const { return size_; }
  dram::RowAddr operator[](std::size_t i) const { return rows_[i]; }
  const dram::RowAddr* begin() const { return rows_.data(); }
  const dram::RowAddr* end() const { return rows_.data() + size_; }

 private:
  std::array<dram::RowAddr, kMaxBits> rows_{};
  std::size_t size_ = 0;
};

// 3:2 compression of three equal-width numbers: returns {sum, carry<<1}.
// Each bit step is one Subarray::compress_bit into a fresh sum row and a
// fresh carry row, allocated in that order.
std::pair<Number, Number> compress(dram::Subarray& sa, RowAllocator& alloc,
                                   dram::RowAddr zero_row, const Number& a,
                                   const Number& b, const Number& c) {
  const std::size_t w = std::max({a.size(), b.size(), c.size()});
  auto bit = [&](const Number& n, std::size_t i) {
    return i < n.size() ? n[i] : zero_row;
  };
  Number sum;
  Number carry(zero_row);  // carry has weight 2: shift left one bit
  for (std::size_t i = 0; i < w; ++i) {
    const auto s = alloc.alloc();
    const auto k = alloc.alloc();
    sa.compress_bit(bit(a, i), bit(b, i), bit(c, i), s, k);
    sum.push_back(s);
    carry.push_back(k);
  }
  return {sum, carry};
}

// Bit-serial addition of two numbers via Subarray::add_vertical.
Number add(dram::Subarray& sa, RowAllocator& alloc, dram::RowAddr zero_row,
           const Number& a, const Number& b) {
  const std::size_t w = std::max(a.size(), b.size());
  std::vector<dram::RowAddr> ap(a.begin(), a.end()), bp(b.begin(), b.end());
  ap.resize(w, zero_row);
  bp.resize(w, zero_row);
  const auto out = alloc.alloc_span(w);
  const auto carry_out = alloc.alloc();
  sa.add_vertical(ap, bp, out, carry_out);
  Number sum;
  for (const auto r : out) sum.push_back(r);
  sum.push_back(carry_out);
  return sum;
}

}  // namespace

std::vector<std::uint32_t> pim_column_sums(
    dram::Subarray& sa, const std::vector<BitVector>& rows) {
  const std::size_t width = sa.geometry().columns;
  RowAllocator alloc(sa.geometry());

  // Dedicated all-zero row for padding narrower numbers.
  const auto zero_row = alloc.alloc();
  sa.write_row(zero_row, BitVector(width));

  if (rows.empty()) return std::vector<std::uint32_t>(width, 0);

  // Map the adjacency rows in (paper "mapping" stage).
  std::vector<Number> numbers;
  numbers.reserve(rows.size());
  for (const auto& r : rows) {
    PIMA_CHECK(r.size() == width, "adjacency row width mismatch");
    const auto addr = alloc.alloc();
    sa.write_row(addr, r);
    numbers.push_back(Number{addr});
  }

  // Carry-save reduction: 3 → 2 until two numbers remain. Consumed
  // operand rows are recycled immediately (the reserved-row budget of a
  // sub-array is finite).
  auto free_number = [&](const Number& n) {
    for (const auto r : n)
      if (r != zero_row) alloc.free(r);
  };
  // Each level compacts in place: a triple's two outputs go to slots no
  // later than its own, and only after the triple has been read.
  while (numbers.size() > 2) {
    std::size_t i = 0, out = 0;
    for (; i + 3 <= numbers.size(); i += 3) {
      const auto [s, c] = compress(sa, alloc, zero_row, numbers[i],
                                   numbers[i + 1], numbers[i + 2]);
      free_number(numbers[i]);
      free_number(numbers[i + 1]);
      free_number(numbers[i + 2]);
      numbers[out++] = s;
      numbers[out++] = c;
    }
    for (; i < numbers.size(); ++i) numbers[out++] = numbers[i];
    numbers.resize(out);
  }

  // Final bit-serial addition.
  Number result = numbers[0];
  if (numbers.size() == 2) {
    result = add(sa, alloc, zero_row, numbers[0], numbers[1]);
    free_number(numbers[0]);
    free_number(numbers[1]);
  }

  // Read the vertical result out through the row buffer.
  std::vector<std::uint32_t> sums(width, 0);
  for (std::size_t bitpos = 0; bitpos < result.size(); ++bitpos) {
    PIMA_CHECK(bitpos < 32, "degree exceeds 32-bit readout");
    const BitVector& row = sa.read_row(result[bitpos]);
    for (std::size_t w = 0; w < row.word_count(); ++w)
      for (std::uint64_t bits = row.word(w); bits != 0; bits &= bits - 1)
        sums[64 * w + static_cast<std::size_t>(std::countr_zero(bits))] |=
            std::uint32_t{1} << bitpos;
  }
  return sums;
}

EdgeBlock DegreeKernel::oriented() const {
  if (!transposed) return *block;
  EdgeBlock t;
  t.source_interval = block->dest_interval;
  t.dest_interval = block->source_interval;
  t.edges.reserve(block->edges.size());
  for (const auto& e : block->edges)
    t.edges.push_back({e.to, e.from, e.multiplicity});
  return t;
}

std::vector<BitVector> DegreeKernel::rows(std::size_t width) const {
  // The in-degree kernel renders its block in place, without a copy.
  if (!transposed) return block_adjacency_rows(*block, row_count, width);
  return block_adjacency_rows(oriented(), row_count, width);
}

std::vector<DegreeKernel> degree_kernels(const dram::Geometry& geometry,
                                         const GraphPartition& partition) {
  const auto width = geometry.columns;
  const auto total = geometry.total_subarrays();
  const auto m = partition.intervals;
  std::vector<DegreeKernel> kernels;
  for (std::uint32_t i = 0; i < m; ++i) {
    for (std::uint32_t j = 0; j < m; ++j) {
      const EdgeBlock& block = partition.block(i, j);
      if (block.edges.empty()) continue;
      const auto src_count = partition.interval_vertices[i].size();
      const auto dst_count = partition.interval_vertices[j].size();
      PIMA_CHECK(dst_count <= width,
                 "interval too wide for one sub-array row — increase M");
      PIMA_CHECK(src_count <= width,
                 "interval too wide for one sub-array row — increase M");
      kernels.push_back(
          {runtime::block_subarray(total, i, j, m), &block, false, src_count});
      kernels.push_back({runtime::block_subarray(
                             total, j, i, m, static_cast<std::size_t>(m) * m),
                         &block, true, dst_count});
    }
  }
  return kernels;
}

DegreeResult pim_degrees(runtime::DevicePool& pool,
                         const assembly::DeBruijnGraph& g,
                         const GraphPartition& partition,
                         runtime::PoolRunner* runner) {
  const std::size_t width = pool.geometry().columns;
  const auto kernels = degree_kernels(pool.geometry(), partition);
  // Each kernel sums into its own slot; the controller accumulates them in
  // walk order after the barrier, independent of channel interleaving.
  std::vector<std::vector<std::uint32_t>> sums(kernels.size());
  const auto dispatch = [&] {
    for (std::size_t n = 0; n < kernels.size(); ++n) {
      const DegreeKernel& kernel = kernels[n];
      auto task = [&pool, &kernel, width, out = &sums[n]] {
        *out =
            pim_column_sums(pool.subarray(kernel.flat), kernel.rows(width));
      };
      if (runner)
        runner->submit_to_subarray(kernel.flat, std::move(task));
      else
        task();
    }
  };
  if (runner) {
    // Queued kernels reference `kernels` and `sums`: a failed submit
    // stops them before these locals unwind.
    runtime::submit_or_surface(*runner, dispatch);
    runner->drain();
  } else {
    dispatch();
  }

  DegreeResult result;
  result.in_degree.assign(g.node_count(), 0);
  result.out_degree.assign(g.node_count(), 0);
  for (std::size_t n = 0; n < kernels.size(); ++n) {
    const DegreeKernel& kernel = kernels[n];
    // Columns are the vertices of the kernel's column interval.
    const auto& columns = partition.interval_vertices
        [kernel.transposed ? kernel.block->source_interval
                           : kernel.block->dest_interval];
    auto& degree = kernel.transposed ? result.out_degree : result.in_degree;
    for (std::size_t c = 0; c < columns.size(); ++c)
      degree[columns[c]] += sums[n][c];
  }
  return result;
}

}  // namespace pima::core
