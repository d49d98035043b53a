#include "dram/subarray.hpp"

#include "dram/dpu.hpp"

namespace pima::dram {

Subarray::Subarray(const Geometry& geometry, const circuit::Technology& tech)
    : geom_(geometry), tech_(tech), latch_(geometry.columns) {
  geom_.validate();
  rows_.assign(geom_.rows, BitVector(geom_.columns));
}

RowAddr Subarray::compute_row(std::size_t i) const {
  PIMA_CHECK(i < geom_.compute_rows, "compute row index out of range");
  return geom_.data_rows() + i;
}

void Subarray::observe(Opcode op, RowAddr a, RowAddr b, RowAddr c,
                       RowAddr dst, const BitVector* payload) {
  if (fault_ != nullptr) {
    // Retention process: one tick per executed command, occasionally
    // decaying a stored data-row cell.
    if (const auto cell = fault_->retention_target())
      rows_[cell->row].set(cell->col, !rows_[cell->row].get(cell->col));
  }
  if (trace_ != nullptr) {
    // A DPU fetch replays as a full-width popcount: the fetch does not know
    // the reduce flavour or width, and every reduce has the same cost and
    // leaves the row state untouched.
    const bool dpu = kind_of(op) == CommandKind::kDpuReduce;
    trace_->record({.op = op,
                    .src1 = a,
                    .src2 = b,
                    .src3 = c,
                    .dst = dst,
                    .width = dpu ? geom_.columns : 0,
                    .payload = payload != nullptr ? *payload : BitVector()});
  }
}

const BitVector& Subarray::read_row(RowAddr r) {
  check_row(r);
  record(Opcode::kRowRead, r);
  return rows_[r];
}

void Subarray::write_row(RowAddr r, const BitVector& bits) {
  check_row(r);
  PIMA_CHECK(bits.size() == geom_.columns, "row width mismatch");
  record(Opcode::kRowWrite, r, 0, 0, 0, &bits);
  rows_[r] = bits;
}

const BitVector& Subarray::peek_row(RowAddr r) const {
  check_row(r);
  return rows_[r];
}

void Subarray::inject_bit_flip(RowAddr r, std::size_t col) {
  check_row(r);
  PIMA_CHECK(col < geom_.columns, "fault column out of row");
  rows_[r].set(col, !rows_[r].get(col));
}

void Subarray::inject_latch_flip(std::size_t col) {
  PIMA_CHECK(col < geom_.columns, "fault column out of latch");
  latch_.set(col, !latch_.get(col));
}

void Subarray::aap_copy(RowAddr src, RowAddr dst) {
  check_row(src);
  check_row(dst);
  PIMA_CHECK(src != dst,
             "AAP copy with src == des aliases the activated row; a "
             "self-copy is a refresh, not a RowClone — issue it explicitly "
             "if that is what the controller means");
  record(Opcode::kAapCopy, src, 0, 0, dst);
  rows_[dst] = rows_[src];
}

void Subarray::aap_xnor(RowAddr xa, RowAddr xb, RowAddr dst) {
  check_compute(xa, "xnor operand a");
  check_compute(xb, "xnor operand b");
  check_row(dst);
  PIMA_CHECK(xa != xb, "two-row activation needs two distinct rows");
  record(Opcode::kAapXnor, xa, xb, 0, dst);
  rows_[xa].xnor_with(rows_[xb]);
  sense(CommandKind::kAapTwoRow, xa, xb, dst);
}

void Subarray::aap_xor(RowAddr xa, RowAddr xb, RowAddr dst) {
  check_compute(xa, "xor operand a");
  check_compute(xb, "xor operand b");
  check_row(dst);
  PIMA_CHECK(xa != xb, "two-row activation needs two distinct rows");
  record(Opcode::kAapXor, xa, xb, 0, dst);
  rows_[xa].xor_with(rows_[xb]);
  sense(CommandKind::kAapTwoRow, xa, xb, dst);
}

void Subarray::aap_tra_carry(RowAddr xa, RowAddr xb, RowAddr xc, RowAddr dst) {
  check_compute(xa, "tra operand a");
  check_compute(xb, "tra operand b");
  check_compute(xc, "tra operand c");
  check_row(dst);
  PIMA_CHECK(xa != xb && xb != xc && xa != xc,
             "TRA needs three distinct rows");
  record(Opcode::kAapTra, xa, xb, xc, dst);
  rows_[xa].maj3_with(rows_[xb], rows_[xc]);
  if (fault_ != nullptr)
    fault_->corrupt_activation(CommandKind::kAapTra, {xa, xb, xc}, rows_[xa]);
  rows_[xb] = rows_[xa];
  rows_[xc] = rows_[xa];
  // add_vertical issues TRA with dst == xc, so the alias case is routine
  // production traffic, not a controller error.
  if (dst != xa && dst != xb && dst != xc) rows_[dst] = rows_[xa];
  latch_ = rows_[xa];
}

void Subarray::sum_cycle(RowAddr xa, RowAddr xb, RowAddr dst) {
  check_compute(xa, "sum operand a");
  check_compute(xb, "sum operand b");
  check_row(dst);
  PIMA_CHECK(xa != xb, "two-row activation needs two distinct rows");
  record(Opcode::kSum, xa, xb, 0, dst);
  rows_[xa].xor_with(rows_[xb]).xor_with(latch_);
  sense(CommandKind::kSumCycle, xa, xb, dst);
}

void Subarray::sense(CommandKind k, RowAddr xa, RowAddr xb, RowAddr dst) {
  // A sensing fault corrupts what the SA drives — every copy of the result
  // (restored operands, destination) gets the same wrong bits.
  if (fault_ != nullptr) fault_->corrupt_activation(k, {xa, xb}, rows_[xa]);
  // Charge sharing destroys both operands; the SA restores the result.
  // dst may alias an operand row, which then already holds the result.
  rows_[xb] = rows_[xa];
  if (dst != xa && dst != xb) rows_[dst] = rows_[xa];
}

void Subarray::reset_latch() {
  // Uncosted (no CommandStats record), but replay-relevant: without the
  // RST_LATCH instruction a replayed sum cycle could consume a stale carry.
  if (trace_ != nullptr) {
    Instruction rst;
    rst.op = Opcode::kResetLatch;
    trace_->record(std::move(rst));
  }
  latch_.fill(false);
}

const BitVector& Subarray::dpu_fetch(RowAddr r) {
  check_row(r);
  record(Opcode::kDpuPopcount, r);
  return rows_[r];
}

void Subarray::compress_bit(RowAddr a, RowAddr b, RowAddr c, RowAddr sum,
                            RowAddr carry) {
  const RowAddr x1 = geom_.data_rows(), x2 = x1 + 1, x3 = x1 + 2;
  // Row x1 is the first non-data row, so `< x1` is "an in-range data row".
  const bool fused = fault_ == nullptr && trace_ == nullptr && a < x1 &&
                     b < x1 && c < x1 && sum < x1 && carry < x1 &&
                     sum != a && sum != b && sum != c;
  if (!fused) {
    aap_copy(a, x1);
    aap_copy(b, x2);
    aap_xor(x1, x2, x1);  // x1 = x2 = a⊕b
    aap_copy(c, x2);
    aap_xor(x1, x2, sum);
    aap_copy(a, x1);
    aap_copy(b, x2);
    aap_copy(c, x3);
    aap_tra_carry(x1, x2, x3, carry);
    return;
  }
  stats_.counts[static_cast<std::size_t>(CommandKind::kAapCopy)] += 6;
  stats_.counts[static_cast<std::size_t>(CommandKind::kAapTwoRow)] += 2;
  stats_.counts[static_cast<std::size_t>(CommandKind::kAapTra)] += 1;
  const std::uint64_t* pa = rows_[a].data();
  const std::uint64_t* pb = rows_[b].data();
  const std::uint64_t* pc = rows_[c].data();
  std::uint64_t* ps = rows_[sum].data();
  std::uint64_t* p1 = rows_[x1].data();
  std::uint64_t* p2 = rows_[x2].data();
  std::uint64_t* p3 = rows_[x3].data();
  std::uint64_t* pl = latch_.data();
  std::uint64_t* pk = rows_[carry].data();
  for (std::size_t w = 0; w < latch_.word_count(); ++w) {
    // Operands are read before any write: carry may alias a, b or c.
    const std::uint64_t aw = pa[w], bw = pb[w], cw = pc[w];
    const std::uint64_t maj = (aw & bw) | (cw & (aw | bw));
    ps[w] = aw ^ bw ^ cw;
    p1[w] = maj;
    p2[w] = maj;
    p3[w] = maj;
    pl[w] = maj;
    pk[w] = maj;  // last: when carry aliases sum, the TRA wrote it last
  }
}

void Subarray::add_vertical(const std::vector<RowAddr>& a_rows,
                            const std::vector<RowAddr>& b_rows,
                            const std::vector<RowAddr>& sum_rows,
                            RowAddr carry_out_row) {
  const std::size_t m = a_rows.size();
  PIMA_CHECK(m > 0, "addition needs at least one bit row");
  PIMA_CHECK(b_rows.size() == m && sum_rows.size() == m,
             "operand/result row spans must have equal length");
  const RowAddr x1 = compute_row(0), x2 = compute_row(1), x3 = compute_row(2);

  // Initialize carry chain: latch ← 0, x3 ← 0 (x3 carries c_i between bits;
  // the latch carries it into the sum cycle).
  reset_latch();
  // Carry-in = 0: zero x3 via a host row write (a dedicated all-zero row
  // plus an AAP copy would be equivalent in cost).
  write_row(x3, BitVector(geom_.columns));

  for (std::size_t i = 0; i < m; ++i) {
    // Sum cycle uses the carry latched by the previous bit's TRA (c_i).
    aap_copy(a_rows[i], x1);
    aap_copy(b_rows[i], x2);
    sum_cycle(x1, x2, sum_rows[i]);
    // The sum cycle destroyed x1/x2; restage for the carry TRA. x3 holds
    // c_i from the previous TRA write-back.
    aap_copy(a_rows[i], x1);
    aap_copy(b_rows[i], x2);
    aap_tra_carry(x1, x2, x3, x3);  // latch ← c_{i+1}, x3 ← c_{i+1}
  }
  aap_copy(x3, carry_out_row);
}

void Subarray::compare_rows(RowAddr a, RowAddr b, RowAddr result_row) {
  const RowAddr x1 = compute_row(0), x2 = compute_row(1);
  aap_copy(a, x1);
  aap_copy(b, x2);
  aap_xnor(x1, x2, result_row);
}

bool Subarray::match_rows(RowAddr a, RowAddr b, RowAddr result_row,
                          std::size_t width) {
  const RowAddr x1 = geom_.data_rows(), x2 = x1 + 1;
  const bool fused = fault_ == nullptr && trace_ == nullptr && a < x1 &&
                     b < x1 && result_row < geom_.rows &&
                     width <= geom_.columns;
  if (!fused) {
    compare_rows(a, b, result_row);
    return Dpu::and_reduce(*this, result_row, width);
  }
  stats_.counts[static_cast<std::size_t>(CommandKind::kAapCopy)] += 2;
  stats_.counts[static_cast<std::size_t>(CommandKind::kAapTwoRow)] += 1;
  stats_.counts[static_cast<std::size_t>(CommandKind::kDpuReduce)] += 1;
  const std::uint64_t* pa = rows_[a].data();
  const std::uint64_t* pb = rows_[b].data();
  std::uint64_t* p1 = rows_[x1].data();
  std::uint64_t* p2 = rows_[x2].data();
  std::uint64_t* pr = rows_[result_row].data();
  const std::size_t words = latch_.word_count();
  const std::size_t tail = geom_.columns % 64;
  bool match = true;
  for (std::size_t w = 0; w < words; ++w) {
    // XNOR sets the bits past the last column; the row keeps them zero.
    std::uint64_t v = ~(pa[w] ^ pb[w]);
    if (tail != 0 && w + 1 == words) v &= (std::uint64_t{1} << tail) - 1;
    p1[w] = v;
    p2[w] = v;
    pr[w] = v;
    // The AND-reduce sees the masked columns of [0, width) in this word.
    const std::size_t lo = w * 64;
    if (lo < width) {
      const std::size_t take = width - lo;
      const std::uint64_t mask =
          take >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << take) - 1;
      match = match && (v & mask) == mask;
    }
  }
  return match;
}

}  // namespace pima::dram
