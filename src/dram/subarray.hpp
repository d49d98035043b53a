// Bit-accurate functional model of one computational sub-array
// (paper Fig. 1b / Fig. 2a).
//
// The sub-array stores real row contents (one BitVector per row) and
// executes the PIM command set with the exact electrical side effects of
// the mechanisms it models:
//   * AAP copy (RowClone): destination row ← source row.
//   * Two-row activation: both activated computation rows are destroyed by
//     charge sharing and restored to the result the SA drives on the
//     bit-lines (XNOR2 or XOR2, per MUX configuration); the result is also
//     written to a destination row within the same AAP.
//   * TRA: the three activated rows are overwritten with MAJ3 (Ambit
//     semantics), the per-column carry latch captures MAJ3, destination
//     row ← MAJ3.
//   * Sum cycle: two-row activation whose SA XOR gate combines the fresh
//     XOR2 with the latched carry; activated rows and destination get the
//     sum bits.
// Multi-row activation is only legal on computation rows (x1..x8) — the
// modified row decoder enforces this — while AAP copies may address any row.
//
// Each primitive computes its result word by word into the first activated
// row and copies it into the other activated rows (and dst, and the latch
// for TRA): with no trace sink attached, no command allocates.
//
// Every operation counts one command of its kind into CommandStats; its
// latency and energy are derived from the counts (command_cost). An
// attached trace sink also receives the command as a replayable
// Instruction.
//
// compress_bit is a μop in SIMDRAM's sense: the fixed 9-command sequence of
// one carry-save bit step, issued as one unit. When nothing observes the
// individual commands (no fault injector, no trace sink) and its rows are
// plain data rows, it checks them once, adds the nine counts in bulk and
// writes every row the sequence changes in one word pass; otherwise it
// issues the nine primitives. match_rows is the k-mer probe's μop in the
// same sense: compare_rows plus the DPU AND-reduction of its result. Neither
// is an ISA opcode: traces, replays and the golden model only ever see the
// primitives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/tech.hpp"
#include "common/bitvector.hpp"
#include "dram/command.hpp"
#include "dram/fault.hpp"
#include "dram/geometry.hpp"
#include "dram/trace.hpp"

namespace pima::dram {

class Subarray {
 public:
  Subarray(const Geometry& geometry, const circuit::Technology& tech);

  const Geometry& geometry() const { return geom_; }

  /// Address of computation row x{i+1}, i in [0, compute_rows).
  RowAddr compute_row(std::size_t i) const;
  bool is_compute_row(RowAddr r) const {
    return r >= geom_.data_rows() && r < geom_.rows;
  }

  /// Host-side row access through the row buffer (costed as ROW_READ/WRITE).
  const BitVector& read_row(RowAddr r);
  void write_row(RowAddr r, const BitVector& bits);

  /// write_row of the image `edit` makes from the stored row (the edit
  /// keeps the row's width): one costed ROW_WRITE with that image as its
  /// trace payload. With no fault injector or trace sink attached the row
  /// is edited in place, with no copy.
  template <class Edit>
  void update_row(RowAddr r, Edit&& edit) {
    check_row(r);
    if (fault_ == nullptr && trace_ == nullptr) {
      edit(rows_[r]);
      ++stats_.counts[static_cast<std::size_t>(CommandKind::kRowWrite)];
      return;
    }
    // The image is taken before write_row's retention tick, as a caller's
    // copy of the row would be.
    BitVector image = rows_[r];
    edit(image);
    write_row(r, image);
  }

  /// Zero-cost inspection for tests/verification (no commands recorded).
  const BitVector& peek_row(RowAddr r) const;
  const BitVector& peek_latch() const { return latch_; }

  /// Fault injection for reliability experiments: flips one stored cell in
  /// place without issuing a command (models a retention failure or
  /// particle strike between accesses). Works on data and computation rows
  /// alike — a flip in x1..x8 corrupts staged operands exactly like a weak
  /// compute cell would.
  void inject_bit_flip(RowAddr r, std::size_t col);

  /// Flips one bit of the per-column carry latch (Fig. 2a latch upset);
  /// consumed by the next sum cycle. Zero-cost like inject_bit_flip.
  void inject_latch_flip(std::size_t col);

  /// Attaches the stochastic fault process (nullptr = fault-free). The
  /// injector corrupts multi-row activation results per its calibrated
  /// Table-I rates and drives the retention-flip process.
  void attach_fault_injector(std::shared_ptr<FaultInjector> injector) {
    fault_ = std::move(injector);
  }
  const FaultInjector* fault_injector() const { return fault_.get(); }

  /// Models idle time on this sub-array's command stream (retry backoff):
  /// advances the busy clock without issuing a command or spending dynamic
  /// energy.
  void wait_ns(std::uint64_t ns) { stats_.wait_ns += ns; }

  // ---- PIM primitives (each is one costed command) ----

  /// Type-1 AAP: RowClone copy src → dst. src == dst is rejected: the AAP
  /// would activate the same row twice, which is electrically a plain
  /// refresh, and silently accepting it hides controller bugs (the fuzzer
  /// found the aliased form diverging from its intended semantics).
  void aap_copy(RowAddr src, RowAddr dst);

  /// Type-2 AAP: two-row activation of computation rows xa, xb; the SA MUX
  /// drives XNOR2 onto the bit-lines. xa, xb and dst all end up holding the
  /// XNOR2 result.
  void aap_xnor(RowAddr xa, RowAddr xb, RowAddr dst);

  /// Same mechanism with the MUX selecting the complementary output (XOR2).
  void aap_xor(RowAddr xa, RowAddr xb, RowAddr dst);

  /// Type-3 AAP: TRA majority of computation rows xa, xb, xc. All three
  /// rows, the destination, and the per-column carry latch get MAJ3.
  void aap_tra_carry(RowAddr xa, RowAddr xb, RowAddr xc, RowAddr dst);

  /// Sum cycle: two-row activation of xa, xb combined with the latched
  /// carry: dst ← xa ⊕ xb ⊕ latch (per column). xa, xb also get the sum.
  /// The latch is preserved (it is consumed by the XOR gate, not cleared).
  void sum_cycle(RowAddr xa, RowAddr xb, RowAddr dst);

  /// Clears the carry latch (Rst signal in Fig. 2a). Uncosted (the pulse
  /// rides the surrounding AAP envelope) but recorded in the trace as a
  /// RST_LATCH instruction so replays reproduce the latch state exactly.
  void reset_latch();

  /// Records one DPU reduction (row read into the GRB + combinational
  /// reduce) and returns the row contents for the DPU to reduce. Used by
  /// dram::Dpu; costed as DPU_REDUCE.
  const BitVector& dpu_fetch(RowAddr r);

  // ---- Composite operations built from the primitives ----

  /// One 3:2 carry-save bit step (paper Fig. 8): sum ← a ⊕ b ⊕ c and
  /// carry ← MAJ3(a, b, c), exactly the sequence
  ///   copy a→x1, copy b→x2, XOR(x1, x2 → x1), copy c→x2, XOR(x1, x2 → sum),
  ///   copy a→x1, copy b→x2, copy c→x3, TRA(x1, x2, x3 → carry)
  /// (6 AAP copies, 2 two-row XORs, 1 TRA). x1..x3 and the latch end up
  /// holding the carry; a, b and c may repeat, and carry may alias sum.
  /// Fused when no fault injector or trace sink is attached, all five rows
  /// are data rows and sum aliases none of a, b, c; otherwise it issues
  /// the nine primitives.
  void compress_bit(RowAddr a, RowAddr b, RowAddr c, RowAddr sum,
                    RowAddr carry);

  /// Full bit-serial vertical addition (paper Fig. 8): interprets
  /// `a_rows`/`b_rows` as m-bit operands stored LSB-first across rows
  /// (element j of each operand lives in column j), writes the m-bit sum to
  /// `sum_rows` and the final carry-out to `carry_out_row`. All row spans
  /// must have the same length m and address data rows; computation rows
  /// x1..x3 are used as scratch. Cost: per bit, 4 staging copies + 1 sum
  /// cycle + 1 TRA (the paper's "2×m cycles" counts the compute cycles).
  void add_vertical(const std::vector<RowAddr>& a_rows,
                    const std::vector<RowAddr>& b_rows,
                    const std::vector<RowAddr>& sum_rows,
                    RowAddr carry_out_row);

  /// Row-wide compare of two data rows (the PIM_XNOR building block):
  /// stages both rows into x1/x2, performs the single-cycle XNOR, and
  /// leaves the per-column match bits in `result_row`. The DPU reduces the
  /// result separately.
  void compare_rows(RowAddr a, RowAddr b, RowAddr result_row);

  /// The k-mer probe (paper Fig. 7): compare_rows(a, b, result_row), then
  /// Dpu::and_reduce(*this, result_row, width) — true iff columns
  /// [0, width) of a and b match (2 AAP copies, 1 two-row XNOR, 1
  /// DPU_REDUCE). x1, x2 and result_row end up holding XNOR(a, b); a may
  /// equal b, and result_row may alias x1 or x2. Fused when no fault
  /// injector or trace sink is attached, a and b are data rows, result_row
  /// is in range and width fits the row; otherwise it issues the primitives.
  bool match_rows(RowAddr a, RowAddr b, RowAddr result_row, std::size_t width);

  const CommandStats& stats() const { return stats_; }
  /// Simulated busy time and energy of the recorded commands.
  CommandCost cost() const {
    return command_cost(stats_, geom_.columns, tech_);
  }
  void clear_stats() { stats_ = CommandStats{}; }

  /// Attaches a trace sink; every subsequent command is recorded into it
  /// as an Instruction (nullptr detaches). The sink must outlive the
  /// sub-array's use.
  void attach_trace(TraceSink* sink) { trace_ = sink; }

 private:
  void check_row(RowAddr r) const {
    PIMA_CHECK(r < geom_.rows, "row address out of sub-array");
  }
  void check_compute(RowAddr r, const char* what) const {
    check_row(r);
    PIMA_CHECK(is_compute_row(r),
               std::string("multi-row activation outside computation rows: ") +
                   what);
  }
  // Finishes a two-row activation whose sensed result the caller computed
  // in place into xa: applies sensing faults to it and restores it into xb
  // and dst.
  void sense(CommandKind k, RowAddr xa, RowAddr xb, RowAddr dst);
  // Counts one command of kind_of(op); with a fault injector or trace sink
  // attached, first runs the retention tick and records the instruction.
  void record(Opcode op, RowAddr a = 0, RowAddr b = 0, RowAddr c = 0,
              RowAddr dst = 0, const BitVector* payload = nullptr) {
    if (fault_ != nullptr || trace_ != nullptr)
      observe(op, a, b, c, dst, payload);
    ++stats_.counts[static_cast<std::size_t>(kind_of(op))];
  }
  void observe(Opcode op, RowAddr a, RowAddr b, RowAddr c, RowAddr dst,
               const BitVector* payload);

  Geometry geom_;
  circuit::Technology tech_;
  std::vector<BitVector> rows_;
  BitVector latch_;       ///< per-column carry latch
  CommandStats stats_;
  TraceSink* trace_ = nullptr;
  std::shared_ptr<FaultInjector> fault_;
};

}  // namespace pima::dram
