// Command tracing and energy breakdown.
//
// A TraceSink attached to a sub-array records every command it executes
// (kind, rows, start time) — the raw material for waveform-style debugging,
// replay through the ISA layer, and the per-command-kind energy breakdown
// tables the architecture evaluation wants. Tracing is opt-in and costs
// nothing when disabled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "dram/command.hpp"
#include "dram/geometry.hpp"

namespace pima::dram {

/// One traced command. `kind` is the cost class; `op` is the replay-exact
/// opcode (kAapTwoRow is XNOR or XOR depending on the MUX — the trace keeps
/// the distinction so a recorded run can be replayed bit-exactly).
struct TraceEntry {
  CommandKind kind;
  Opcode op = Opcode::kAapCopy;  ///< replay-precise operation
  RowAddr row_a = 0;       ///< first source row (or the addressed row)
  RowAddr row_b = 0;       ///< second source (multi-row ops), else 0
  RowAddr row_c = 0;       ///< third source (TRA), else 0
  RowAddr dst = 0;         ///< destination row, else 0
  double start_ns = 0.0;   ///< sub-array-local issue time
  double latency_ns = 0.0;
  double energy_pj = 0.0;
  BitVector payload;       ///< ROW_WRITE data (empty otherwise)
};

/// Append-only trace buffer shared by the sub-arrays it is attached to.
class TraceSink {
 public:
  void record(const TraceEntry& e) { entries_.push_back(e); }

  const std::vector<TraceEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

  /// The CSV column order — part of the format contract.
  static constexpr const char* kCsvHeader =
      "kind,row_a,row_b,row_c,dst,start_ns,latency_ns,energy_pj";

  /// CSV rendering in kCsvHeader column order; floats at fixed %.6f
  /// precision, so the output is byte-stable and parse_csv() round-trips
  /// it exactly at that granularity.
  std::string to_csv() const;

  /// Parses a to_csv() rendering back into entries. The CSV does not carry
  /// `op` or `payload`, so those fields come back defaulted; everything
  /// else round-trips exactly. Throws InputFormatError on a malformed row
  /// or header.
  static std::vector<TraceEntry> parse_csv(const std::string& csv);

 private:
  std::vector<TraceEntry> entries_;
};

/// Aggregated per-command-kind totals over a trace (or a CommandStats).
struct EnergyBreakdown {
  struct Row {
    CommandKind kind;
    std::size_t count = 0;
    double energy_pj = 0.0;
    double time_ns = 0.0;
  };
  std::vector<Row> rows;   ///< one per command kind that occurred
  double total_energy_pj = 0.0;
  double total_time_ns = 0.0;

  /// Aligned text table for reports.
  std::string render(const std::string& title) const;
};

EnergyBreakdown breakdown_from_trace(const std::vector<TraceEntry>& trace);

/// Breakdown from accumulated CommandStats (no trace needed): each row is
/// command_cost() of one kind, and total_energy_pj equals
/// command_cost(stats).energy_pj bit for bit (waits are not commands, so
/// total_time_ns leaves them out).
EnergyBreakdown breakdown_from_stats(const CommandStats& stats,
                                     std::size_t columns,
                                     const circuit::Technology& tech);

}  // namespace pima::dram
