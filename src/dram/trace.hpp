// Command capture and energy breakdown.
//
// A TraceSink attached to a sub-array records every command it executes as
// the Instruction that replays it (isa.hpp), in issue order: the captured
// program is the trace itself. Capture is opt-in and costs nothing when
// disabled.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "dram/command.hpp"

namespace pima::dram {

/// Append-only capture of one sub-array's command stream.
class TraceSink {
 public:
  /// `subarray` is the flat index every recorded instruction carries.
  explicit TraceSink(std::size_t subarray = 0) : subarray_(subarray) {}

  void record(Instruction inst) {
    inst.subarray = subarray_;
    program_.push_back(std::move(inst));
  }

  const Program& program() const { return program_; }
  std::size_t size() const { return program_.size(); }
  void clear() { program_.clear(); }

 private:
  std::size_t subarray_;
  Program program_;
};

/// Aggregated per-command-kind totals of a CommandStats.
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

/// Breakdown from accumulated CommandStats: each row is
/// command_cost() of one kind, and total_energy_pj equals
/// command_cost(stats).energy_pj bit for bit (waits are not commands, so
/// total_time_ns leaves them out).
EnergyBreakdown breakdown_from_stats(const CommandStats& stats,
                                     std::size_t columns,
                                     const circuit::Technology& tech);

}  // namespace pima::dram
