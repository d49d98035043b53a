// Device-level controller: a collection of computational sub-arrays with
// parallelism-aware time/energy roll-up (paper Fig. 1a Ctrl).
//
// Sub-arrays compute independently — that is the whole point of the
// platform — so device time is the maximum of the per-sub-array busy times
// of the sub-arrays that participated, while device energy is the sum.
// Roll-ups add integer command counts and take a max (StatsFold), so they
// give the same bits in any sub-array order.
// Sub-arrays are instantiated lazily: a full device has 2048 sub-arrays but
// a given workload usually touches a few.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "circuit/tech.hpp"
#include "dram/geometry.hpp"
#include "dram/subarray.hpp"

namespace pima::dram {

/// Rolled-up execution statistics of a device (or a kernel run on it).
struct DeviceStats {
  double time_ns = 0.0;      ///< critical path: max busy time over sub-arrays
  double serial_ns = 0.0;    ///< sum of busy times (1-sub-array equivalent)
  double energy_pj = 0.0;
  std::size_t commands = 0;
  std::size_t subarrays_used = 0;

  /// Average dynamic power in watts over the rolled-up interval.
  double dynamic_power_w() const;

  /// Serial composition: phases executed back to back. Times and energy
  /// add; the sub-array footprint is the widest phase.
  DeviceStats& operator+=(const DeviceStats& o);

  bool operator==(const DeviceStats&) const = default;
};

inline DeviceStats operator+(DeviceStats a, const DeviceStats& b) {
  a += b;
  return a;
}

/// Roll-up of sub-arrays that ran in parallel, kept exact: summed per-kind
/// counts and waits, the largest per-sub-array busy time, and the number
/// of sub-arrays that ran a command. Every step is an integer add or a
/// max, so any folding order — flat, per device, shuffled — gives the same
/// bits; the reported doubles are derived once, by stats().
class StatsFold {
 public:
  StatsFold(std::size_t columns, const circuit::Technology& tech)
      : columns_(columns), tech_(tech) {}

  /// Folds one sub-array's record in. Zero-command sub-arrays are the
  /// identity.
  void add_subarray(const CommandStats& st);
  /// Joins a fold over a disjoint set of sub-arrays (another device).
  void add(const StatsFold& o);

  /// The summed per-kind record (feed it to breakdown_from_stats for the
  /// per-kind split).
  const CommandStats& commands() const { return commands_; }
  /// time: the critical path; serial time and energy: command_cost() of
  /// the summed record.
  DeviceStats stats() const;

 private:
  std::size_t columns_;
  circuit::Technology tech_;
  CommandStats commands_;
  double time_ns_ = 0.0;
  std::size_t subarrays_used_ = 0;
};

class Device {
 public:
  explicit Device(const Geometry& geometry,
                  const circuit::Technology& tech =
                      circuit::default_technology());

  const Geometry& geometry() const { return geom_; }
  const circuit::Technology& technology() const { return tech_; }

  /// Sub-array handle (created on first touch).
  Subarray& subarray(const SubarrayId& id);
  Subarray& subarray(std::size_t flat);

  /// Read-only handle if the sub-array has been instantiated, else null.
  const Subarray* subarray_if(std::size_t flat) const;

  std::size_t instantiated_count() const;

  /// Folds every instantiated sub-array's command record.
  StatsFold fold() const;
  /// fold().stats().
  DeviceStats roll_up() const { return fold().stats(); }

  /// Clears every sub-array's command statistics (contents preserved).
  void clear_stats();

  /// Enables Table-I-driven fault injection: calibrates a FaultModel at
  /// `config.variation` and attaches a deterministic per-sub-array
  /// injector to every instantiated and future sub-array. A disabled
  /// config (all rates zero) detaches the process again.
  void enable_faults(const FaultConfig& config);

  /// The active fault model, or null when fault-free.
  const FaultModel* fault_model() const { return fault_model_.get(); }

  /// Sum of every sub-array's injection counters, folded in flat-index
  /// order (deterministic ground truth for recovery accounting).
  InjectionCounters injection_roll_up() const;

  /// Per-sub-array command capture for oracle replay: attaches a private
  /// TraceSink to every instantiated and future sub-array. Each sink is
  /// touched only by the channel owning its sub-array, so capture is safe
  /// under the parallel runtime. Each sink already holds its sub-array's
  /// replayable instructions; isa.hpp's captured_program() concatenates
  /// them in flat order.
  void enable_tracing();
  /// Detaches and discards every capture sink.
  void disable_tracing();
  bool tracing() const { return tracing_; }
  /// The capture sink of one sub-array, or null if never instantiated (or
  /// tracing is off).
  const TraceSink* trace_if(std::size_t flat) const;

 private:
  Geometry geom_;
  circuit::Technology tech_;
  std::vector<std::unique_ptr<Subarray>> subarrays_;
  std::shared_ptr<const FaultModel> fault_model_;
  std::vector<std::unique_ptr<TraceSink>> traces_;
  bool tracing_ = false;
};

}  // namespace pima::dram
