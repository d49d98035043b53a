#include "dram/device.hpp"

#include <algorithm>

#include "common/units.hpp"

namespace pima::dram {

double DeviceStats::dynamic_power_w() const {
  return power_watts(energy_pj, time_ns);
}

DeviceStats& DeviceStats::operator+=(const DeviceStats& o) {
  time_ns += o.time_ns;
  serial_ns += o.serial_ns;
  energy_pj += o.energy_pj;
  commands += o.commands;
  subarrays_used = std::max(subarrays_used, o.subarrays_used);
  return *this;
}

void StatsFold::add_subarray(const CommandStats& st) {
  if (st.total_commands() == 0) return;
  ++subarrays_used_;
  time_ns_ = std::max(time_ns_, command_cost(st, columns_, tech_).busy_ns);
  commands_.merge_serial(st);
}

void StatsFold::add(const StatsFold& o) {
  subarrays_used_ += o.subarrays_used_;
  time_ns_ = std::max(time_ns_, o.time_ns_);
  commands_.merge_serial(o.commands_);
}

DeviceStats StatsFold::stats() const {
  const CommandCost total = command_cost(commands_, columns_, tech_);
  DeviceStats s;
  s.time_ns = time_ns_;
  s.serial_ns = total.busy_ns;
  s.energy_pj = total.energy_pj;
  s.commands = commands_.total_commands();
  s.subarrays_used = subarrays_used_;
  return s;
}

Device::Device(const Geometry& geometry, const circuit::Technology& tech)
    : geom_(geometry), tech_(tech) {
  geom_.validate();
  subarrays_.resize(geom_.total_subarrays());
}

Subarray& Device::subarray(const SubarrayId& id) {
  return subarray(flat_index(geom_, id));
}

Subarray& Device::subarray(std::size_t flat) {
  PIMA_CHECK(flat < subarrays_.size(), "sub-array index out of device");
  if (!subarrays_[flat]) {
    subarrays_[flat] = std::make_unique<Subarray>(geom_, tech_);
    if (fault_model_ != nullptr)
      subarrays_[flat]->attach_fault_injector(
          std::make_shared<FaultInjector>(fault_model_, flat, geom_));
    if (tracing_) {
      traces_[flat] = std::make_unique<TraceSink>(flat);
      subarrays_[flat]->attach_trace(traces_[flat].get());
    }
  }
  return *subarrays_[flat];
}

const Subarray* Device::subarray_if(std::size_t flat) const {
  PIMA_CHECK(flat < subarrays_.size(), "sub-array index out of device");
  return subarrays_[flat].get();
}

std::size_t Device::instantiated_count() const {
  return static_cast<std::size_t>(
      std::count_if(subarrays_.begin(), subarrays_.end(),
                    [](const auto& p) { return p != nullptr; }));
}

StatsFold Device::fold() const {
  StatsFold f(geom_.columns, tech_);
  for (const auto& sa : subarrays_)
    if (sa) f.add_subarray(sa->stats());
  return f;
}

void Device::clear_stats() {
  for (const auto& sa : subarrays_)
    if (sa) sa->clear_stats();
}

void Device::enable_faults(const FaultConfig& config) {
  if (!config.enabled()) {
    fault_model_ = nullptr;
    for (const auto& sa : subarrays_)
      if (sa) sa->attach_fault_injector(nullptr);
    return;
  }
  fault_model_ = std::make_shared<const FaultModel>(tech_.tech, config);
  for (std::size_t flat = 0; flat < subarrays_.size(); ++flat)
    if (subarrays_[flat])
      subarrays_[flat]->attach_fault_injector(
          std::make_shared<FaultInjector>(fault_model_, flat, geom_));
}

void Device::enable_tracing() {
  if (tracing_) return;
  tracing_ = true;
  traces_.resize(subarrays_.size());
  for (std::size_t flat = 0; flat < subarrays_.size(); ++flat) {
    if (!subarrays_[flat]) continue;
    traces_[flat] = std::make_unique<TraceSink>(flat);
    subarrays_[flat]->attach_trace(traces_[flat].get());
  }
}

void Device::disable_tracing() {
  if (!tracing_) return;
  tracing_ = false;
  for (const auto& sa : subarrays_)
    if (sa) sa->attach_trace(nullptr);
  traces_.clear();
}

const TraceSink* Device::trace_if(std::size_t flat) const {
  PIMA_CHECK(flat < subarrays_.size(), "sub-array index out of device");
  return flat < traces_.size() ? traces_[flat].get() : nullptr;
}

InjectionCounters Device::injection_roll_up() const {
  InjectionCounters total;
  for (const auto& sa : subarrays_) {
    if (!sa || sa->fault_injector() == nullptr) continue;
    const auto& c = sa->fault_injector()->counters();
    total.compute_flips += c.compute_flips;
    total.retention_flips += c.retention_flips;
    total.faulty_ops += c.faulty_ops;
  }
  return total;
}

}  // namespace pima::dram
