#include "runtime/shard.hpp"

#include <exception>

#include "common/error.hpp"

namespace pima::runtime {

std::vector<dram::Program> ShardPlan::split(dram::Program program) const {
  std::vector<dram::Program> parts(std::max<std::size_t>(devices, 1));
  if (parts.size() == 1) {
    parts[0] = std::move(program);
    return parts;
  }
  for (auto& inst : program)
    parts[owner_of(inst.subarray)].push_back(std::move(inst));
  return parts;
}

DevicePool::DevicePool(dram::Device& primary, std::size_t devices)
    : primary_(primary) {
  PIMA_CHECK(devices >= 1, "device pool needs at least one device");
  plan_.devices = devices;
  extras_.reserve(devices - 1);
  for (std::size_t d = 1; d < devices; ++d)
    extras_.push_back(std::make_unique<dram::Device>(
        primary.geometry(), primary.technology()));
}

dram::Device& DevicePool::device(std::size_t d) {
  PIMA_CHECK(d < size(), "device index out of pool");
  return d == 0 ? primary_ : *extras_[d - 1];
}

const dram::Device& DevicePool::device(std::size_t d) const {
  PIMA_CHECK(d < size(), "device index out of pool");
  return d == 0 ? primary_ : *extras_[d - 1];
}

std::size_t DevicePool::instantiated_count() const {
  std::size_t n = primary_.instantiated_count();
  for (const auto& dev : extras_) n += dev->instantiated_count();
  return n;
}

dram::StatsFold DevicePool::fold() const {
  dram::StatsFold f = primary_.fold();
  for (const auto& dev : extras_) f.add(dev->fold());
  return f;
}

dram::InjectionCounters DevicePool::injection_roll_up() const {
  dram::InjectionCounters total;
  for (std::size_t d = 0; d < size(); ++d) {
    const auto c = device(d).injection_roll_up();
    total.compute_flips += c.compute_flips;
    total.retention_flips += c.retention_flips;
    total.faulty_ops += c.faulty_ops;
  }
  return total;
}

void DevicePool::clear_stats() {
  for (std::size_t d = 0; d < size(); ++d) device(d).clear_stats();
}

void DevicePool::enable_faults(const dram::FaultConfig& config) {
  // Every device calibrates its model from the same (technology, config)
  // pair and seeds injectors from (model, flat, geometry) — the fault
  // process of a given logical flat is device-count invariant.
  for (std::size_t d = 0; d < size(); ++d) device(d).enable_faults(config);
}

dram::Program DevicePool::captured_program() const {
  std::vector<dram::Program> parts;
  parts.reserve(size());
  for (std::size_t d = 0; d < size(); ++d)
    parts.push_back(dram::captured_program(device(d)));
  return dram::merge_by_flat(std::move(parts));
}

void DevicePool::enable_tracing() {
  for (std::size_t d = 0; d < size(); ++d) device(d).enable_tracing();
}

void DevicePool::disable_tracing() {
  for (std::size_t d = 0; d < size(); ++d) device(d).disable_tracing();
}

PoolRunner::PoolRunner(DevicePool& pool, EngineOptions per_device)
    : pool_(pool) {
  // With more than one device, even a one-channel engine must own a real
  // worker — otherwise all devices would retire inline on the controller
  // thread and the pool's device-level parallelism would be fiction.
  per_device.force_worker = pool.size() > 1;
  engines_.reserve(pool.size());
  for (std::size_t d = 0; d < pool.size(); ++d)
    engines_.push_back(
        std::make_unique<Engine>(pool.device(d), per_device));
}

void PoolRunner::submit_to_subarray(std::size_t subarray_flat, Task task) {
  engines_[owner_of(subarray_flat)]->submit_to_subarray(subarray_flat,
                                                        std::move(task));
}

void PoolRunner::submit_program(dram::Program program) {
  auto parts = pool_.plan().split(std::move(program));
  for (std::size_t d = 0; d < engines_.size(); ++d)
    if (!parts[d].empty()) engines_[d]->submit_program(std::move(parts[d]));
}

void PoolRunner::drain() {
  std::exception_ptr first;
  for (auto& engine : engines_) {
    try {
      engine->drain();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void PoolRunner::quiesce() noexcept {
  for (auto& engine : engines_) engine->quiesce();
}

bool PoolRunner::stalled() const {
  for (const auto& engine : engines_)
    if (engine->stalled()) return true;
  return false;
}

void PoolRunner::export_metrics(telemetry::MetricsRegistry& registry) const {
  // A one-device pool exports exactly like a bare Engine (no device
  // label), so the single-device metric surface is unchanged by the pool.
  if (engines_.size() == 1) {
    engines_[0]->export_metrics(registry);
    return;
  }
  for (std::size_t d = 0; d < engines_.size(); ++d) {
    telemetry::MetricsRegistry shard;
    shard.set_default_labels({{"device", std::to_string(d)}});
    engines_[d]->export_metrics(shard);
    registry.merge_from(shard);
  }
}

}  // namespace pima::runtime
