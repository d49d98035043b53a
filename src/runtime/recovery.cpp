#include "runtime/recovery.hpp"

#include <utility>

#include "runtime/shard.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/telemetry.hpp"

namespace pima::runtime {

namespace {

// Live fault counters for the progress reporter: fault paths are rare and
// already expensive (re-stage + re-execute), so a registry lookup per event
// is fine. Integral atomic adds commute exactly, so the totals stay
// deterministic for any channel count.
void bump_live(const char* name, const char* help) {
#if PIMA_TELEMETRY
  if (telemetry::metrics_enabled())
    telemetry::metrics().counter(name, help).increment();
#else
  (void)name;
  (void)help;
#endif
}

}  // namespace

std::uint64_t recovery_backoff_ns(const RecoveryOptions& options,
                                  std::size_t attempt) {
  // base << attempt ≤ cap exactly when base ≤ cap >> attempt, so the shift
  // runs only when it cannot overflow.
  if (attempt >= 64 ||
      options.backoff_base_ns > (options.backoff_cap_ns >> attempt))
    return options.backoff_cap_ns;
  return options.backoff_base_ns << attempt;
}

std::optional<RecoveryMode> parse_recovery_mode(std::string_view s) {
  if (s == "off") return RecoveryMode::kOff;
  if (s == "retry") return RecoveryMode::kRetry;
  if (s == "vote") return RecoveryMode::kVote;
  return std::nullopt;
}

FaultStats& FaultStats::operator+=(const FaultStats& o) {
  injected += o.injected;
  detected += o.detected;
  retried += o.retried;
  remapped += o.remapped;
  escaped += o.escaped;
  vote_corrections += o.vote_corrections;
  host_fallbacks += o.host_fallbacks;
  degraded_subarrays += o.degraded_subarrays;
  return *this;
}

FaultStats reduce_fault_stats(const std::vector<FaultStats>& parts) {
  FaultStats total;
  for (const auto& p : parts) total += p;
  return total;
}

RecoveryExecutor::RecoveryExecutor(dram::Subarray& subarray,
                                   const RecoveryOptions& options)
    : sa_(subarray), options_(options) {
  const std::size_t compute = sa_.geometry().compute_rows;
  // Slots 0..2 are the active operand staging rows; x4 (offset 3) is left
  // for the callers' result rows; everything above is a spare pool for
  // weak-row remapping.
  staging_ = {0, 1, 2};
  for (std::size_t off = 4; off < compute; ++off) spares_.push_back(off);
  row_failures_.assign(compute, 0);
}

void RecoveryExecutor::execute_once(
    const std::array<dram::RowAddr, 3>& operands, std::size_t n_operands,
    dram::RowAddr dst) {
  const auto x = [&](std::size_t slot) {
    return sa_.compute_row(staging_[slot]);
  };
  for (std::size_t i = 0; i < n_operands; ++i)
    sa_.aap_copy(operands[i], x(i));
  if (n_operands == 3)
    sa_.aap_tra_carry(x(0), x(1), x(2), dst);
  else
    sa_.aap_xnor(x(0), x(1), dst);
}

void RecoveryExecutor::note_detected() {
  ++stats_.detected;
  bump_live(telemetry::kFaultDetected, "verification mismatches detected");
  PIMA_TEL_INSTANT("fault:detected");
  if (!degraded_ && stats_.detected > options_.subarray_failure_budget) {
    degraded_ = true;
    ++stats_.degraded_subarrays;
    bump_live("pima_fault_degraded_subarrays_total",
              "sub-arrays degraded to host-side recompute");
    PIMA_TEL_INSTANT("fault:degraded");
  }
}

void RecoveryExecutor::blame_staging(std::size_t n_operands) {
  for (std::size_t slot = 0; slot < n_operands; ++slot) {
    const std::size_t offset = staging_[slot];
    if (++row_failures_[offset] < options_.weak_row_threshold) continue;
    if (spares_.empty()) continue;  // nothing left to remap onto
    staging_[slot] = spares_.back();
    spares_.pop_back();
    ++stats_.remapped;
    bump_live("pima_fault_remapped_rows_total",
              "computation rows retired to spares");
  }
}

void RecoveryExecutor::host_fallback(
    const BitVector& golden, dram::RowAddr dst,
    const std::array<dram::RowAddr, 3>& operands, std::size_t n_operands) {
  // The controller pulls the operands through the global row buffer,
  // recomputes, and writes the result back — no in-array compute trusted.
  for (std::size_t i = 0; i < n_operands; ++i) (void)sa_.read_row(operands[i]);
  sa_.write_row(dst, golden);
  ++stats_.host_fallbacks;
  bump_live(telemetry::kFaultHostFallbacks,
            "critical ops recomputed host-side");
}

void RecoveryExecutor::run_checked(
    const std::array<dram::RowAddr, 3>& operands, std::size_t n_operands,
    dram::RowAddr dst, const BitVector& golden) {
  for (std::size_t slot = 0; slot < n_operands; ++slot)
    PIMA_CHECK(dst != sa_.compute_row(staging_[slot]),
               "checked-op destination collides with a staging row");

  if (degraded_) {
    host_fallback(golden, dst, operands, n_operands);
    return;
  }

  if (options_.mode == RecoveryMode::kOff) {
    // Unverified execution: whatever the array sensed is the result.
    execute_once(operands, n_operands, dst);
    if (sa_.peek_row(dst) != golden) ++stats_.escaped;
    return;
  }

  if (options_.mode == RecoveryMode::kVote) {
    // TMR in time: three executions, per-column majority.
    std::array<BitVector, 3> results;
    for (auto& r : results) {
      execute_once(operands, n_operands, dst);
      r = sa_.dpu_fetch(dst);  // costed readback into the vote
    }
    const bool disagree =
        results[0] != results[1] || results[1] != results[2];
    if (disagree) {
      note_detected();
      blame_staging(n_operands);
    }
    const BitVector voted =
        BitVector::bit_maj3(results[0], results[1], results[2]);
    if (results[2] != voted) {
      sa_.write_row(dst, voted);  // fix the stored copy to the majority
      ++stats_.vote_corrections;
      bump_live("pima_fault_vote_corrections_total",
                "vote-mode results fixed by majority");
    }
    if (voted != golden) ++stats_.escaped;
    return;
  }

  // RecoveryMode::kRetry — verify-after-op with bounded re-execution.
  for (std::size_t attempt = 0;; ++attempt) {
    execute_once(operands, n_operands, dst);
    // Costed readback through the DPU path; the controller checks it
    // against its residual for the op.
    const BitVector& got = sa_.dpu_fetch(dst);
    if (got == golden) return;
    note_detected();
    blame_staging(n_operands);
    if (degraded_ || attempt >= options_.max_retries) {
      // Retry budget exhausted (or the sub-array just blew its failure
      // budget): recompute host-side rather than give up.
      host_fallback(golden, dst, operands, n_operands);
      return;
    }
    ++stats_.retried;
    bump_live(telemetry::kFaultRetried, "re-executions performed");
    // Exponential backoff (capped) on this sub-array's command stream.
    sa_.wait_ns(recovery_backoff_ns(options_, attempt));
  }
}

void RecoveryExecutor::compare_rows(dram::RowAddr a, dram::RowAddr b,
                                    dram::RowAddr result_row) {
  const BitVector golden =
      BitVector::bit_xnor(sa_.peek_row(a), sa_.peek_row(b));
  run_checked({a, b, 0}, 2, result_row, golden);
}

void RecoveryExecutor::tra_majority(dram::RowAddr a, dram::RowAddr b,
                                    dram::RowAddr c, dram::RowAddr dst) {
  const BitVector golden = BitVector::bit_maj3(
      sa_.peek_row(a), sa_.peek_row(b), sa_.peek_row(c));
  run_checked({a, b, c}, 3, dst, golden);
}

RecoveryManager::RecoveryManager(DevicePool& pool,
                                 const RecoveryOptions& options)
    : pool_(pool), options_(options) {
  executors_.resize(pool.total_subarrays());
}

RecoveryExecutor& RecoveryManager::executor_for(std::size_t subarray_flat) {
  PIMA_CHECK(subarray_flat < executors_.size(),
             "sub-array index out of device");
  if (!executors_[subarray_flat])
    executors_[subarray_flat] = std::make_unique<RecoveryExecutor>(
        pool_.subarray(subarray_flat), options_);
  return *executors_[subarray_flat];
}

const RecoveryExecutor* RecoveryManager::executor_if(
    std::size_t subarray_flat) const {
  PIMA_CHECK(subarray_flat < executors_.size(),
             "sub-array index out of device");
  return executors_[subarray_flat].get();
}

std::vector<FaultStats> RecoveryManager::per_channel_stats(
    const Scheduler& scheduler) const {
  std::vector<FaultStats> out(scheduler.channels());
  for (std::size_t flat = 0; flat < executors_.size(); ++flat) {
    FaultStats& s = out[scheduler.channel_of(flat)];
    if (executors_[flat]) s += executors_[flat]->stats();
    const dram::Subarray* sa = pool_.subarray_if(flat);
    if (sa != nullptr && sa->fault_injector() != nullptr)
      s.injected += sa->fault_injector()->counters().total_flips();
  }
  return out;
}

FaultStats RecoveryManager::roll_up() const {
  FaultStats total;
  for (const auto& ex : executors_)
    if (ex) total += ex->stats();
  total.injected = pool_.injection_roll_up().total_flips();
  return total;
}

void RecoveryManager::export_metrics(
    telemetry::MetricsRegistry& registry) const {
  using telemetry::Labels;
  const auto add = [&](const char* name, const char* help,
                       const Labels& labels, std::size_t v) {
    if (v != 0) registry.counter(name, help, labels).add(static_cast<double>(v));
  };
  for (std::size_t flat = 0; flat < executors_.size(); ++flat) {
    const auto& ex = executors_[flat];
    if (!ex) continue;
    const FaultStats& s = ex->stats();
    const Labels labels = {{"subarray", std::to_string(flat)}};
    add("pima_recovery_detected_total",
        "verification mismatches per sub-array", labels, s.detected);
    add("pima_recovery_retries_total", "re-executions per sub-array", labels,
        s.retried);
    add("pima_recovery_vote_corrections_total",
        "vote-mode majority corrections per sub-array", labels,
        s.vote_corrections);
    add("pima_recovery_remapped_rows_total",
        "computation rows retired to spares per sub-array", labels,
        s.remapped);
    add("pima_recovery_host_fallbacks_total",
        "host-side recomputes per sub-array", labels, s.host_fallbacks);
    add("pima_recovery_escaped_total",
        "wrong results accepted per sub-array", labels, s.escaped);
    add("pima_recovery_degraded_total",
        "sub-array degraded to host-side recompute", labels,
        s.degraded_subarrays);
  }
  registry
      .counter("pima_fault_injected_total",
               "corrupted columns injected (ground truth)")
      .add(static_cast<double>(pool_.injection_roll_up().total_flips()));
}

}  // namespace pima::runtime
