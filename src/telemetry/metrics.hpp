// Metrics registry: named counters, gauges and fixed-bucket histograms
// with deterministic merge semantics and Prometheus/JSON export.
//
// Naming convention (DESIGN.md §11): every metric is `pima_<area>_<what>`
// with a unit suffix (`_ns`, `_pj`, `_seconds`) and `_total` for counters,
// labels for enumerable dimensions (stage, kind, channel, subarray).
//
// Determinism: each metric carries a MetricClass.
//   * kModel metrics derive only from simulated state (command counts,
//     simulated ns/pJ, fault counters). They are bit-identical for every
//     channel count — the registry's JSON snapshot restricted to kModel is
//     a determinism oracle, like the DeviceStats roll-ups.
//     Concurrent updates must add exact doubles (integers < 2^53, or a
//     single-writer accumulation) so the commutative fold stays exact.
//   * kHost metrics measure the host machine (wall-clock latencies, queue
//     occupancy, per-channel task counts). They vary run to run and with
//     --threads, and are excluded from the deterministic snapshot.
//
// Merging: merge_from() folds another registry in sorted metric order —
// counters and histogram buckets add, gauges take the maximum — so
// per-channel shards folded in channel index order give bit-identical
// results.
//
// Thread safety: metric handles returned by the registry are stable for
// the registry's lifetime and internally atomic; registration and export
// take a mutex (cold paths only).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dram/trace.hpp"

namespace pima::telemetry {

enum class MetricClass {
  kModel,  ///< simulated-state derived: bit-identical for any --threads
  kHost,   ///< host-machine measurement: varies run to run
};

/// Label set of one metric instance, rendered in the given order (callers
/// pass a fixed order, so exports are stable).
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
/// Exact lock-free add for std::atomic<double> (CAS loop; C++20
/// fetch_add(double) is not yet universal).
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonically increasing value (Prometheus counter).
class Counter {
 public:
  void add(double v) { detail::atomic_add(value_, v); }
  void increment() { add(1.0); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time value (Prometheus gauge). Merge takes the maximum.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with Prometheus `le` (upper-inclusive) bucket
/// semantics and an implicit +Inf overflow bucket.
class Histogram {
 public:
  /// `bounds` are the strictly increasing finite bucket upper bounds.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the +Inf bucket).
  std::uint64_t bucket_count(std::size_t i) const;
  std::uint64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Quantile estimate (0 ≤ q ≤ 1) by linear interpolation inside the
  /// covering bucket, Prometheus histogram_quantile-style. Values in the
  /// +Inf bucket clamp to the largest finite bound. Returns 0 when empty.
  double quantile(double q) const;

  /// Folds another histogram's per-bucket counts and sum into this one
  /// (MetricsRegistry::merge_from). `buckets` must have bounds().size()+1
  /// entries matching this histogram's bucket layout.
  void merge_counts(const std::vector<std::uint64_t>& buckets, double sum);

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
};

/// Find-or-create registry of named metrics. Export order is sorted by
/// (name, labels), so serialization is deterministic.
class MetricsRegistry {
 public:
  // Both out of line: Metric is incomplete here, and inline defaulted
  // special members would instantiate the map's deleter against it.
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {},
                   MetricClass cls = MetricClass::kModel);
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {},
               MetricClass cls = MetricClass::kModel);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, const Labels& labels = {},
                       MetricClass cls = MetricClass::kHost);

  /// Prometheus text exposition (one # HELP/# TYPE block per family).
  std::string prometheus_text() const;

  /// JSON snapshot. `model_only` restricts to MetricClass::kModel — the
  /// deterministic subset that must be bit-identical for any --threads.
  std::string json_snapshot(bool model_only = false) const;

  /// Deterministic fold of another registry: counters and histogram
  /// buckets add, gauges take the max. Metrics absent here are created
  /// with the other registry's shape. Fold shards in channel index order
  /// for reproducible results.
  void merge_from(const MetricsRegistry& other);

  /// Labels appended to every metric registered from now on (multi-tenant
  /// hosts: a per-job registry tags everything with {job="<id>"}, so
  /// merge_from into a daemon-wide registry keeps jobs' series distinct).
  /// Set before the first registration; does not relabel existing metrics.
  void set_default_labels(Labels labels);

  std::size_t size() const;
  void clear();

 private:
  struct Metric;
  Metric& find_or_create(const std::string& name, const std::string& help,
                         const Labels& labels, MetricClass cls, int kind,
                         const std::vector<double>* bounds);

  mutable std::mutex mutex_;
  Labels default_labels_;
  std::map<std::string, std::unique_ptr<Metric>> metrics_;
};

/// Rolls an EnergyBreakdown (dram/trace.hpp) into per-CommandKind model
/// counters: pima_dram_{commands,energy_pj,time_ns}_total{kind=...}. Using
/// the breakdown itself as the source guarantees the metrics can never
/// drift from the Fig. 9-style tables rendered from the same struct.
void add_breakdown_metrics(MetricsRegistry& registry,
                           const dram::EnergyBreakdown& breakdown);

}  // namespace pima::telemetry
