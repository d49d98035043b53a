#include "runtime/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "runtime/bounded_queue.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/log.hpp"
#include "telemetry/session.hpp"
#include "telemetry/telemetry.hpp"

namespace pima::runtime {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

std::size_t resolve_channels(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

struct Engine::Channel {
  explicit Channel(std::size_t capacity) : queue(capacity) {}

  struct Entry {
    Task task;
    std::size_t subarray = EngineStalledError::kNoSubarray;
    std::int64_t submit_ns = 0;  ///< host stamp for submit→retire latency
  };

  BoundedQueue<Entry> queue;
  std::thread worker;

  // Outstanding-task accounting for drain(): incremented before push,
  // decremented after the task retires. The heartbeat fields (busy,
  // last_activity, retired) feed the watchdog; `cancelled` makes a healthy
  // worker drop queued tasks after another channel stalled; `stalled`
  // marks this channel's worker as wedged (its pending count can never
  // reach zero again, so drain() stops waiting on it).
  std::mutex mutex;
  std::condition_variable idle;
  std::size_t pending = 0;
  std::exception_ptr failure;
  bool busy = false;
  std::size_t current_subarray = EngineStalledError::kNoSubarray;
  Clock::time_point last_activity = Clock::now();
  std::uint64_t retired = 0;
  bool cancelled = false;
  bool stalled = false;

  // Telemetry: the worker's trace track and (when metrics are enabled at
  // engine construction) a stable handle to its submit→retire latency
  // histogram. Null handle = one pointer check per task and nothing else.
  std::uint32_t track = 0;
  telemetry::Histogram* latency_hist = nullptr;
};

Engine::Engine(dram::Device& device, EngineOptions options)
    : device_(device),
      options_(options),
      scheduler_(device.geometry().total_subarrays(),
                 resolve_channels(options.channels)) {
  PIMA_CHECK(options_.program_chunk > 0, "program chunk must be positive");
  PIMA_CHECK(options_.stall_timeout_ms >= 0.0,
             "stall timeout must be non-negative");
  if (options_.capture_trace) device_.enable_tracing();
  // Inline fallback: no workers, no queues. force_worker opts out so a
  // device pool's single-channel per-device engines still run concurrently.
  if (channels() == 1 && !options_.force_worker) return;
  channels_.reserve(channels());
  for (std::size_t c = 0; c < channels(); ++c) {
    channels_.push_back(std::make_unique<Channel>(options_.queue_capacity));
    channels_.back()->track = channel_track(c);
    PIMA_TEL_NAME_TRACK(channel_track(c),
                        "channel " + std::to_string(c));
#if PIMA_TELEMETRY
    if (telemetry::metrics_enabled())
      channels_.back()->latency_hist = &telemetry::metrics().histogram(
          "pima_engine_task_latency_ns",
          "submit to retire latency per channel (host ns)",
          {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9},
          {{"channel", std::to_string(c)}}, telemetry::MetricClass::kHost);
#endif
  }
  PIMA_TEL_NAME_TRACK(watchdog_track(), "watchdog");
  // Workers and the watchdog inherit the constructing thread's metrics
  // routing: a pipeline run started under a ScopedMetricsRegistry (a
  // service job's private registry) records its worker-side metrics —
  // recovery events, stall counters — into the same registry.
  telemetry::MetricsRegistry* const scoped_registry =
      telemetry::ScopedMetricsRegistry::current();
  for (auto& ch : channels_)
    ch->worker = std::thread([&ch = *ch, scoped_registry] {
      telemetry::ScopedMetricsRegistry scope(scoped_registry);
      worker_loop(ch);
    });
  if (options_.stall_timeout_ms > 0.0)
    watchdog_ = std::thread([this, scoped_registry] {
      telemetry::ScopedMetricsRegistry scope(scoped_registry);
      watchdog_loop();
    });
  // Flight-recorder state: per-channel queue/worker snapshots land in the
  // `state` section of crash_report.json. Names are sequenced because a
  // device pool owns one engine per device. Workers hold a channel mutex
  // only around bookkeeping (never across a kernel), so a wedged worker
  // cannot deadlock a dump.
  static std::atomic<int> engine_seq{0};
  flight_snapshot_id_ =
      telemetry::FlightRecorder::instance().add_snapshot_provider(
          "engine." + std::to_string(engine_seq.fetch_add(1)), [this] {
            std::string out = "{\"stalled\": ";
            out += stalled_.load(std::memory_order_acquire) ? "true" : "false";
            out += ", \"channels\": [";
            for (std::size_t c = 0; c < channels_.size(); ++c) {
              Channel& ch = *channels_[c];
              std::lock_guard lock(ch.mutex);
              if (c != 0) out += ", ";
              out += "{\"channel\": " + std::to_string(c) +
                     ", \"pending\": " + std::to_string(ch.pending) +
                     ", \"retired\": " + std::to_string(ch.retired) +
                     ", \"busy\": " + (ch.busy ? std::string("true")
                                              : std::string("false")) +
                     ", \"stalled\": " + (ch.stalled ? std::string("true")
                                                     : std::string("false")) +
                     ", \"cancelled\": " + (ch.cancelled
                                                ? std::string("true")
                                                : std::string("false")) +
                     "}";
            }
            out += "]}";
            return out;
          });
}

Engine::~Engine() {
  // The provider captures `this`; drop it before any member dies.
  if (flight_snapshot_id_ >= 0)
    telemetry::FlightRecorder::instance().remove_snapshot_provider(
        flight_snapshot_id_);
  if (watchdog_.joinable()) {
    {
      std::lock_guard lock(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_wake_.notify_all();
    watchdog_.join();
  }
  for (auto& ch : channels_) ch->queue.close();
  for (auto& ch : channels_) {
    bool wedged;
    {
      std::lock_guard lock(ch->mutex);
      wedged = ch->stalled && ch->busy;
    }
    if (!wedged) {
      if (ch->worker.joinable()) ch->worker.join();
      continue;
    }
    // The worker is stuck inside a task and may never return: joining
    // would trade the hang we just diagnosed for a destructor deadlock.
    // Abandon the thread instead and deliberately leak its Channel so the
    // detached worker's accounting writes land in live memory if the task
    // ever does finish.
    ch->worker.detach();
    (void)ch.release();
  }
}

void Engine::worker_loop(Channel& ch) {
  // Static: must stay valid on a detached thread after the Engine object
  // is gone, so it may touch only `ch` (leaked alive in that case).
  PIMA_TEL_SET_THREAD_TRACK(ch.track);
  while (auto entry = ch.queue.pop()) {
    bool skip;
    {
      // Fail-fast: a channel with an uncollected failure (or a
      // cancellation from another channel's stall) drops the rest of its
      // stream instead of executing tasks that assumed the failed task's
      // effects.
      std::lock_guard lock(ch.mutex);
      skip = static_cast<bool>(ch.failure) || ch.cancelled;
      ch.busy = true;
      ch.current_subarray = entry->subarray;
      ch.last_activity = Clock::now();
    }
    if (!skip) {
      PIMA_TEL_SPAN_ARG("task", "subarray",
                        entry->subarray == EngineStalledError::kNoSubarray
                            ? -1.0
                            : static_cast<double>(entry->subarray));
      try {
        (entry->task)();
      } catch (...) {
        std::lock_guard lock(ch.mutex);
        if (!ch.failure) ch.failure = std::current_exception();
      }
    }
    std::size_t queue_depth;
    std::uint64_t retired;
    {
      std::lock_guard lock(ch.mutex);
      ch.busy = false;
      ch.current_subarray = EngineStalledError::kNoSubarray;
      ch.last_activity = Clock::now();
      ++ch.retired;
      --ch.pending;
      queue_depth = ch.pending;
      retired = ch.retired;
    }
    ch.idle.notify_all();
    PIMA_TEL_COUNTER(ch.track, "queue_depth",
                     static_cast<double>(queue_depth));
    PIMA_TEL_COUNTER(ch.track, "retired", static_cast<double>(retired));
    if (ch.latency_hist != nullptr && entry->submit_ns != 0) {
      const std::int64_t now_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Clock::now().time_since_epoch())
              .count();
      ch.latency_hist->observe(static_cast<double>(now_ns - entry->submit_ns));
    }
  }
}

void Engine::watchdog_loop() {
  const auto timeout = std::chrono::duration<double, std::milli>(
      options_.stall_timeout_ms);
  // Poll a few times per timeout window so a stall is reported promptly
  // after it exceeds the deadline, without burning a core.
  const auto poll = std::max(std::chrono::duration<double, std::milli>(1.0),
                             timeout / 4);
  PIMA_TEL_SET_THREAD_TRACK(watchdog_track());
  std::unique_lock watchdog_lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_wake_.wait_for(
        watchdog_lock,
        std::chrono::duration_cast<Clock::duration>(poll),
        [&] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    if (stalled_.load(std::memory_order_acquire)) continue;
    PIMA_TEL_INSTANT("watchdog:heartbeat");
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      Channel& ch = *channels_[c];
      bool fire = false;
      std::size_t subarray = EngineStalledError::kNoSubarray;
      std::uint64_t retired = 0;
      {
        std::lock_guard lock(ch.mutex);
        if (ch.busy && !ch.stalled &&
            Clock::now() - ch.last_activity >=
                std::chrono::duration_cast<Clock::duration>(timeout)) {
          ch.stalled = true;
          fire = true;
          subarray = ch.current_subarray;
          retired = ch.retired;
        }
      }
      if (!fire) continue;
      stalled_.store(true, std::memory_order_release);
      {
        std::lock_guard lock(ch.mutex);
        if (!ch.failure)
          ch.failure = std::make_exception_ptr(EngineStalledError(
              c, subarray, retired, options_.stall_timeout_ms));
      }
      // Last words FIRST: mark the wedged channel's track and push
      // everything recorded so far to the configured sinks. This must
      // complete before the queues close below — closing them wakes
      // drain(), which rethrows the stall, and the trace file must
      // already be durable (the flush is an atomic tmp+fsync+rename) by
      // the time the caller can observe the failure. Sink failures are
      // swallowed — the stall diagnosis must still reach the caller.
      PIMA_TEL_INSTANT_ON(channel_track(c), "stall");
#if PIMA_TELEMETRY
      telemetry::metrics()
          .counter("pima_engine_stalls_total",
                   "channels declared stalled by the watchdog", {},
                   telemetry::MetricClass::kHost)
          .increment();
      try {
        telemetry::TelemetrySession::instance().flush();
      } catch (...) {
      }
#endif
      // Black-box data: the stall is a canonical flight-recorder trigger.
      // Log the typed event (it lands in the ring), then persist the ring
      // plus the registered state snapshots. Failures are swallowed — the
      // stall diagnosis must still reach the caller.
      try {
        telemetry::log_event(
            telemetry::LogLevel::kError, "engine.stalled",
            "engine watchdog fired: channel " + std::to_string(c) +
                " made no progress for " +
                std::to_string(options_.stall_timeout_ms) + " ms",
            {telemetry::LogField::uint("channel", c),
             telemetry::LogField::uint("retired", retired),
             telemetry::LogField::num("timeout_ms",
                                      options_.stall_timeout_ms)});
        telemetry::FlightRecorder::instance().dump(
            "engine_stall", "channel " + std::to_string(c) + " wedged");
      } catch (...) {
      }
      // Cooperative cancellation: healthy channels drop their remaining
      // queues instead of finishing work the caller will discard. Closing
      // the queues also unblocks any producer stuck in a backpressured
      // push() against the wedged channel — its submit is dropped (the
      // engine is poisoned anyway) instead of deadlocking.
      for (auto& other : channels_) {
        std::lock_guard lock(other->mutex);
        other->cancelled = true;
      }
      for (auto& other : channels_) {
        other->queue.close();
        other->idle.notify_all();
      }
      return;  // one stall poisons the engine; nothing further to watch
    }
  }
}

void Engine::submit_tagged(std::size_t channel, Task task,
                           std::size_t subarray) {
  PIMA_CHECK(channel < channels(), "channel index out of engine");
  if (stalled_.load(std::memory_order_acquire))
    throw SimulationError(
        "engine is stalled; the run must be restarted (a wedged channel "
        "worker was abandoned by the watchdog)");
  if (channels_.empty()) {
    // Single-threaded fallback: retire inline. The span lands on the
    // caller's track, so serial traces still show per-batch spans.
    PIMA_TEL_SPAN_ARG("task", "subarray",
                      subarray == EngineStalledError::kNoSubarray
                          ? -1.0
                          : static_cast<double>(subarray));
    task();
    inline_retired_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Channel& ch = *channels_[channel];
  {
    std::lock_guard lock(ch.mutex);
    if (ch.failure)
      throw SimulationError(
          "channel " + std::to_string(channel) +
          " has a failed task; drain() the engine to collect the failure "
          "before submitting more work");
    ++ch.pending;
  }
  std::int64_t submit_ns = 0;
  if (ch.latency_hist != nullptr)
    submit_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now().time_since_epoch())
                    .count();
  if (!ch.queue.push({std::move(task), subarray, submit_ns})) {
    std::lock_guard lock(ch.mutex);
    --ch.pending;  // engine shutting down; drop silently
  }
}

void Engine::submit(std::size_t channel, Task task) {
  submit_tagged(channel, std::move(task), EngineStalledError::kNoSubarray);
}

void Engine::submit_to_subarray(std::size_t subarray_flat, Task task) {
  submit_tagged(channel_of(subarray_flat), std::move(task), subarray_flat);
}

bool Engine::channel_failed(std::size_t channel) const {
  PIMA_CHECK(channel < channels(), "channel index out of engine");
  if (channels_.empty()) return false;  // inline mode: failures throw at once
  Channel& ch = *channels_[channel];
  std::lock_guard lock(ch.mutex);
  return static_cast<bool>(ch.failure);
}

void Engine::submit_program(dram::Program program) {
  for (auto& sub : scheduler_.split(program)) {
    if (sub.empty()) continue;
    const std::size_t subarray = sub.front().subarray;
    const std::size_t channel = channel_of(subarray);
    for (std::size_t begin = 0; begin < sub.size();
         begin += options_.program_chunk) {
      const std::size_t end =
          std::min(sub.size(), begin + options_.program_chunk);
      dram::Program chunk(sub.begin() + static_cast<std::ptrdiff_t>(begin),
                          sub.begin() + static_cast<std::ptrdiff_t>(end));
      submit_tagged(
          channel, [this, chunk = std::move(chunk)] {
            dram::execute(device_, chunk);
          },
          subarray);
    }
  }
}

void Engine::drain() {
  for (auto& ch : channels_) {
    std::unique_lock lock(ch->mutex);
    // A stalled channel's pending count can never reach zero (its worker
    // is wedged inside a task); the watchdog wakes this wait instead.
    ch->idle.wait(lock, [&] { return ch->pending == 0 || ch->stalled; });
  }
  // Collect the first failure in channel order, but clear every channel's
  // failure state before throwing: one drain() fully resets the engine so
  // the next submit()/drain() cycle starts clean even when several
  // channels failed in the same batch.
  std::exception_ptr first;
  for (auto& ch : channels_) {
    std::lock_guard lock(ch->mutex);
    if (ch->failure && !first) first = ch->failure;
    ch->failure = nullptr;
    if (!stalled_.load(std::memory_order_acquire)) ch->cancelled = false;
  }
  if (first) std::rethrow_exception(first);
  if (stalled_.load(std::memory_order_acquire))
    // The stall error was already collected by an earlier drain(); the
    // engine stays poisoned.
    throw SimulationError(
        "engine is stalled; the run must be restarted (a wedged channel "
        "worker was abandoned by the watchdog)");
}

void Engine::quiesce() noexcept {
  for (auto& ch : channels_) {
    {
      std::lock_guard lock(ch->mutex);
      ch->cancelled = true;  // workers skip, but still retire, queued tasks
    }
    ch->idle.notify_all();
  }
  for (auto& ch : channels_) {
    std::unique_lock lock(ch->mutex);
    ch->idle.wait(lock, [&] { return ch->pending == 0 || ch->stalled; });
  }
  // Re-arm for the next submit cycle (unless the engine is poisoned by a
  // stall, where cancelled must stay set so healthy workers keep dropping
  // their streams).
  if (!stalled_.load(std::memory_order_acquire))
    for (auto& ch : channels_) {
      std::lock_guard lock(ch->mutex);
      ch->cancelled = false;
    }
}

void Engine::export_metrics(telemetry::MetricsRegistry& registry) const {
  using telemetry::MetricClass;
  registry
      .gauge("pima_engine_channels", "engine channel count", {},
             MetricClass::kHost)
      .set(static_cast<double>(channels()));
  if (channels_.empty()) {
    registry
        .counter("pima_engine_tasks_retired_total",
                 "tasks retired per channel", {{"channel", "0"}},
                 MetricClass::kHost)
        .add(static_cast<double>(
            inline_retired_.load(std::memory_order_relaxed)));
    return;
  }
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    Channel& ch = *channels_[c];  // unique_ptr does not propagate const
    std::uint64_t retired;
    bool stalled;
    {
      std::lock_guard lock(ch.mutex);
      retired = ch.retired;
      stalled = ch.stalled;
    }
    registry
        .counter("pima_engine_tasks_retired_total",
                 "tasks retired per channel",
                 {{"channel", std::to_string(c)}}, MetricClass::kHost)
        .add(static_cast<double>(retired));
    if (stalled)
      registry
          .counter("pima_engine_stalled_channels_total",
                   "channels declared stalled by the watchdog",
                   {{"channel", std::to_string(c)}}, MetricClass::kHost)
          .increment();
  }
}

}  // namespace pima::runtime
