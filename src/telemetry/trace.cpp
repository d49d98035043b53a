#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "net/json.hpp"

namespace pima::telemetry {

namespace {

// Thread-local buffer/track state. The (owner, generation) stamp
// invalidates the cached pointer when Tracer::clear() drops the buffers or
// when a different Tracer instance (tests construct their own) uses this
// thread, and the pointer is re-resolved on next use — so a stale thread
// can never write into freed memory (buffers are owned by the tracer and
// only freed in clear(), which bumps the generation first).
struct ThreadState {
  const void* owner = nullptr;
  TraceBuffer* buffer = nullptr;
  std::uint64_t generation = 0;
  std::uint32_t track = 0;
};
thread_local ThreadState tls;

// Process-unique generation values (see the header): every Tracer birth
// and every clear() draws a fresh stamp.
std::atomic<std::uint64_t> next_generation{1};

}  // namespace

Tracer::Tracer()
    : generation_(next_generation.fetch_add(1, std::memory_order_relaxed)) {}

void Tracer::enable(std::size_t events_per_thread) {
  clear();
  {
    std::lock_guard lock(mutex_);
    capacity_ = events_per_thread == 0 ? 1 : events_per_thread;
    epoch_ = std::chrono::steady_clock::now();
  }
  enabled_.store(true, std::memory_order_release);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_release); }

void Tracer::clear() {
  enabled_.store(false, std::memory_order_release);
  generation_.store(next_generation.fetch_add(1, std::memory_order_relaxed),
                    std::memory_order_release);
  std::lock_guard lock(mutex_);
  buffers_.clear();
  track_names_.clear();
  processes_.clear();
}

TraceBuffer* Tracer::thread_buffer() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (tls.buffer == nullptr || tls.owner != this || tls.generation != gen) {
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<TraceBuffer>(capacity_));
    tls.owner = this;
    tls.buffer = buffers_.back().get();
    tls.generation = gen;
  }
  return tls.buffer;
}

void Tracer::set_thread_track(std::uint32_t track) { tls.track = track; }

std::uint32_t Tracer::thread_track() const { return tls.track; }

void Tracer::set_track_name(std::uint32_t track, const std::string& name) {
  std::lock_guard lock(mutex_);
  track_names_[track] = name;
}

void Tracer::record_complete(const char* name, std::int64_t start_ns,
                             std::int64_t dur_ns, const char* arg_name,
                             double value) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.phase = 'X';
  e.track = tls.track;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  e.arg_name = arg_name;
  e.value = value;
  thread_buffer()->record(e);
}

void Tracer::record_instant(const char* name, std::uint32_t track) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.phase = 'i';
  e.track = track == kThreadTrack ? tls.track : track;
  e.ts_ns = now_ns();
  thread_buffer()->record(e);
}

void Tracer::record_counter(const char* name, double value,
                            std::uint32_t track) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.phase = 'C';
  e.track = track;
  e.ts_ns = now_ns();
  e.arg_name = "value";
  e.value = value;
  thread_buffer()->record(e);
}

void Tracer::record_flow(const char* name, char phase, std::uint64_t flow_id,
                         std::int64_t ts_ns, std::uint32_t track) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.phase = phase;
  e.track = track == kThreadTrack ? tls.track : track;
  e.ts_ns = ts_ns;
  e.flow_id = flow_id;
  thread_buffer()->record(e);
}

std::vector<ExportedTraceEvent> Tracer::export_events() const {
  std::lock_guard lock(mutex_);
  std::vector<ExportedTraceEvent> out;
  for (const auto& b : buffers_) {
    const std::size_t n = b->published();
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& e = b->at(i);
      ExportedTraceEvent x;
      x.name = e.name == nullptr ? "" : e.name;
      x.arg_name = e.arg_name == nullptr ? "" : e.arg_name;
      x.phase = e.phase;
      x.track = e.track;
      x.ts_ns = e.ts_ns;
      x.dur_ns = e.dur_ns;
      x.value = e.value;
      x.flow_id = e.flow_id;
      out.push_back(std::move(x));
    }
  }
  return out;
}

std::map<std::uint32_t, std::string> Tracer::track_names() const {
  std::lock_guard lock(mutex_);
  return track_names_;
}

void Tracer::put_process(ProcessTrace p) {
  std::lock_guard lock(mutex_);
  processes_[p.pid] = std::move(p);
}

std::size_t Tracer::process_count() const {
  std::lock_guard lock(mutex_);
  return processes_.size();
}

std::size_t Tracer::event_count() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->published();
  return n;
}

std::uint64_t Tracer::dropped_count() const {
  std::lock_guard lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped();
  return n;
}

std::string Tracer::chrome_json() const {
  std::lock_guard lock(mutex_);
  // The tracer's own events render under a synthetic pid 1; each foreign
  // process (a `pima_devd` incarnation) renders under its OS pid with
  // process_name metadata, so a restarted worker appears as a new track
  // group. Gather everything, then sort by timestamp so Perfetto's
  // importer sees a monotone stream per track.
  constexpr std::int64_t kOwnPid = 1;
  struct Row {
    std::int64_t pid;
    ExportedTraceEvent e;
  };
  std::vector<Row> rows;
  for (const auto& b : buffers_) {
    const std::size_t n = b->published();
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& e = b->at(i);
      ExportedTraceEvent x;
      x.name = e.name == nullptr ? "" : e.name;
      x.arg_name = e.arg_name == nullptr ? "" : e.arg_name;
      x.phase = e.phase;
      x.track = e.track;
      x.ts_ns = e.ts_ns;
      x.dur_ns = e.dur_ns;
      x.value = e.value;
      x.flow_id = e.flow_id;
      rows.push_back({kOwnPid, std::move(x)});
    }
  }
  for (const auto& [pid, proc] : processes_)
    for (const auto& e : proc.events) rows.push_back({pid, e});
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.e.ts_ns < b.e.ts_ns;
  });

  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  const auto sep = [&] {
    out << (first ? "\n" : ",\n");
    first = false;
  };
  const auto process_meta = [&](std::int64_t pid, const std::string& name,
                                int sort_index) {
    sep();
    out << "{\"ph\": \"M\", \"pid\": " << pid
        << ", \"name\": \"process_name\", \"args\": {\"name\": \""
        << net::Json::escape(name) << "\"}}";
    sep();
    out << "{\"ph\": \"M\", \"pid\": " << pid
        << ", \"name\": \"process_sort_index\", \"args\": {\"sort_index\": "
        << sort_index << "}}";
  };
  const auto thread_meta = [&](std::int64_t pid, std::uint32_t track,
                               const std::string& name) {
    sep();
    out << "{\"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << track
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
        << net::Json::escape(name) << "\"}}";
    sep();
    out << "{\"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << track
        << ", \"name\": \"thread_sort_index\", \"args\": {\"sort_index\": "
        << track << "}}";
  };
  // Track (thread) naming metadata. sort_index keeps "main" on top and
  // channels in numeric order. The pid-1 process label only matters (and
  // is only emitted) when foreign processes share the trace.
  if (!processes_.empty()) process_meta(kOwnPid, "controller", 0);
  for (const auto& [track, name] : track_names_)
    thread_meta(kOwnPid, track, name);
  for (const auto& [pid, proc] : processes_) {
    process_meta(pid, proc.name, proc.sort_index);
    for (const auto& [track, name] : proc.track_names)
      thread_meta(pid, track, name);
  }
  char num[40];
  const auto fmt_us = [&](std::int64_t ns) {
    // Chrome wants microseconds; keep ns resolution in the fraction.
    std::snprintf(num, sizeof num, "%.3f", static_cast<double>(ns) / 1000.0);
    return num;
  };
  const auto fmt_val = [&](double v) {
    std::snprintf(num, sizeof num, "%.17g", v);
    return num;
  };
  const auto track_label = [&](std::int64_t pid, std::uint32_t track) {
    const std::map<std::uint32_t, std::string>* names = &track_names_;
    if (pid != kOwnPid) {
      const auto it = processes_.find(pid);
      names = it != processes_.end() ? &it->second.track_names : nullptr;
    }
    if (names != nullptr) {
      const auto it = names->find(track);
      if (it != names->end()) return it->second;
    }
    return "track " + std::to_string(track);
  };
  for (const auto& row : rows) {
    const ExportedTraceEvent& e = row.e;
    sep();
    // Counter events are keyed by (pid, name) in the trace-event model, so
    // the owning track's name is folded into the counter name to get one
    // counter track per channel.
    std::string name = net::Json::escape(e.name);
    if (e.phase == 'C')
      name += " [" + net::Json::escape(track_label(row.pid, e.track)) + "]";
    out << "{\"name\": \"" << name << "\", \"ph\": \"" << e.phase
        << "\", \"pid\": " << row.pid << ", \"tid\": " << e.track
        << ", \"ts\": " << fmt_us(e.ts_ns);
    switch (e.phase) {
      case 'X':
        out << ", \"dur\": " << fmt_us(e.dur_ns);
        if (!e.arg_name.empty())
          out << ", \"args\": {\"" << net::Json::escape(e.arg_name)
              << "\": " << fmt_val(e.value) << '}';
        break;
      case 'i':
        out << ", \"s\": \"t\"";
        break;
      case 'C':
        out << ", \"args\": {\"" << net::Json::escape(e.arg_name)
            << "\": " << fmt_val(e.value) << '}';
        break;
      case 's':
      case 'f':
        // Perfetto flow events: both binding points share an id; the
        // finish side binds to the *enclosing* slice ("bp": "e").
        out << ", \"cat\": \"rpc\", \"id\": " << e.flow_id;
        if (e.phase == 'f') out << ", \"bp\": \"e\"";
        break;
      default:
        break;
    }
    out << '}';
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace pima::telemetry
