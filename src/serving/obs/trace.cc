#include "serving/obs/trace.h"

#include <algorithm>

#include "common/check.h"
#include "common/fnv.h"

namespace rago::obs {
namespace {

constexpr double kMicrosPerSecond = 1e6;
/// Track group carrying per-request rows (the serving engine's layout).
constexpr int kRequestPid = 1;

}  // namespace

uint64_t
HashRequestId(uint64_t seed, int64_t request_id) {
  return FnvFoldU64(FnvFoldU64(kFnvOffset, seed),
                    static_cast<uint64_t>(request_id));
}

void
TraceSamplingOptions::Validate() const {
  RAGO_REQUIRE(head_rate >= 0.0 && head_rate <= 1.0,
               "head_rate must lie in [0, 1]");
  RAGO_REQUIRE(tail_keep >= 0, "tail_keep must be non-negative");
}

TraceRecorder::TraceRecorder() : value_key_(Intern("value")) {}

TraceName
TraceRecorder::Intern(std::string_view text) {
  const auto it = ids_.find(text);
  if (it != ids_.end()) {
    return TraceName{it->second};
  }
  const auto id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(text);
  ids_.emplace(strings_.back(), id);
  return TraceName{id};
}

void
TraceRecorder::SetProcessName(int pid, std::string name) {
  process_names_[pid] = std::move(name);
}

void
TraceRecorder::SetThreadName(int pid, int tid, std::string name) {
  if (sampling_active_ && pid == kRequestPid) {
    OpenSlot(tid).thread_name = std::move(name);
    return;
  }
  thread_names_[{pid, tid}] = std::move(name);
}

void
TraceRecorder::NameRequestTrack(int64_t request_id) {
  if (sampling_active_) {
    OpenSlot(request_id).default_track_name = true;
    return;
  }
  thread_names_[{kRequestPid, static_cast<int>(request_id)}] =
      "req " + std::to_string(request_id);
}

void
TraceRecorder::SetSampling(TraceSamplingOptions options) {
  options.Validate();
  RAGO_REQUIRE(records_.empty() && open_requests_ == 0 && tail_.empty(),
               "sampling must be configured before recording");
  sampling_ = options;
  sampling_active_ = options.head_rate < 1.0 || options.tail_keep > 0;
}

bool
TraceRecorder::HeadSampled(int64_t request_id) const {
  // Top 53 bits -> uniform double in [0, 1); compare against the rate.
  const uint64_t hash = HashRequestId(sampling_.seed, request_id);
  const double coin =
      static_cast<double>(hash >> 11) * 0x1.0p-53;
  return coin < sampling_.head_rate;
}

TraceRecorder::PendingSlot&
TraceRecorder::OpenSlot(int64_t request_id) {
  RAGO_REQUIRE(request_id >= 0, "request ids must be non-negative");
  const auto index = static_cast<size_t>(request_id);
  if (index >= slot_of_.size()) {
    slot_of_.resize(std::max(index + 1, 2 * slot_of_.size()), -1);
  }
  int32_t& slot = slot_of_[index];
  if (slot < 0) {
    if (free_slots_.empty()) {
      slot = static_cast<int32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    ++open_requests_;
  }
  return slots_[static_cast<size_t>(slot)];
}

void
TraceRecorder::ReleaseSlot(int32_t slot) {
  if (slot < 0) {
    return;
  }
  PendingSlot& pending = slots_[static_cast<size_t>(slot)];
  pending.default_track_name = false;
  pending.thread_name.clear();
  pending.events.clear();  // Keeps the capacity for the next request.
  free_slots_.push_back(slot);
}

TraceRecorder::EventRef
TraceRecorder::Append(const Record& record) {
  if (sampling_active_ && record.request_id >= 0) {
    std::vector<Record>& buffer = OpenSlot(record.request_id).events;
    buffer.push_back(record);
    return EventRef(this, &buffer.back(), kPending);
  }
  records_.push_back(record);
  return EventRef(this, &records_.back(), records_.size() - 1);
}

TraceRecorder::EventRef
TraceRecorder::AddComplete(TraceName name, TraceName category, int pid,
                           int tid, double start, double duration,
                           int64_t request_id) {
  Record record;
  record.phase = TraceEvent::Phase::kComplete;
  record.name = name.id;
  record.category = category.id;
  record.pid = pid;
  record.tid = tid;
  record.start = start;
  record.duration = duration;
  record.request_id = request_id;
  return Append(record);
}

TraceRecorder::EventRef
TraceRecorder::AddInstant(TraceName name, TraceName category, int pid,
                          int tid, double time, int64_t request_id) {
  Record record;
  record.phase = TraceEvent::Phase::kInstant;
  record.name = name.id;
  record.category = category.id;
  record.pid = pid;
  record.tid = tid;
  record.start = time;
  record.request_id = request_id;
  return Append(record);
}

TraceRecorder::EventRef
TraceRecorder::AddCounter(TraceName name, TraceName category, int pid,
                          int tid, double time, double value) {
  Record record;
  record.phase = TraceEvent::Phase::kCounter;
  record.name = name.id;
  record.category = category.id;
  record.pid = pid;
  record.tid = tid;
  record.start = time;
  EventRef ref = Append(record);
  ref.Arg(value_key_, value);
  return ref;
}

void
TraceRecorder::Commit(int64_t request_id, int32_t slot) {
  if (slot < 0) {
    return;
  }
  PendingSlot& pending = slots_[static_cast<size_t>(slot)];
  const std::pair<int, int> track{kRequestPid, static_cast<int>(request_id)};
  if (!pending.thread_name.empty()) {
    thread_names_[track] = std::move(pending.thread_name);
  } else if (pending.default_track_name) {
    thread_names_[track] = "req " + std::to_string(request_id);
  }
  records_.insert(records_.end(), pending.events.begin(),
                  pending.events.end());
  ReleaseSlot(slot);
}

bool
TraceRecorder::TailWorse(const TailEntry& a, const TailEntry& b) {
  if (a.slo_violation != b.slo_violation) {
    return a.slo_violation;  // Violators outrank merely-slow requests.
  }
  if (a.score != b.score) {
    return a.score > b.score;
  }
  return a.request_id < b.request_id;
}

void
TraceRecorder::FinalizeRequest(int64_t request_id, double score,
                               bool slo_violation) {
  if (!sampling_active_) {
    return;
  }
  int32_t slot = -1;
  if (request_id >= 0 &&
      static_cast<size_t>(request_id) < slot_of_.size()) {
    slot = slot_of_[static_cast<size_t>(request_id)];
    slot_of_[static_cast<size_t>(request_id)] = -1;
  }
  if (slot >= 0) {
    --open_requests_;
  }
  ++finalized_requests_;
  if (HeadSampled(request_id)) {
    Commit(request_id, slot);
    ++sampled_requests_;
    return;
  }
  if (sampling_.tail_keep > 0) {
    TailEntry entry;
    entry.request_id = request_id;
    entry.score = score;
    entry.slo_violation = slo_violation;
    entry.slot = slot;
    const size_t capacity = static_cast<size_t>(sampling_.tail_keep);
    if (tail_.size() == capacity && !TailWorse(entry, tail_.back())) {
      // Would rank last in a full ring: evicted on arrival.
      ReleaseSlot(slot);
      ++discarded_requests_;
      return;
    }
    // Insert in worst-first order; evict the best-ranked entry once
    // over capacity. K is small, so linear insertion is fine.
    auto pos = std::upper_bound(tail_.begin(), tail_.end(), entry,
                                &TraceRecorder::TailWorse);
    tail_.insert(pos, entry);
    if (tail_.size() > capacity) {
      ReleaseSlot(tail_.back().slot);
      tail_.pop_back();
      ++discarded_requests_;
    }
    return;
  }
  ReleaseSlot(slot);
  ++discarded_requests_;
}

void
TraceRecorder::FlushTailKeep() {
  if (!sampling_active_ || tail_.empty()) {
    return;
  }
  std::sort(tail_.begin(), tail_.end(),
            [](const TailEntry& a, const TailEntry& b) {
              return a.request_id < b.request_id;
            });
  for (const TailEntry& entry : tail_) {
    Commit(entry.request_id, entry.slot);
    ++sampled_requests_;
  }
  tail_.clear();
}

TraceEvent
TraceRecorder::Materialize(const Record& record) const {
  TraceEvent event;
  event.phase = record.phase;
  event.name = Text(record.name);
  event.category = Text(record.category);
  event.pid = record.pid;
  event.tid = record.tid;
  event.start = record.start;
  event.duration = record.duration;
  event.request_id = record.request_id;
  for (int a = 0; a < record.num_args; ++a) {
    event.args.emplace_back(Text(record.arg_keys[a]),
                            record.arg_values[a]);
  }
  return event;
}

const std::vector<TraceEvent>&
TraceRecorder::events() const {
  for (size_t i = materialized_.size(); i < records_.size(); ++i) {
    materialized_.push_back(Materialize(records_[i]));
    ++materialized_events_;
  }
  return materialized_;
}

std::vector<const TraceEvent*>
TraceRecorder::EventsForRequest(int64_t request_id) const {
  std::vector<const TraceEvent*> matches;
  for (const TraceEvent& event : events()) {
    if (event.request_id == request_id) {
      matches.push_back(&event);
    }
  }
  return matches;
}

void
TraceRecorder::Clear() {
  records_.clear();
  materialized_.clear();
  materialized_events_ = 0;
  process_names_.clear();
  thread_names_.clear();
  slot_of_.clear();
  slots_.clear();
  free_slots_.clear();
  open_requests_ = 0;
  tail_.clear();
  finalized_requests_ = 0;
  sampled_requests_ = 0;
  discarded_requests_ = 0;
}

void
TraceRecorder::WriteChromeTrace(JsonWriter& json) const {
  json.BeginObject();
  json.Key("displayTimeUnit").String("ms");
  json.Key("traceEvents").BeginArray();
  // Metadata first (the format does not require it, but the viewers
  // name tracks more reliably when names precede events). Map order
  // keeps emission deterministic.
  for (const auto& [pid, name] : process_names_) {
    json.BeginObject();
    json.Key("ph").String("M");
    json.Key("name").String("process_name");
    json.Key("pid").Int(pid);
    json.Key("tid").Int(0);
    json.Key("args").BeginObject();
    json.Key("name").String(name);
    json.EndObject();
    json.EndObject();
  }
  for (const auto& [key, name] : thread_names_) {
    json.BeginObject();
    json.Key("ph").String("M");
    json.Key("name").String("thread_name");
    json.Key("pid").Int(key.first);
    json.Key("tid").Int(key.second);
    json.Key("args").BeginObject();
    json.Key("name").String(name);
    json.EndObject();
    json.EndObject();
  }
  for (const Record& event : records_) {
    json.BeginObject();
    const bool complete = event.phase == TraceEvent::Phase::kComplete;
    const bool counter = event.phase == TraceEvent::Phase::kCounter;
    json.Key("ph").String(complete ? "X" : (counter ? "C" : "i"));
    json.Key("name").String(Text(event.name));
    json.Key("cat").String(Text(event.category));
    json.Key("pid").Int(event.pid);
    json.Key("tid").Int(event.tid);
    json.Key("ts").Number(event.start * kMicrosPerSecond);
    if (complete) {
      json.Key("dur").Number(event.duration * kMicrosPerSecond);
    } else if (!counter) {
      json.Key("s").String("t");  // Instant scoped to its thread row.
    }
    if (event.request_id >= 0 || event.num_args > 0) {
      json.Key("args").BeginObject();
      if (event.request_id >= 0) {
        json.Key("request").Int(event.request_id);
      }
      for (int a = 0; a < event.num_args; ++a) {
        json.Key(Text(event.arg_keys[a])).Number(event.arg_values[a]);
      }
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

std::string
TraceRecorder::ChromeTraceJson() const {
  JsonWriter json;
  WriteChromeTrace(json);
  return json.str();
}

void
TraceRecorder::WriteRequestSummary(JsonWriter& json) const {
  // Group by request id; within a request, recorded order is causal
  // order (the serial event loop appends as things happen), which the
  // stable sort keeps.
  std::vector<const Record*> owned;
  for (const Record& event : records_) {
    if (event.request_id >= 0) {
      owned.push_back(&event);
    }
  }
  std::stable_sort(owned.begin(), owned.end(),
                   [](const Record* a, const Record* b) {
                     return a->request_id < b->request_id;
                   });
  json.BeginObject();
  json.Key("requests").BeginArray();
  for (size_t begin = 0; begin < owned.size();) {
    const int64_t request_id = owned[begin]->request_id;
    json.BeginObject();
    json.Key("request").Int(request_id);
    json.Key("events").BeginArray();
    size_t end = begin;
    for (; end < owned.size() && owned[end]->request_id == request_id;
         ++end) {
      const Record& event = *owned[end];
      json.BeginObject();
      json.Key("name").String(Text(event.name));
      json.Key("phase").String(
          event.phase == TraceEvent::Phase::kComplete ? "span" : "instant");
      json.Key("start").Number(event.start);
      if (event.phase == TraceEvent::Phase::kComplete) {
        json.Key("duration").Number(event.duration);
      }
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    begin = end;
  }
  json.EndArray();
  json.EndObject();
}

std::string
TraceRecorder::RequestSummaryJson() const {
  JsonWriter json;
  WriteRequestSummary(json);
  return json.str();
}

}  // namespace rago::obs
