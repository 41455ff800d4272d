/**
 * @file trace.h
 * Span-based per-request trace recorder for the serving engines.
 *
 * Aggregate telemetry (runtime::RuntimeResult) answers "what
 * were the percentiles"; it cannot answer "why was request 411 slow".
 * This recorder captures the causal structure of one serving run as
 * spans on the virtual clock — admission, queue waits, batch
 * membership, stage execution, cache hits, decode residency — and
 * exports two views:
 *
 *  - **Chrome trace-event JSON** (chrome://tracing, Perfetto): rows
 *    are servers (pid 0, one track per physical server plus the decode
 *    pool) and requests (pid 1, one track per request id), so batch
 *    occupancy and a request's journey line up on one timeline.
 *  - **Compact per-request summary JSON**: each request id with its
 *    recorded spans in order, for programmatic assertions.
 *
 * Recording is opt-in (a null recorder disables everything) and
 * observation-only by contract: recorders accept appends from the
 * serial event loops and never feed anything back, so the outcome
 * digest of a traced run is bit-identical to an untraced one — the
 * invariance tests pin exactly this. Timestamps are virtual seconds;
 * the exporter scales to the microseconds chrome://tracing expects.
 * Not thread-safe (all appends happen on the serial scheduler loop).
 *
 * **Deterministic sampling** keeps the export usable at soak scale:
 * with `TraceSamplingOptions` set, per-request events buffer until the
 * engine finalizes the request, then commit only when the request is
 * head-sampled (an FNV-1a hash of its id against `head_rate` — a pure
 * function of (seed, id), so the sampled subset is identical for any
 * thread count and any arrival interleaving) or survives the tail-keep
 * ring, which always retains the `tail_keep` worst requests (SLO
 * violators first, then slowest). Events with no request id (server
 * rows, counters) bypass sampling entirely.
 */
#ifndef RAGO_SERVING_OBS_TRACE_H
#define RAGO_SERVING_OBS_TRACE_H

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/json_writer.h"

namespace rago::obs {

/// FNV-1a hash of (seed, request id); the head-sampling coin.
uint64_t HashRequestId(uint64_t seed, int64_t request_id);

/// Head-rate + tail-keep sampling policy for a TraceRecorder.
struct TraceSamplingOptions {
  /// Fraction of requests committed unconditionally, decided by
  /// hash(seed, id) < head_rate. 1.0 (default) disables sampling:
  /// every event commits immediately, exactly as before.
  double head_rate = 1.0;
  /// Worst-request ring size: the K requests with the highest
  /// (violation, score) survive even when not head-sampled. 0 = off.
  int tail_keep = 0;
  /// Seed for the sampling hash; independent of the workload seed.
  uint64_t seed = 0;

  /// Throws ConfigError on head_rate outside [0, 1] or tail_keep < 0.
  void Validate() const;
};

/// An interned string (event name, category or arg key) of one
/// TraceRecorder; see TraceRecorder::Intern.
struct TraceName {
  uint32_t id = 0;
};

/// One recorded trace event (virtual-clock seconds), in the
/// string-bearing form TraceRecorder::events() returns.
struct TraceEvent {
  enum class Phase : uint8_t {
    kComplete,  ///< Duration span ("X" in the trace-event format).
    kInstant,   ///< Point event ("i").
    kCounter,   ///< Counter sample ("C"): value tracks over time.
  };

  Phase phase = Phase::kComplete;
  std::string name;
  std::string category;  ///< Trace-event "cat": filterable grouping.
  int pid = 0;           ///< Track group (0 = servers, 1 = requests).
  int tid = 0;           ///< Track within the group.
  double start = 0.0;    ///< Virtual seconds.
  double duration = 0.0; ///< Virtual seconds; unused for instants.
  int64_t request_id = -1;  ///< Owning request, -1 when none.
  /// Extra numeric payload, emitted under "args" in recorded order.
  std::vector<std::pair<std::string, double>> args;
};

/**
 * Append-only event log with named tracks. The runtime and the DES
 * write through the pointer in their options struct; tests and tools
 * read back either export. Reusable across runs via Clear().
 *
 * Storage is compact: names, categories and arg keys are interned
 * once, and each event is a fixed-size record with its numeric args
 * inline, so recording allocates nothing per event. Under sampling,
 * a request's events buffer in a pending slot found through a flat
 * table indexed by request id, and slots are reused once the request
 * is finalized. Strings are built only for what survives: a committed
 * request's "req N" track name at commit, and event names when an
 * export or events() reads them.
 */
class TraceRecorder {
 private:
  struct Record;

 public:
  /// Numeric args one event can carry.
  static constexpr int kMaxArgs = 3;

  /// The event just appended; valid until the next append.
  class EventRef {
   public:
    /// Attaches a numeric arg; throws ConfigError past kMaxArgs.
    EventRef& Arg(TraceName key, double value);
    EventRef& Arg(std::string_view key, double value) {
      return Arg(recorder_->Intern(key), value);
    }

   private:
    friend class TraceRecorder;
    EventRef(TraceRecorder* recorder, Record* record, size_t committed)
        : recorder_(recorder), record_(record), committed_(committed) {}

    TraceRecorder* recorder_;
    Record* record_;
    size_t committed_;  ///< Index in the committed log, or kPending.
  };

  TraceRecorder();
  // Interned views and live EventRefs point into this recorder.
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Returns the stable id of `text`, adding it on first use. Engines
  /// intern their closed set of names once and record by id.
  TraceName Intern(std::string_view text);

  /// Names a pid group ("servers", "requests").
  void SetProcessName(int pid, std::string name);
  /// Names one track within a pid group ("server 0 (xpu)", "req 7").
  /// Under sampling, names on the request group (pid 1, tid = request
  /// id) defer with the request's events so unsampled requests leave
  /// no metadata behind.
  void SetThreadName(int pid, int tid, std::string name);
  /// Names request `request_id`'s track (pid 1) "req <id>". Under
  /// sampling the name is built only if the request commits.
  void NameRequestTrack(int64_t request_id);

  /// Appends a duration span; the returned ref accepts args.
  EventRef AddComplete(TraceName name, TraceName category, int pid, int tid,
                       double start, double duration,
                       int64_t request_id = -1);
  EventRef AddComplete(std::string_view name, std::string_view category,
                       int pid, int tid, double start, double duration,
                       int64_t request_id = -1) {
    return AddComplete(Intern(name), Intern(category), pid, tid, start,
                       duration, request_id);
  }
  /// Appends a point event.
  EventRef AddInstant(TraceName name, TraceName category, int pid, int tid,
                      double time, int64_t request_id = -1);
  EventRef AddInstant(std::string_view name, std::string_view category,
                      int pid, int tid, double time,
                      int64_t request_id = -1) {
    return AddInstant(Intern(name), Intern(category), pid, tid, time,
                      request_id);
  }
  /// Appends a counter sample ("C" event): `name` identifies the
  /// counter track within `pid`, `value` its level at `time`.
  EventRef AddCounter(TraceName name, TraceName category, int pid, int tid,
                      double time, double value);
  EventRef AddCounter(std::string_view name, std::string_view category,
                      int pid, int tid, double time, double value) {
    return AddCounter(Intern(name), Intern(category), pid, tid, time,
                      value);
  }

  /**
   * Enables deterministic sampling. Must be called while the recorder
   * is empty; with the default options it is a no-op (head_rate 1.0
   * keeps the direct-commit path). While active, events carrying a
   * request id buffer per request until FinalizeRequest decides their
   * fate; request-less events still commit immediately.
   */
  void SetSampling(TraceSamplingOptions options);
  const TraceSamplingOptions& sampling() const { return sampling_; }
  /// True when a non-default sampling policy is active.
  bool sampling_active() const { return sampling_active_; }
  /// The head-sampling verdict for a request id (pure function).
  bool HeadSampled(int64_t request_id) const;

  /**
   * Seals a request's buffered events: commits them when the id is
   * head-sampled, otherwise offers them to the tail-keep ring keyed by
   * (slo_violation desc, score desc, id asc) — `score` is typically
   * the request's latency. No-op when sampling is inactive.
   */
  void FinalizeRequest(int64_t request_id, double score,
                       bool slo_violation);
  /// Commits the tail-keep survivors (ascending request id) at end of
  /// run; further finalizations start a fresh ring.
  void FlushTailKeep();

  /// Requests finalized / committed / discarded under sampling.
  int64_t finalized_requests() const { return finalized_requests_; }
  int64_t sampled_requests() const { return sampled_requests_; }
  int64_t discarded_requests() const { return discarded_requests_; }
  /// Requests currently buffered (not yet finalized) / in the ring.
  size_t pending_requests() const { return open_requests_; }
  size_t tail_kept() const { return tail_.size(); }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  /// The committed events in string-bearing form, built on first read
  /// and extended as the log grows.
  const std::vector<TraceEvent>& events() const;
  /// Events built into TraceEvent form since construction or Clear():
  /// a deterministic count of string work. Recording and both exports
  /// build none; events() and EventsForRequest build each committed
  /// event once.
  int64_t materialized_events() const { return materialized_events_; }

  /// Events recorded for one request id, in recorded order.
  std::vector<const TraceEvent*> EventsForRequest(int64_t request_id) const;

  void Clear();

  /**
   * Emits the full Chrome trace-event document:
   * {"displayTimeUnit": "ms", "traceEvents": [metadata..., events...]}.
   * Loadable directly in chrome://tracing or ui.perfetto.dev.
   */
  void WriteChromeTrace(JsonWriter& json) const;
  std::string ChromeTraceJson() const;

  /**
   * Emits the compact summary: {"requests": [{"request": id,
   * "events": [{"name", "phase", "start", "duration"}...]}...]},
   * ordered by request id (events without a request id are omitted).
   */
  void WriteRequestSummary(JsonWriter& json) const;
  std::string RequestSummaryJson() const;

 private:
  static constexpr size_t kPending = static_cast<size_t>(-1);

  /// One event: interned strings, args inline, no heap storage.
  struct Record {
    double start = 0.0;
    double duration = 0.0;
    double arg_values[kMaxArgs] = {};
    int64_t request_id = -1;
    int pid = 0;
    int tid = 0;
    uint32_t name = 0;
    uint32_t category = 0;
    uint32_t arg_keys[kMaxArgs] = {};
    TraceEvent::Phase phase = TraceEvent::Phase::kComplete;
    uint8_t num_args = 0;
  };
  /// A request's buffered events while sampling defers the commit
  /// decision. Slots are recycled, keeping their buffer's capacity.
  struct PendingSlot {
    bool default_track_name = false;  ///< NameRequestTrack was called.
    std::string thread_name;          ///< Explicit pid-1 track name.
    std::vector<Record> events;
  };
  /// Tail-keep candidate: a finalized, non-head-sampled request.
  struct TailEntry {
    int64_t request_id = 0;
    double score = 0.0;
    bool slo_violation = false;
    int32_t slot = -1;  ///< Its buffered events, or -1 when none.
  };

  /// True when `a` outranks `b` for a tail-keep slot.
  static bool TailWorse(const TailEntry& a, const TailEntry& b);
  EventRef Append(const Record& record);
  /// The open slot of `request_id`, claiming one when it has none.
  PendingSlot& OpenSlot(int64_t request_id);
  /// Commits `slot` (may be -1) as request `request_id`'s events.
  void Commit(int64_t request_id, int32_t slot);
  void ReleaseSlot(int32_t slot);
  TraceEvent Materialize(const Record& record) const;
  const std::string& Text(uint32_t id) const { return strings_[id]; }

  // Interned strings; `ids_` views point into `strings_`, whose
  // elements never move.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, uint32_t> ids_;
  TraceName value_key_;  ///< The counter arg key, "value".

  std::vector<Record> records_;  ///< The committed log.
  mutable std::vector<TraceEvent> materialized_;
  mutable int64_t materialized_events_ = 0;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, int>, std::string> thread_names_;

  TraceSamplingOptions sampling_;
  bool sampling_active_ = false;
  std::vector<int32_t> slot_of_;  ///< Request id -> open slot, or -1.
  std::vector<PendingSlot> slots_;
  std::vector<int32_t> free_slots_;
  size_t open_requests_ = 0;
  std::vector<TailEntry> tail_;  ///< Kept sorted worst-first, size <= K.
  int64_t finalized_requests_ = 0;
  int64_t sampled_requests_ = 0;
  int64_t discarded_requests_ = 0;
};

inline TraceRecorder::EventRef&
TraceRecorder::EventRef::Arg(TraceName key, double value) {
  RAGO_REQUIRE(record_->num_args < kMaxArgs,
               "a trace event carries at most 3 args");
  record_->arg_keys[record_->num_args] = key.id;
  record_->arg_values[record_->num_args] = value;
  ++record_->num_args;
  // A view built before this arg landed is stale from here on.
  if (committed_ < recorder_->materialized_.size()) {
    recorder_->materialized_.resize(committed_);
  }
  return *this;
}

}  // namespace rago::obs

#endif  // RAGO_SERVING_OBS_TRACE_H
