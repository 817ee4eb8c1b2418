// ita_record: the benchmark of record. One process runs one workload
// (workloads.h): set-up, a closed loop of fixed work, in a traced run also
// an open loop on a fixed arrival schedule and a traced closed loop, then
// an untimed correctness gate. It prints
// "workload metric value unit" for every metric and, as the last line, a
// JSON summary; --out also writes the full record (sample counts, exact
// work counters, stream fingerprint). README.md documents the protocol
// and every metric.
//
//   ita_record --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//              [--out <dir>] [--smoke]
//
// Exit codes: 0 recorded, 1 an engine call or the correctness gate
// failed, 2 bad usage or a build/environment the recording refuses.

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "core/query.h"
#include "obs/epoch_trace.h"
#include "obs/phase_recorder.h"
#include "persist/epoch_log.h"
#include "sim/checker.h"
#include "sim/event_stream.h"
#include "sim/sim_engine.h"
#include "workloads.h"

#ifndef ITA_RECORD_BUILD_TYPE
#define ITA_RECORD_BUILD_TYPE ""
#endif
#ifndef ITA_RECORD_INSTRUMENTED
#define ITA_RECORD_INSTRUMENTED 0
#endif

namespace ita::record {
namespace {

using Nanos = std::uint64_t;

Nanos NowNs() {
  return static_cast<Nanos>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Statistics over raw samples ---------------------------------------

/// Set-up runs at least kSetupRepeats times and for at least
/// kSetupSeconds per process; setup_s is the median. The sharded
/// workloads' set-ups slow down by up to 2x in spells of a second or
/// more on a shared machine, so a short set-up repeats until its median
/// spans several seconds.
constexpr std::size_t kSetupRepeats = 5;
constexpr double kSetupSeconds = 3.0;
/// Closed-loop segments per run, each followed by an open-loop slice in a
/// traced run. Short segments make it likelier that one of them falls in
/// a quiet spell of a shared machine (README.md, "Why the best segment").
constexpr std::size_t kSegments = 40;
/// The closed loop generates its epochs in chunks of at least this many
/// documents before it applies them, and reads the instruction counter
/// once per chunk, so neither the generator nor the counter's read (a
/// system call) runs inside the counted span on every epoch.
constexpr std::size_t kChunkDocs = 256;
/// Share of --seconds the open loop's schedule spans (traced runs only).
constexpr double kOpenShare = 0.5;
/// Documents the paper_fig3 traced run streams through NaiveServer.
constexpr std::size_t kNaiveSliceDocs = 10'000;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Raw timing samples, one per operation; float keeps the recorder's share
/// of the process's memory small.
using Samples = std::vector<float>;

/// Nearest-rank percentile (p in (0, 1]); 0 without samples.
double Percentile(Samples v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(index),
                   v.end());
  return v[index];
}

/// Percentile `p` of each of up to kSegments contiguous, equal-count
/// segments of `samples`. Each segment is long enough to hold ten samples
/// beyond its percentile (20 for a p50, 1,000 for a p99); with fewer
/// samples there is one segment.
std::vector<double> SegmentPercentiles(const Samples& samples, double p) {
  const auto min_samples = static_cast<std::size_t>(std::ceil(10.0 / (1.0 - p)));
  const std::size_t segments =
      std::clamp<std::size_t>(samples.size() / min_samples, 1, kSegments);
  std::vector<double> per_segment;
  for (std::size_t s = 0; s < segments; ++s) {
    const std::size_t begin = samples.size() * s / segments;
    const std::size_t end = samples.size() * (s + 1) / segments;
    per_segment.push_back(
        Percentile(Samples(samples.begin() + static_cast<std::ptrdiff_t>(begin),
                           samples.begin() + static_cast<std::ptrdiff_t>(end)),
                   p));
  }
  return per_segment;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One reported metric. `samples` is the raw sample count behind a
/// timing (0 for counts and gauges); `segments` its per-segment values.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::vector<double> segments = {};
};

/// A timing reported from per-segment values: the best segment. Noise on
/// a shared machine only ever slows a segment down, so the fastest one is
/// the steadiest estimate of what the code itself costs.
Metric SegmentedMetric(std::string name, std::string unit, bool higher_is_better,
                       std::size_t samples, std::vector<double> segments) {
  const auto best = higher_is_better
                        ? std::max_element(segments.begin(), segments.end())
                        : std::min_element(segments.begin(), segments.end());
  const double value = best == segments.end() ? 0.0 : *best;
  return {std::move(name), value, std::move(unit), samples, std::move(segments)};
}

// --- The recorder's spans ------------------------------------------------

/// The layer boundaries the recorder wraps: its own calls into sim, core,
/// and persist. Spans inside the library are the engine's EpochTrace.
enum class SpanKind : std::uint8_t {
  kEpoch,
  kNextEpoch,
  kWalAppend,
  kUnregister,
  kRegister,
  kIngest,
  kAdvance,
  kCheckpoint,
};
constexpr std::size_t kSpanKinds = 8;

const char* SpanName(SpanKind kind) {
  static constexpr std::array<const char*, kSpanKinds> kNames = {
      "epoch",           "sim.next_epoch", "persist.wal_append",
      "core.unregister", "core.register",  "core.ingest",
      "core.advance",    "persist.checkpoint"};
  return kNames[static_cast<std::size_t>(kind)];
}

/// Spans {name, id, parent, epoch, start, end} held in memory while the
/// traced loop runs. Self time (a span minus its children) is summed as
/// spans close; the first kMaxRawSpans spans are kept for WriteJson.
class SpanTrace {
 public:
  struct Totals {
    Nanos total_ns = 0;
    Nanos self_ns = 0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }

  void Begin(SpanKind kind, std::uint64_t epoch) {
    if (!enabled_) return;
    const std::uint32_t parent = open_.empty() ? 0 : open_.back().id;
    open_.push_back({kind, next_id_++, parent, epoch, NowNs(), 0});
  }

  void End() {
    if (!enabled_) return;
    const Open span = open_.back();
    open_.pop_back();
    const Nanos end = NowNs();
    const Nanos duration = end - span.start;
    Totals& t = totals_[static_cast<std::size_t>(span.kind)];
    t.total_ns += duration;
    t.self_ns += duration - span.child_ns;
    if (!open_.empty()) open_.back().child_ns += duration;
    if (raw_.size() < kMaxRawSpans) {
      raw_.push_back({span.kind, span.id, span.parent, span.epoch, span.start,
                      end});
    }
  }

  const Totals& totals(SpanKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }

  /// Writes the kept spans as Chrome trace-event JSON.
  void WriteJson(const std::string& path) const {
    std::ofstream out(path);
    const Nanos origin = raw_.empty() ? 0 : raw_.front().start;
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < raw_.size(); ++i) {
      const Raw& s = raw_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << SpanName(s.kind)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << static_cast<double>(s.start - origin) / 1e3
          << ", \"dur\": " << static_cast<double>(s.end - s.start) / 1e3
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"epoch\": " << s.epoch << "}}";
    }
    out << "\n]}\n";
  }

 private:
  static constexpr std::size_t kMaxRawSpans = 50'000;
  struct Open {
    SpanKind kind;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t epoch;
    Nanos start;
    Nanos child_ns;
  };
  struct Raw {
    SpanKind kind;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t epoch;
    Nanos start;
    Nanos end;
  };

  bool enabled_ = false;
  std::uint32_t next_id_ = 1;
  std::vector<Open> open_;
  std::vector<Raw> raw_;
  std::array<Totals, kSpanKinds> totals_{};
};

class SpanScope {
 public:
  SpanScope(SpanTrace& trace, SpanKind kind, std::uint64_t epoch)
      : trace_(trace) {
    trace_.Begin(kind, epoch);
  }
  ~SpanScope() { trace_.End(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanTrace& trace_;
};

// --- Instructions retired ----------------------------------------------------

/// User-mode instructions retired by this process, all of its threads: a
/// hardware counter that must be opened before the first thread starts,
/// since only threads created later (the sharded engines' workers) inherit
/// it. Unlike a time, the count does not move with what the other tenants
/// of a shared machine run (README.md, "Why instructions").
class InstructionCounter {
 public:
  InstructionCounter() {
    perf_event_attr attr{};
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = PERF_COUNT_HW_INSTRUCTIONS;
    attr.inherit = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format =
        PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
    fd_ = static_cast<int>(syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
    if (fd_ < 0) error_ = std::strerror(errno);
  }
  ~InstructionCounter() {
    if (fd_ >= 0) close(fd_);
  }
  InstructionCounter(const InstructionCounter&) = delete;
  InstructionCounter& operator=(const InstructionCounter&) = delete;

  /// Why the counter could not be opened; empty when it was.
  const std::string& error() const { return error_; }

  /// Instructions counted so far, scaled up when the kernel multiplexed
  /// the counter with others; 0 without a counter.
  double Read() const {
    std::array<std::uint64_t, 3> v{};  // value, time enabled, time running
    if (fd_ < 0 || read(fd_, v.data(), sizeof(v)) != sizeof(v) || v[2] == 0) {
      return 0.0;
    }
    return static_cast<double>(v[0]) * static_cast<double>(v[1]) /
           static_cast<double>(v[2]);
  }

 private:
  int fd_ = -1;
  std::string error_;
};

// --- Recording guard -----------------------------------------------------

/// Why this build or environment must not record; empty when it may.
/// Each item changes the program under test.
std::vector<std::string> GuardViolations() {
  std::vector<std::string> why;
  const std::string build_type = ITA_RECORD_BUILD_TYPE;
  if (build_type != "Release") {
    why.push_back("build type '" + build_type + "' is not Release");
  }
#ifndef NDEBUG
  why.push_back("assertions are compiled in (NDEBUG unset)");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why.push_back("sanitizer build");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  why.push_back("sanitizer build");
#endif
#endif
  if (ITA_RECORD_INSTRUMENTED) {
    why.push_back("sanitizer, coverage or fuzzer instrumentation");
  }
  if (!ITA_OBS_ENABLED) why.push_back("ITA_OBS=OFF build");
  for (const char* var : {"ITA_REBALANCE", "ITA_SIMD_KERNEL", "ITA_OBS_TRACE"}) {
    if (std::getenv(var) != nullptr) {
      why.push_back(std::string(var) + " is set in the environment");
    }
  }
  return why;
}

/// Resident set (VmRSS) of this process, in MB, after freed heap is
/// handed back to the system: the memory the process holds live, not
/// what the allocator kept from earlier set-ups or from buffers that
/// growth replaced.
double LiveResidentMb() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Every digit of a measured value (shortest round-trip form); JSON has no
/// NaN or infinity.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  std::array<char, 32> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  (void)ec;
  return std::string(buf.data(), end);
}

// --- The protocol ----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
};

/// What the closed loop measured (all its segments).
struct ClosedLoop {
  Samples epoch_us;                   ///< wall time of each epoch apply
  std::vector<std::size_t> epoch_docs;
  std::size_t docs = 0;
  Nanos gen_ns = 0;                   ///< time spent generating epochs
  double instructions = 0.0;          ///< retired while applying, all threads

  double InstructionsPerDoc() const {
    return Ratio(instructions, static_cast<double>(docs));
  }

  /// docs / apply time of each of kSegments equal segments.
  std::vector<double> SegmentRates() const {
    std::vector<double> rates;
    const std::size_t n = epoch_us.size();
    const std::size_t segments = std::min(kSegments, n);
    for (std::size_t s = 0; s < segments; ++s) {
      double us = 0.0;
      std::size_t docs_in = 0;
      for (std::size_t i = n * s / segments; i < n * (s + 1) / segments; ++i) {
        us += epoch_us[i];
        docs_in += epoch_docs[i];
      }
      rates.push_back(Ratio(static_cast<double>(docs_in), us / 1e6));
    }
    return rates;
  }
};

/// What the open loop measured (all its slices).
struct OpenLoop {
  Samples notify_ms;  ///< due time -> each listener callback
  Samples lag_ms;     ///< due time -> dispatch
  std::size_t epochs = 0;
  std::size_t docs = 0;
  std::size_t backlog_end_docs = 0;
};

/// Engine counters over a measured phase.
struct Work {
  ServerStats stats;
  std::uint64_t notifications = 0;
  std::uint64_t rebalance_moves = 0;
};

/// Engine-trace figures of the traced closed loop.
struct EngineTrace {
  double expire_ms = 0, arrive_ms = 0, probe_ms = 0, rollup_ms = 0,
         refill_ms = 0, notify_flush_us = 0;
  Samples critical_ms;  ///< per epoch, exact, from ring rows
  double barrier_wait_ms = 0, imbalance_mean = 0;
};

std::unique_ptr<sim::SimEngine> MakeEngine(const Workload& w) {
  if (w.shards == 0) {
    return sim::MakeSequentialEngine(sim::SequentialStrategy::kIta,
                                     w.spec.window);
  }
  return sim::MakeShardedEngine(w.spec.window, w.shards, w.shards, {},
                                w.rebalance);
}

class Recorder {
 public:
  Recorder(Options options, Workload workload,
           const InstructionCounter& instructions)
      : opt_(std::move(options)),
        w_(std::move(workload)),
        instructions_(instructions) {}

  /// Runs the whole protocol and reports; returns the exit code.
  int Run() {
    const std::size_t repeats = opt_.smoke ? 1 : kSetupRepeats;
    const Nanos setup_until =
        NowNs() + (opt_.smoke ? 0 : static_cast<Nanos>(kSetupSeconds * 1e9));
    while (ok_ && (setup_s_.size() < repeats || NowNs() < setup_until)) {
      const Nanos t0 = NowNs();
      Setup();
      setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }

    // kSegments closed-loop segments. A traced run follows each with one
    // open-loop slice, so both loops sample the whole run, quiet and
    // noisy spells of a shared machine alike; the open loop feeds only
    // per-layer metrics.
    const std::size_t segment_epochs =
        opt_.smoke ? 1
                   : static_cast<std::size_t>(std::ceil(
                         w_.closed_epochs_per_second * opt_.seconds /
                         static_cast<double>(kSegments)));
    const double slice_seconds =
        (opt_.smoke ? 0.05 : opt_.seconds * kOpenShare) / static_cast<double>(kSegments);
    closed_.epoch_us.reserve(segment_epochs * kSegments);
    closed_.epoch_docs.reserve(segment_epochs * kSegments);
    engine_->ResetStats();
    notifications_ = 0;
    for (std::size_t s = 0; s < kSegments && ok_; ++s) {
      ok_ = RunClosed(segment_epochs, &closed_);
      if (ok_ && opt_.trace) ok_ = RunOpen(slice_seconds, &open_);
    }
    measured_ = TakeWork();
    rss_mb_ = LiveResidentMb();

    if (ok_ && opt_.trace) {
      const std::size_t traced_epochs = segment_epochs * kSegments;
      engine_->EnableTracing(w_.shards == 0 ? 1'024 : traced_epochs + 16);
      spans_.set_enabled(true);
      ok_ = RunClosed(traced_epochs, &traced_);
      spans_.set_enabled(false);
      traced_work_ = TakeWork();
      if (ok_) ReadEngineTrace();
    }

    Status gate = ok_ ? Gate() : Status::Internal(error_);
    if (gate.ok() && opt_.trace && w_.spec.name == "paper_fig3") {
      gate = NaiveReference(opt_.smoke ? 200 : kNaiveSliceDocs);
    }
    correct_ = gate.ok();
    if (!correct_) std::cerr << "ita_record: FAILED: " << gate << "\n";
    Report();
    return correct_ ? 0 : 1;
  }

 private:
  /// Builds the engine and the stream, fills the window, installs the
  /// queries and runs the settle epochs; a durable workload ends with a
  /// checkpoint and an empty log. Replaces any earlier set-up.
  void Setup() {
    engine_.reset();
    gen_.reset();
    gen_ = std::make_unique<sim::EventStreamGenerator>(w_.spec);
    engine_ = MakeEngine(w_);
    engine_->SetResultListener(
        [this](QueryId, const std::vector<ResultEntry>&) { OnNotify(); });
    log_.Clear();
    pending_.reset();
    applied_epochs_ = 0;
    bool installed = false;
    std::size_t settle = opt_.smoke ? 8 : w_.settle_epochs;
    while (ok_ && settle > 0) {
      std::optional<sim::SimEpoch> epoch = gen_->NextEpoch();
      if (installed) --settle;
      installed = installed || !epoch->register_queries.empty();
      ok_ = Apply(*std::move(epoch));
    }
    if (ok_ && w_.durable) ok_ = Checkpoint();
  }

  void OnNotify() {
    ++notifications_;
    if (recording_notify_) {
      notify_ms_->push_back(static_cast<double>(NowNs() - due_ns_) / 1e6);
    }
  }

  bool Fail(const std::string& what) {
    ++calls_failed_;
    error_ = "epoch " + std::to_string(current_epoch_) + ": " + what;
    return false;
  }

  /// Applies one epoch through the public SimEngine calls in ApplyEpoch's
  /// order — unregister, register (the engine must assign the predicted
  /// ids), ingest, advance — logging it first on a durable workload and
  /// checkpointing when due. Each call is timed or wrapped in a span. A
  /// failed call is counted and ends the workload.
  bool Apply(sim::SimEpoch&& epoch) {
    current_epoch_ = epoch.index;
    SpanScope span(spans_, SpanKind::kEpoch, epoch.index);
    if (w_.durable) {
      SpanScope s(spans_, SpanKind::kWalAppend, epoch.index);
      const std::size_t before = log_.bytes().size();
      const Nanos t0 = NowNs();
      log_.Append(epoch);
      wal_append_us_.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      wal_bytes_ += log_.bytes().size() - before;
      ++calls_attempted_;
    }
    for (const QueryId id : epoch.unregister) {
      SpanScope s(spans_, SpanKind::kUnregister, epoch.index);
      ++calls_attempted_;
      const Nanos t0 = NowNs();
      const Status st = engine_->UnregisterQuery(id);
      unregister_us_.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (!st.ok()) return Fail("unregister: " + st.ToString());
    }
    for (std::size_t i = 0; i < epoch.register_queries.size(); ++i) {
      SpanScope s(spans_, SpanKind::kRegister, epoch.index);
      ++calls_attempted_;
      const Nanos t0 = NowNs();
      const StatusOr<QueryId> got =
          engine_->RegisterQuery(std::move(epoch.register_queries[i]));
      register_us_.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (!got.ok()) return Fail("register: " + got.status().ToString());
      if (*got != epoch.register_ids[i]) {
        return Fail("engine assigned query id " + std::to_string(*got) +
                    ", stream predicted " +
                    std::to_string(epoch.register_ids[i]));
      }
    }
    if (!epoch.batch.empty()) {
      SpanScope s(spans_, SpanKind::kIngest, epoch.index);
      if (w_.mode == sim::IngestMode::kBatch) {
        ++calls_attempted_;
        const auto got = engine_->IngestBatch(std::move(epoch.batch));
        if (!got.ok()) return Fail("ingest: " + got.status().ToString());
      } else {
        for (Document& doc : epoch.batch) {
          ++calls_attempted_;
          const auto got = engine_->Ingest(std::move(doc));
          if (!got.ok()) return Fail("ingest: " + got.status().ToString());
        }
      }
    }
    if (epoch.has_advance) {
      SpanScope s(spans_, SpanKind::kAdvance, epoch.index);
      ++calls_attempted_;
      const Status st = engine_->AdvanceTime(epoch.advance_to);
      if (!st.ok()) return Fail("advance: " + st.ToString());
    }
    ++applied_epochs_;
    if (w_.durable && applied_epochs_ % kCheckpointEveryEpochs == 0) {
      return Checkpoint();
    }
    return true;
  }

  /// Snapshots the engine (the sharded container) and truncates the log
  /// the snapshot supersedes.
  bool Checkpoint() {
    SpanScope s(spans_, SpanKind::kCheckpoint, current_epoch_);
    ++calls_attempted_;
    snapshot_.clear();
    const Nanos t0 = NowNs();
    const Status st = engine_->sharded()->Checkpoint(&snapshot_);
    checkpoint_ms_.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!st.ok()) return Fail("checkpoint: " + st.ToString());
    log_.Clear();
    return true;
  }

  /// The engine's counters since the last ResetStats(), then resets them.
  Work TakeWork() {
    Work work;
    work.stats = engine_->stats();
    work.notifications = notifications_;
    if (const exec::ShardedServer* sharded = engine_->sharded()) {
      work.rebalance_moves = sharded->rebalance_stats().queries_migrated;
    }
    engine_->ResetStats();
    notifications_ = 0;
    return work;
  }

  /// Sends `epochs` epochs back to back, each as soon as the previous one
  /// returned, timing every apply. Epochs are generated a chunk of
  /// kChunkDocs documents ahead; the instructions retired while a chunk is
  /// applied are counted.
  bool RunClosed(std::size_t epochs, ClosedLoop* out) {
    std::vector<sim::SimEpoch> chunk;
    for (std::size_t done = 0; done < epochs; done += chunk.size()) {
      const Nanos g0 = NowNs();
      chunk.clear();
      for (std::size_t docs = 0; done + chunk.size() < epochs && docs < kChunkDocs;
           docs += chunk.back().batch.size()) {
        spans_.Begin(SpanKind::kNextEpoch, applied_epochs_ + chunk.size());
        chunk.push_back(NextEpoch());
        spans_.End();
      }
      out->gen_ns += NowNs() - g0;
      const double i0 = instructions_.Read();
      for (sim::SimEpoch& epoch : chunk) {
        const std::size_t docs = epoch.batch.size();
        const Nanos t0 = NowNs();
        if (!Apply(std::move(epoch))) return false;
        out->epoch_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        out->epoch_docs.push_back(docs);
        out->docs += docs;
      }
      out->instructions += instructions_.Read() - i0;
    }
    return true;
  }

  /// Sleeps, then spins, until `due`; returns at once when already late.
  static void WaitUntil(Nanos due) {
    for (Nanos now = NowNs(); now < due; now = NowNs()) {
      if (due - now > 200'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100'000));
      }
    }
  }

  /// Applies every epoch whose newest document arrives within `seconds`
  /// of virtual time, each at the wall time its newest document is due
  /// (virtual time = wall time), never waiting on the engine. Latencies
  /// are measured from the due time.
  bool RunOpen(double seconds, OpenLoop* out) {
    sim::SimEpoch epoch = NextEpoch();
    const Timestamp first = epoch.batch.back().arrival_time;
    const Timestamp last = first + static_cast<Timestamp>(seconds * 1e6);
    const Nanos start = NowNs() + 1'000'000;
    std::vector<std::pair<Nanos, Nanos>> due_dispatch;
    std::vector<std::size_t> docs;
    notify_ms_ = &out->notify_ms;
    while (epoch.batch.back().arrival_time <= last) {
      const Nanos due =
          start + static_cast<Nanos>(epoch.batch.back().arrival_time - first) * 1'000;
      WaitUntil(due);
      const Nanos dispatch = NowNs();
      due_ns_ = due;
      recording_notify_ = true;
      due_dispatch.emplace_back(due, dispatch);
      docs.push_back(epoch.batch.size());
      out->lag_ms.push_back(static_cast<double>(dispatch - due) / 1e6);
      const bool applied = Apply(std::move(epoch));
      recording_notify_ = false;
      if (!applied) return false;
      epoch = NextEpoch();
    }
    notify_ms_ = nullptr;
    pending_ = std::move(epoch);  // past this slice's schedule: goes next
    out->epochs += docs.size();
    for (std::size_t i = 0; i < docs.size(); ++i) {
      out->docs += docs[i];
      // Documents due earlier but still waiting when the last one fell due.
      if (due_dispatch[i].second > due_dispatch.back().first &&
          i + 1 < docs.size()) {
        out->backlog_end_docs += docs[i];
      }
    }
    return true;
  }

  /// The stream's next epoch: one a slice left over, else a fresh one.
  sim::SimEpoch NextEpoch() {
    if (pending_) {
      sim::SimEpoch epoch = *std::move(pending_);
      pending_.reset();
      return epoch;
    }
    return *gen_->NextEpoch();
  }

  /// Reads the engine's EpochTrace after the traced closed loop: phase and
  /// sub-span self time per epoch, and per-epoch critical path, barrier
  /// wait and imbalance from the raw ring rows.
  void ReadEngineTrace() {
    const obs::EpochTrace* trace = engine_->trace();
    if (trace == nullptr) return;
    const double epochs = static_cast<double>(traced_.epoch_us.size());
    const auto phase_ms = [&](obs::Phase phase) {
      Nanos total = 0;
      for (std::size_t s = 0; s < trace->shards(); ++s) {
        total += trace->cumulative_phase_nanos(s, phase);
      }
      return Ratio(static_cast<double>(total) / 1e6, epochs);
    };
    const auto sub_ms = [&](obs::SubSpan span) {
      Nanos total = 0;
      for (std::size_t s = 0; s < trace->shards(); ++s) {
        total += trace->cumulative_sub_nanos(s, span);
      }
      return Ratio(static_cast<double>(total) / 1e6, epochs);
    };
    et_.expire_ms = phase_ms(obs::Phase::kExpire);
    et_.arrive_ms = phase_ms(obs::Phase::kArrive);
    et_.notify_flush_us = phase_ms(obs::Phase::kNotifyFlush) * 1e3;
    et_.probe_ms = sub_ms(obs::SubSpan::kProbe);
    et_.rollup_ms = sub_ms(obs::SubSpan::kRollUp);
    et_.refill_ms = sub_ms(obs::SubSpan::kRefill);
    if (w_.shards == 0) return;  // exec is absent on sequential workloads
    double barrier = 0.0, imbalance = 0.0;
    for (std::size_t i = 0; i < trace->size(); ++i) {
      const obs::EpochTrace::SampleView row = trace->Sample(i);
      double max_busy = 0.0, sum_busy = 0.0;
      for (std::size_t s = 0; s < trace->shards(); ++s) {
        const auto busy = static_cast<double>(row.Phase(s, obs::Phase::kExpire) +
                                              row.Phase(s, obs::Phase::kArrive));
        max_busy = std::max(max_busy, busy);
        sum_busy += busy;
        barrier += static_cast<double>(row.Phase(s, obs::Phase::kBarrierWait));
      }
      et_.critical_ms.push_back(max_busy / 1e6);
      imbalance += Ratio(max_busy, sum_busy / static_cast<double>(trace->shards()));
    }
    const auto rows = static_cast<double>(trace->size());
    et_.barrier_wait_ms = Ratio(barrier / 1e6, rows);
    et_.imbalance_mean = Ratio(imbalance, rows);
  }

  /// The untimed correctness gate. Replays the stream from the seed to
  /// rebuild the final window and live query set independently of the
  /// engine, loads them into an OracleServer and runs the differential
  /// checker (results, invariants, pruning metadata). A durable workload
  /// must also recover: its last checkpoint plus the log tail, restored
  /// into a fresh engine, must give equal results.
  Status Gate() {
    sim::EventStreamGenerator replay(w_.spec);
    sim::StreamFingerprint fingerprint;
    std::map<QueryId, Query> live;
    std::deque<Document> recent;
    const WindowSpec& window = w_.spec.window;
    const bool time_based = window.kind == WindowSpec::Kind::kTimeBased;
    for (std::uint64_t i = 0; i < applied_epochs_; ++i) {
      std::optional<sim::SimEpoch> epoch = replay.NextEpoch();
      fingerprint.Absorb(*epoch);
      for (const QueryId id : epoch->unregister) live.erase(id);
      for (std::size_t q = 0; q < epoch->register_ids.size(); ++q) {
        live.insert_or_assign(epoch->register_ids[q],
                              std::move(epoch->register_queries[q]));
      }
      for (Document& doc : epoch->batch) recent.push_back(std::move(doc));
      // Keep a superset of the window; the oracle's window trims it.
      while (time_based ? !recent.empty() && recent.front().arrival_time <
                                                 replay.now() - 2 * window.duration
                        : recent.size() > 2 * window.count) {
        recent.pop_front();
      }
    }
    fingerprint_ = fingerprint.digest();

    std::unique_ptr<sim::SimEngine> oracle =
        sim::MakeSequentialEngine(sim::SequentialStrategy::kOracle, window);
    ITA_ASSIGN_OR_RETURN(
        std::vector<DocId> ids,
        oracle->IngestBatch(std::vector<Document>(recent.begin(), recent.end())));
    (void)ids;
    ITA_RETURN_NOT_OK(oracle->AdvanceTime(replay.now()));
    std::vector<sim::LiveQuery> live_queries;
    for (const auto& [id, query] : live) {
      ITA_RETURN_NOT_OK(oracle->sequential()->RegisterQueryWithId(id, query));
      live_queries.push_back({id, &query});
    }
    if (engine_->query_count() != live.size()) {
      return Status::Internal("engine holds " +
                              std::to_string(engine_->query_count()) +
                              " queries, the stream left " +
                              std::to_string(live.size()) + " live");
    }
    sim::DifferentialChecker checker(sim::CheckerOptions{}, oracle.get());
    ITA_RETURN_NOT_OK(checker.CheckEpoch({engine_.get()}, live_queries,
                                         applied_epochs_ - 1, /*force=*/true));
    if (!w_.durable) return Status::OK();

    std::unique_ptr<sim::SimEngine> restored = MakeEngine(w_);
    const Nanos t0 = NowNs();
    ITA_RETURN_NOT_OK(restored->sharded()->Restore(snapshot_));
    ITA_ASSIGN_OR_RETURN(
        std::vector<sim::SimEpoch> tail,
        persist::ParseEpochLog(log_.bytes(), persist::TornTailPolicy::kFail));
    for (sim::SimEpoch& epoch : tail) {
      ITA_ASSIGN_OR_RETURN(std::vector<DocId> replayed,
                           sim::ApplyEpoch(*restored, std::move(epoch)));
      (void)replayed;
    }
    recover_ms_ = static_cast<double>(NowNs() - t0) / 1e6;
    for (const auto& [id, query] : live) {
      ITA_ASSIGN_OR_RETURN(std::vector<ResultEntry> got, restored->Result(id));
      ITA_ASSIGN_OR_RETURN(std::vector<ResultEntry> want, engine_->Result(id));
      if (!(got == want)) {
        return Status::Internal("recovered engine diverges on query " +
                                std::to_string(id));
      }
    }
    return Status::OK();
  }

  /// The paper's comparator on the same stream: NaiveServer after the same
  /// fill and install, `docs` documents per event.
  Status NaiveReference(std::size_t docs) {
    sim::EventStreamGenerator gen(w_.spec);
    std::unique_ptr<sim::SimEngine> naive =
        sim::MakeSequentialEngine(sim::SequentialStrategy::kNaive, w_.spec.window);
    bool installed = false;
    while (!installed) {
      std::optional<sim::SimEpoch> epoch = gen.NextEpoch();
      installed = !epoch->register_queries.empty();
      ITA_ASSIGN_OR_RETURN(std::vector<DocId> ids,
                           sim::ApplyEpoch(*naive, *std::move(epoch), w_.mode));
      (void)ids;
    }
    std::size_t done = 0;
    Nanos busy = 0;
    while (done < docs) {
      std::optional<sim::SimEpoch> epoch = gen.NextEpoch();
      done += epoch->batch.size();
      const Nanos t0 = NowNs();
      ITA_ASSIGN_OR_RETURN(std::vector<DocId> ids,
                           sim::ApplyEpoch(*naive, *std::move(epoch), w_.mode));
      busy += NowNs() - t0;
      (void)ids;
    }
    naive_docs_per_s_ = Ratio(static_cast<double>(done),
                              static_cast<double>(busy) / 1e9);
    return Status::OK();
  }

  /// The latency percentile `p` of `samples`, best segment.
  static Metric Latency(std::string name, std::string unit,
                        const Samples& samples, double p) {
    return SegmentedMetric(std::move(name), std::move(unit), false, samples.size(),
                           SegmentPercentiles(samples, p));
  }

  std::vector<Metric> EndToEndMetrics() const {
    return {
        {"setup_s", Median(setup_s_), "s", setup_s_.size(), setup_s_},
        {"instructions_per_doc", closed_.InstructionsPerDoc(), "instr/doc", 0},
        {"rss_mb", rss_mb_, "MB", 0},
    };
  }

  std::vector<Metric> LayerMetrics() const {
    const ClosedLoop& t = traced_;
    const ServerStats& st = traced_work_.stats;
    const auto docs = static_cast<double>(t.docs);
    const auto per_doc = [docs](double v) { return Ratio(v, docs); };
    const auto self_us_per_doc = [&](SpanKind kind) {
      return per_doc(static_cast<double>(spans_.totals(kind).self_ns) / 1e3);
    };
    const auto best = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    };
    const double untraced_dps = best(closed_.SegmentRates());
    const double epoch_us_total = [&] {
      double sum = 0.0;
      for (const double us : t.epoch_us) sum += us;
      return sum;
    }();
    const double gen_us = static_cast<double>(t.gen_ns) / 1e3;
    const auto mb = [](std::uint64_t bytes) {
      return static_cast<double>(bytes) / (1024.0 * 1024.0);
    };
    const std::uint64_t calls = std::max<std::uint64_t>(calls_attempted_, 1);
    return {
        SegmentedMetric("docs_per_s", "docs/s", true, closed_.epoch_us.size(),
                        closed_.SegmentRates()),
        Latency("epoch_p50_us", "us", closed_.epoch_us, 0.50),
        Latency("epoch_p99_us", "us", closed_.epoch_us, 0.99),
        Latency("notify_p50_ms", "ms", open_.notify_ms, 0.50),
        Latency("notify_p99_ms", "ms", open_.notify_ms, 0.99),
        Latency("register_p50_us", "us", register_us_, 0.50),
        Latency("register_p99_us", "us", register_us_, 0.99),
        Latency("lag_p99_ms", "ms", open_.lag_ms, 0.99),
        {"sim.next_epoch_us",
         Ratio(static_cast<double>(spans_.totals(SpanKind::kNextEpoch).total_ns) / 1e3,
               static_cast<double>(t.epoch_us.size())),
         "us", t.epoch_us.size()},
        {"sim.gen_share_pct", Ratio(gen_us, gen_us + epoch_us_total) * 100.0, "%", 0},
        {"sim.backlog_end_docs", static_cast<double>(open_.backlog_end_docs), "docs", 0},
        {"core.ingest_us_per_doc", self_us_per_doc(SpanKind::kIngest), "us", 0},
        {"index.postings_in_per_doc",
         per_doc(static_cast<double>(st.index_entries_inserted)), "count", 0},
        {"index.postings_out_per_doc",
         per_doc(static_cast<double>(st.index_entries_erased)), "count", 0},
        {"index.list_reads_per_doc",
         per_doc(static_cast<double>(st.list_entries_read)), "count", 0},
        {"index.postings_mb", mb(st.postings_bytes), "MB", 0},
        {"stream.arena_mb", mb(st.document_bytes), "MB", 0},
        {"core.expire_ms", et_.expire_ms, "ms", 0},
        {"core.arrive_ms", et_.arrive_ms, "ms", 0},
        {"core.probe_ms", et_.probe_ms, "ms", 0},
        {"core.probe_steps_per_doc",
         per_doc(static_cast<double>(st.threshold_probe_steps)), "count", 0},
        {"core.queries_probed_per_doc",
         per_doc(static_cast<double>(st.queries_probed)), "count", 0},
        {"core.rollup_ms", et_.rollup_ms, "ms", 0},
        {"core.refill_ms", et_.refill_ms, "ms", 0},
        {"core.scores_per_doc", per_doc(static_cast<double>(st.scores_computed)),
         "count", 0},
        {"core.rollup_steps_per_doc", per_doc(static_cast<double>(st.rollup_steps)),
         "count", 0},
        {"core.refills_per_doc", per_doc(static_cast<double>(st.refills)), "count", 0},
        {"core.score_yield",
         1.0 - Ratio(static_cast<double>(st.rollup_evictions),
                     static_cast<double>(st.scores_computed)),
         "fraction", 0},
        {"core.tier_migrations",
         static_cast<double>(st.tier_promotions + st.tier_demotions), "count", 0},
        {"core.catalog_mb", mb(st.catalog_slab_bytes), "MB", 0},
        {"core.threshold_entries", static_cast<double>(st.threshold_entries), "count", 0},
        {"core.query_slots", static_cast<double>(st.query_state_slots), "count", 0},
        {"core.unregister_us_p99", Percentile(unregister_us_, 0.99), "us",
         unregister_us_.size()},
        {"core.notify_flush_us", et_.notify_flush_us, "us", 0},
        {"core.notifications_per_doc",
         per_doc(static_cast<double>(traced_work_.notifications)),
         "count", 0},
        {"exec.critical_p50_ms", Percentile(et_.critical_ms, 0.50), "ms",
         et_.critical_ms.size()},
        {"exec.critical_p99_ms", Percentile(et_.critical_ms, 0.99), "ms",
         et_.critical_ms.size()},
        {"exec.barrier_wait_ms", et_.barrier_wait_ms, "ms", 0},
        {"exec.imbalance_mean", et_.imbalance_mean, "ratio", 0},
        {"exec.rebalance_moves", static_cast<double>(traced_work_.rebalance_moves),
         "count", 0},
        {"persist.wal_append_us_p99", Percentile(wal_append_us_, 0.99), "us",
         wal_append_us_.size()},
        {"persist.wal_bytes_per_epoch",
         Ratio(static_cast<double>(wal_bytes_),
               static_cast<double>(wal_append_us_.size())),
         "bytes", 0},
        {"persist.checkpoint_ms", Median(checkpoint_ms_), "ms", checkpoint_ms_.size()},
        {"persist.snapshot_mb", mb(snapshot_.size()), "MB", 0},
        {"persist.recover_ms", recover_ms_, "ms", 0},
        {"obs.trace_overhead_pct",
         (Ratio(t.InstructionsPerDoc(), closed_.InstructionsPerDoc()) - 1.0) * 100.0,
         "%", 0},
        {"ref.naive_docs_per_s", naive_docs_per_s_, "docs/s", 0},
        {"ref.ita_over_naive", Ratio(untraced_dps, naive_docs_per_s_),
         "ratio", 0},
        {"error_rate",
         static_cast<double>(calls_failed_) / static_cast<double>(calls), "fraction",
         0},
    };
  }

  /// The exact work of the measured segments (and open-loop slices): the
  /// same on every run of one commit with one seed, --seconds and --trace.
  std::vector<std::pair<std::string, std::uint64_t>> Counters() const {
    const ServerStats& s = measured_.stats;
    return {
        {"closed_epochs", closed_.epoch_us.size()},
        {"closed_docs", closed_.docs},
        {"open_epochs", open_.epochs},
        {"open_docs", open_.docs},
        {"notifications", measured_.notifications},
        {"documents_ingested", s.documents_ingested},
        {"documents_expired", s.documents_expired},
        {"index_entries_inserted", s.index_entries_inserted},
        {"index_entries_erased", s.index_entries_erased},
        {"scores_computed", s.scores_computed},
        {"queries_probed", s.queries_probed},
        {"result_insertions", s.result_insertions},
        {"result_removals", s.result_removals},
        {"threshold_probe_steps", s.threshold_probe_steps},
        {"list_entries_read", s.list_entries_read},
        {"rollup_steps", s.rollup_steps},
        {"rollup_evictions", s.rollup_evictions},
        {"refills", s.refills},
        {"tier_promotions", s.tier_promotions},
        {"tier_demotions", s.tier_demotions},
        {"rebalance_moves", measured_.rebalance_moves},
    };
  }

  /// Prints every metric as "workload metric value unit", then the JSON
  /// summary as the last line; with --out also writes the full record.
  void Report() const {
    const std::vector<Metric> metrics =
        opt_.trace ? LayerMetrics() : EndToEndMetrics();
    const std::string& name = w_.spec.name;
    for (const Metric& m : metrics) {
      std::cout << name << ' ' << m.name << ' ' << JsonNumber(m.value) << ' '
                << m.unit;
      if (m.samples > 0) std::cout << "  # n=" << m.samples;
      std::cout << '\n';
    }
    const auto metrics_json = [&metrics](bool with_samples) {
      std::string out = "{";
      for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        out += (i == 0 ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit);
        if (with_samples) {
          out += ", \"samples\": " + std::to_string(m.samples) + ", \"segments\": [";
          for (std::size_t k = 0; k < m.segments.size(); ++k) {
            out += (k == 0 ? "" : ", ") + JsonNumber(m.segments[k]);
          }
          out += "]";
        }
        out += "}";
      }
      return out + "}";
    };
    const std::string head = "\"correct\": " + std::string(correct_ ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(calls_attempted_) +
                             ", \"failed\": " + std::to_string(calls_failed_);

    if (!opt_.out_dir.empty()) {
      std::filesystem::create_directories(opt_.out_dir);
      const std::string stem = opt_.out_dir + "/" + name + ".seed" +
                               std::to_string(opt_.seed) + ".trace" +
                               (opt_.trace ? "1" : "0");
      std::ofstream file(stem + ".json");
      std::ostringstream fp;
      fp << std::hex << fingerprint_;
      file << "{\"workload\": " << JsonString(name) << ", \"seed\": " << opt_.seed
           << ", \"seconds\": " << JsonNumber(opt_.seconds)
           << ", \"trace\": " << (opt_.trace ? 1 : 0)
           << ", \"valid\": " << (opt_.smoke ? "false" : "true") << ", " << head
           << ", \"error\": " << JsonString(error_)
           << ", \"fingerprint\": \"" << fp.str() << "\""
           << ", \"metrics\": " << metrics_json(true) << ", \"counters\": {";
      const auto counters = Counters();
      for (std::size_t i = 0; i < counters.size(); ++i) {
        file << (i == 0 ? "" : ", ") << JsonString(counters[i].first) << ": "
             << counters[i].second;
      }
      file << "}}\n";
      if (opt_.trace) spans_.WriteJson(stem + ".spans.json");
    }
    std::cout << "{" << head << ", \"metrics\": " << metrics_json(false) << "}"
              << std::endl;
  }

  Options opt_;
  Workload w_;
  const InstructionCounter& instructions_;
  std::unique_ptr<sim::EventStreamGenerator> gen_;
  std::unique_ptr<sim::SimEngine> engine_;
  SpanTrace spans_;
  bool ok_ = true;
  std::string error_;
  std::uint64_t calls_attempted_ = 0;
  std::uint64_t calls_failed_ = 0;
  std::uint64_t current_epoch_ = 0;
  std::uint64_t applied_epochs_ = 0;

  std::uint64_t notifications_ = 0;
  bool recording_notify_ = false;
  Nanos due_ns_ = 0;
  Samples* notify_ms_ = nullptr;

  persist::EpochLog log_;
  std::string snapshot_;
  std::uint64_t wal_bytes_ = 0;

  std::vector<double> setup_s_;  ///< each set-up's wall time
  Samples register_us_;
  Samples unregister_us_;
  Samples wal_append_us_;
  std::vector<double> checkpoint_ms_;
  std::optional<sim::SimEpoch> pending_;
  ClosedLoop closed_;
  OpenLoop open_;
  Work measured_;
  ClosedLoop traced_;
  Work traced_work_;
  EngineTrace et_;
  double rss_mb_ = 0.0;
  double recover_ms_ = 0.0;
  double naive_docs_per_s_ = 0.0;
  std::uint64_t fingerprint_ = 0;
  bool correct_ = false;
};

int Usage(const std::string& why) {
  std::cerr << "ita_record: " << why
            << "\nusage: ita_record --workload <name> --seed <n> "
               "[--seconds <s>] [--trace 0|1] [--out <dir>] [--smoke]\n"
               "workloads:";
  for (const std::string& name : WorkloadNames()) std::cerr << ' ' << name;
  std::cerr << "\n";
  return 2;
}

int Main(int argc, char** argv) {
  const InstructionCounter instructions;  // before any thread exists
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    std::string value;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage("missing value for " + arg);
    }
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (arg == "--out") {
        opt.out_dir = value;
      } else {
        return Usage("unknown flag " + arg);
      }
    } catch (const std::exception&) {
      return Usage("bad value '" + value + "' for " + arg);
    }
  }
  std::optional<Workload> workload = MakeWorkload(opt.workload, opt.seed);
  if (!workload) return Usage("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0.0)) return Usage("--seconds must be positive");

  if (!opt.smoke) {
    std::vector<std::string> why = GuardViolations();
    if (!instructions.error().empty()) {
      why.push_back("no instruction counter (perf_event_open: " +
                    instructions.error() + ")");
    } else if (instructions.Read() <= 0.0) {
      why.push_back("the instruction counter counts nothing");
    }
    if (!why.empty()) {
      for (const std::string& reason : why) {
        std::cerr << "ita_record: refusing to record: " << reason << "\n";
      }
      std::cerr << "ita_record: --smoke runs anyway and marks the record "
                   "\"valid\": false\n";
      return 2;
    }
  }
  return Recorder(std::move(opt), *std::move(workload), instructions).Run();
}

}  // namespace
}  // namespace ita::record

int main(int argc, char** argv) { return ita::record::Main(argc, argv); }
