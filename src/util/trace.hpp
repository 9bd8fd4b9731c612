// Span instrumentation for the popcount-GEMM pipeline.
//
// Compile-time gated by LDLA_TRACE (CMake option, default ON; the span
// macros below compile to nothing when it is OFF):
//
//  1. RAII spans — phase-attributed wall-time with parent/child self-time
//     accounting (a nested span's duration is subtracted from its parent's
//     phase bucket, so per-phase totals partition wall time instead of
//     double counting). When a session is active every span is also buffered
//     as a Chrome-trace/Perfetto event and written to trace_<run>.json.
//
//  2. Optional perf-counter attribution — when a session is active and
//     perf_event_open is permitted (util/perf_counters.hpp), spans read a
//     per-thread (cycles, instructions, LLC-loads, LLC-misses) group at the
//     boundaries and attribute the deltas per phase, enabling the
//     %-of-peak / bytes-per-word roofline table in the trace report.
//
// Event counters (bytes packed, kernel calls, steals, shard I/O, ...) are
// not stored here: they are metrics-registry Counters
// (metrics::pipeline(), util/metrics.hpp), independent of LDLA_TRACE.
// snapshot() reads them back into PhaseCounters so one diff carries both
// counts and phase times. Counters are exact: tests assert they equal the
// analytic values implied by the GemmPlan blocking.
//
// Concurrency contract: phase times may be written from any number of
// threads concurrently (relaxed atomics, single writer per slot).
// snapshot() may race with writers (it reads a consistent-enough relaxed
// view). session_events() / stop_session_and_write() must be called while
// instrumented work is quiesced (after the parallel drivers have joined).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace ldla::trace {

/// Pipeline phases a span can attribute time to.
enum class Phase : std::uint8_t {
  kPackA = 0,   ///< packing an A-side (mr-sliver) operand panel
  kPackB,       ///< packing a B-side (nr-sliver) operand panel
  kKernel,      ///< macro-kernel: register-tile loops over packed slivers
  kEpilogue,    ///< count -> statistic conversion (fused tile sinks)
  kMirror,      ///< lower-to-upper triangle mirroring
  kIo,          ///< file parsing / writing
  kTaskRun,     ///< thread-pool task execution
  kTaskWait,    ///< thread-pool task queue wait (enqueue -> dequeue)
  kBarrier,     ///< fork-join barrier: caller waiting for in-flight tasks
};
inline constexpr std::size_t kPhaseCount = 9;

const char* phase_name(Phase p);

/// Monotonically-increasing event counters, read from the metrics
/// registry (each field names the registry counter(s) it sums in
/// trace.cpp; tests pin them to analytic values).
struct PhaseCounters {
  std::uint64_t bytes_packed = 0;    ///< bytes written into packed slivers
  std::uint64_t slivers_packed = 0;  ///< slivers freshly packed
  std::uint64_t slivers_reused = 0;  ///< sliver views served from a persistent pack
  std::uint64_t kernel_calls = 0;    ///< micro-kernel invocations
  std::uint64_t kernel_words = 0;    ///< popcount word-triples processed
  std::uint64_t tiles_emitted = 0;   ///< fused CountTiles handed to sinks
  std::uint64_t epilogue_rows = 0;   ///< fused-epilogue stat rows converted
  std::uint64_t task_runs = 0;       ///< thread-pool tasks executed
  std::uint64_t steals = 0;          ///< deque items taken by a non-owner (pool + nest)
  std::uint64_t failed_steals = 0;   ///< steal probes that found nothing / lost the race (pool + nest)
  std::uint64_t parks = 0;           ///< worker blocks on the idle condition variable
  std::uint64_t barrier_waits = 0;   ///< fork-join caller barriers (pooled run_tasks joins)
  std::uint64_t sparse_ll_tiles = 0;       ///< list×list register-tile kernel calls
  std::uint64_t sparse_ld_tiles = 0;       ///< list×dense register-tile kernel calls
  std::uint64_t list_intersections = 0;    ///< sparse row-pair intersections computed
  std::uint64_t dense_fallback_tiles = 0;  ///< register tiles kept dense inside hybrid tiles
  std::uint64_t io_bytes_read = 0;     ///< bytes explicitly faulted/read by the shard store
  std::uint64_t prefetch_issued = 0;   ///< shard prefetches initiated ahead of need
  std::uint64_t prefetch_hits = 0;     ///< shard acquisitions served already-materialized
  std::uint64_t prefetch_stalls = 0;   ///< shard acquisitions materialized on the critical path
};

/// Per-phase perf-event totals (all zero when perf attribution was off).
struct PerfTotals {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_loads = 0;
  std::uint64_t llc_misses = 0;
};

/// Aggregate view over every thread, suitable for before/after diffing
/// around a workload: `auto d = trace::snapshot().since(before);`.
struct TraceSnapshot {
  PhaseCounters counters;
  /// Per-phase *self* nanoseconds (children subtracted; phases partition
  /// the instrumented wall time).
  std::array<std::uint64_t, kPhaseCount> phase_self_ns{};
  std::array<PerfTotals, kPhaseCount> phase_perf{};

  [[nodiscard]] TraceSnapshot since(const TraceSnapshot& earlier) const;
  [[nodiscard]] double phase_seconds(Phase p) const {
    return static_cast<double>(phase_self_ns[static_cast<std::size_t>(p)]) *
           1e-9;
  }
};

/// One buffered span (session mode), in session-relative steady-clock ns.
struct TraceEvent {
  Phase phase = Phase::kKernel;
  std::uint32_t tid = 0;  ///< per-thread slot index (stable for the process)
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Were spans compiled in (CMake -DLDLA_TRACE=ON)?
constexpr bool compiled() {
#if defined(LDLA_TRACE_ENABLED)
  return true;
#else
  return false;
#endif
}

/// Runtime gate for span *timing* (clock reads + phase self-time). Counters
/// are unaffected (metrics::set_enabled is their switch). Default: enabled.
void set_timing_enabled(bool on);
bool timing_enabled();

/// Lock-free aggregate of the registry's pipeline counters and every
/// thread's phase times. Phase times are zero when spans are compiled out.
TraceSnapshot snapshot();

/// Begin buffering span events (and, when available, per-phase perf-counter
/// attribution) for a Chrome-trace report named `run_name`. The report is
/// written by stop_session_and_write(), or automatically at process exit.
void start_session(const std::string& run_name);
bool session_active();

/// Write trace_<run>.json into $LDLA_TRACE_DIR (default ".") and end the
/// session. Returns the path, or "" when no session was active or the file
/// could not be written. Call with instrumented work quiesced.
std::string stop_session_and_write();

/// End the session discarding all buffered events (tests).
void cancel_session();

/// Copy of all buffered events so far (tests; call quiesced).
std::vector<TraceEvent> session_events();

#if defined(LDLA_TRACE_ENABLED)

namespace detail {

// Thread-pool queue-wait measurement: stamp at enqueue (0 when timing is
// off), account the wait at dequeue.
std::uint64_t queue_stamp();
void task_dequeued(std::uint64_t enqueue_ns);

}  // namespace detail

/// RAII phase span. Inert when timing is disabled or the nesting depth
/// exceeds the fixed stack. Never throws.
class Span {
 public:
  explicit Span(Phase p) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void* slot_ = nullptr;  // armed per-thread slot, null when inert
};

#endif  // LDLA_TRACE_ENABLED

}  // namespace ldla::trace

// Instrumentation macros. With LDLA_TRACE off they expand to expressions
// that evaluate nothing at runtime — zero code is emitted.
#if defined(LDLA_TRACE_ENABLED)

#define LDLA_TRACE_CONCAT_IMPL(a, b) a##b
#define LDLA_TRACE_CONCAT(a, b) LDLA_TRACE_CONCAT_IMPL(a, b)

/// Phase span over the enclosing scope; `phase` is a bare enumerator name.
#define LDLA_TRACE_SPAN(phase)                                 \
  ::ldla::trace::Span LDLA_TRACE_CONCAT(ldla_trace_span_,      \
                                        __LINE__)(::ldla::trace::Phase::phase)
/// Same, with a runtime-computed ::ldla::trace::Phase expression.
#define LDLA_TRACE_SPAN_EXPR(phase_expr) \
  ::ldla::trace::Span LDLA_TRACE_CONCAT(ldla_trace_span_, __LINE__)(phase_expr)

#define LDLA_TRACE_QUEUE_STAMP() ::ldla::trace::detail::queue_stamp()
#define LDLA_TRACE_TASK_DEQUEUED(enqueue_ns) \
  ::ldla::trace::detail::task_dequeued((enqueue_ns))

#else  // !LDLA_TRACE_ENABLED

#define LDLA_TRACE_SPAN(phase) ((void)0)
#define LDLA_TRACE_SPAN_EXPR(phase_expr) ((void)(phase_expr))
#define LDLA_TRACE_QUEUE_STAMP() (std::uint64_t{0})
#define LDLA_TRACE_TASK_DEQUEUED(enqueue_ns) ((void)(enqueue_ns))

#endif  // LDLA_TRACE_ENABLED
