// Per-operator runtime profiling.
//
// The paper's argument is quantitative -- column comparisons versus code
// comparisons, spill volume, merge bypass rates -- so a single query-global
// QueryCounters blob is not enough to see *where* a plan spent its work or
// where the cost model's estimates diverged from reality. A QueryProfile
// attributes rows, wall time, and a full QueryCounters slice to every
// physical plan node:
//
//  * OperatorStats is the per-node accumulator. One *slice* is allocated per
//    operator instance per execution thread (worker pipelines, split
//    partition streams, the consumer-side merge), so no slice is ever
//    written concurrently; FinishRun aggregates slices into per-node totals
//    and folds their counters into the session counters, mirroring
//    PhysicalPlan::RollUpWorkerCounters.
//  * Timing uses a raw tick counter (rdtsc on x86-64) converted to
//    nanoseconds once per process, because a steady_clock read per NextBatch
//    would already cost several percent of the hot batched pipeline. Even
//    rdtsc is not free in context (it stalls on in-flight loads), so the
//    wrapper times a deterministic sample of NextBatch calls -- all of the
//    first kTimeWarmupCalls, then every kTimeSampleEvery-th. The per-node
//    time is the warmup calls' exact time plus the later sample's time
//    scaled to the number of later calls, so a first pull that does its
//    whole input's work is counted once, not once per sampling factor.
//    Queries short enough to matter for correctness tests stay inside the
//    warmup and are timed exactly; long queries get a sampled estimate and
//    the hot batched path stays within the <=2% instrumentation budget
//    (bench/bench_profile_overhead.cc prices exactly this). FinishRun caps
//    each slice's estimate at the span between its first Open and last
//    Close, so one preempted sample cannot outgrow the time the operator
//    was live.
//  * Render() produces the EXPLAIN ANALYZE text -- each plan line carries
//    {rows=est/actual cost=est time=..ms cmp=col/code spill=..} and the
//    worst Q-error nodes are flagged. ToJson() produces the machine-readable
//    profile (ovcsql --profile=FILE). ScanFeedback() reports per-scan
//    estimate-versus-actual cardinalities for TableStats feedback.
//
// Q-error is the standard cardinality-estimation metric:
//   q = max(actual / estimate, estimate / actual), both clamped to >= 1.
// q == 1 is a perfect estimate; q >= 2 is flagged in EXPLAIN ANALYZE.

#ifndef OVC_COMMON_PROFILE_H_
#define OVC_COMMON_PROFILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace ovc {

/// Raw monotonic tick count (rdtsc on x86-64, the generic counter register
/// on aarch64, steady_clock elsewhere). Inline so the hot wrapper pays one
/// instruction, not a call; still sampled there because even rdtsc stalls
/// on in-flight work.
inline uint64_t ProfileTicks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#elif defined(__aarch64__)
  uint64_t ticks;
  asm volatile("mrs %0, cntvct_el0" : "=r"(ticks));
  return ticks;
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Converts a tick delta to nanoseconds. Calibrates ticks-per-nanosecond
/// against steady_clock once per process (lazily, on first use).
uint64_t TicksToNs(uint64_t ticks);

/// Timing-sample policy for NextBatch: the first kTimeWarmupCalls calls per
/// wrapper are always timed (short queries -- and tests -- get exact
/// times), after that every kTimeSampleEvery-th. Powers of two; the wrapper
/// masks with kTimeSampleEvery - 1.
inline constexpr uint64_t kTimeWarmupCalls = 32;
inline constexpr uint64_t kTimeSampleEvery = 16;

/// Per-operator, per-execution-thread stats accumulator. Exactly one thread
/// writes a given instance at a time (the thread driving that operator), so
/// plain uint64_t fields suffice; cross-thread aggregation happens in
/// QueryProfile::FinishRun after every producer thread has joined.
struct OperatorStats {
  /// Rows this operator emitted.
  uint64_t rows_out = 0;
  /// Non-empty batches emitted.
  uint64_t batches_out = 0;
  /// Inclusive wall ticks (the operator plus everything below it on the
  /// same thread) inside Open / Close, always timed.
  uint64_t open_ticks = 0;
  uint64_t close_ticks = 0;
  /// Tick counter when the first Open started and when the last Close
  /// ended (0 until then): the span the operator was live on its thread.
  /// Per slice only; Merge leaves a node total's span 0.
  uint64_t open_start_ticks = 0;
  uint64_t close_end_ticks = 0;
  /// NextBatch calls: all of them, the warmup ones (each timed, exactly,
  /// into warmup_ticks), and the later ones timed as a sample into
  /// sample_ticks (every kTimeSampleEvery-th; see above).
  uint64_t next_calls = 0;
  uint64_t warmup_calls = 0;
  uint64_t warmup_ticks = 0;
  uint64_t sampled_calls = 0;
  uint64_t sample_ticks = 0;
  /// Work counters attributed to this operator (handed to its constructor
  /// in place of the session/worker counters when profiling is on).
  QueryCounters counters;

  void Merge(const OperatorStats& other) {
    rows_out += other.rows_out;
    batches_out += other.batches_out;
    open_ticks += other.open_ticks;
    close_ticks += other.close_ticks;
    next_calls += other.next_calls;
    warmup_calls += other.warmup_calls;
    warmup_ticks += other.warmup_ticks;
    sampled_calls += other.sampled_calls;
    sample_ticks += other.sample_ticks;
    counters.Merge(other.counters);
  }

  void Reset() { *this = OperatorStats(); }

  /// NextBatch ticks: the warmup calls' exact ticks plus the later
  /// sample scaled to all later calls. Exact inside the warmup window.
  uint64_t scaled_next_ticks() const {
    if (sampled_calls == 0) return warmup_ticks;
    const double scale = static_cast<double>(next_calls - warmup_calls) /
                         static_cast<double>(sampled_calls);
    return warmup_ticks +
           static_cast<uint64_t>(static_cast<double>(sample_ticks) * scale);
  }

  uint64_t total_ticks() const {
    return open_ticks + scaled_next_ticks() + close_ticks;
  }

  /// Caps total_ticks() at the live span: one sampled call the host
  /// preempted stands for kTimeSampleEvery calls and can push the estimate
  /// past the time the operator was open at all. The capped NextBatch time
  /// becomes exact (the span minus the exactly timed Open and Close).
  /// No-op for a slice that never closed or already fits.
  void ClampToLiveSpan() {
    if (close_end_ticks <= open_start_ticks) return;
    const uint64_t span = close_end_ticks - open_start_ticks;
    if (total_ticks() <= span) return;
    const uint64_t exact = open_ticks + close_ticks;
    warmup_calls = next_calls;
    warmup_ticks = span > exact ? span - exact : 0;
    sampled_calls = 0;
    sample_ticks = 0;
  }
};

/// The per-query profile: one Node per physical plan line, each holding the
/// planner's estimate and (after a run) the aggregated actuals. Owned by
/// PhysicalPlan when PlannerOptions::profile is set; stable-addressed slices
/// let operators write stats without ever resizing under a running query.
class QueryProfile {
 public:
  struct Node {
    /// The explain-line prefix, e.g. "merge-join(inner) [sorted+ovc(2)]".
    std::string label;
    /// Table name for scan nodes (the ScanFeedback target); empty otherwise.
    std::string table;
    /// Planner estimate for this node (output rows, cumulative cost).
    double est_rows = 0;
    double est_cost = 0;
    /// Child node indices, in explain order.
    std::vector<int> children;
    /// Per-thread stat slices (stable addresses; written during a run).
    std::vector<std::unique_ptr<OperatorStats>> slices;
    /// Aggregate of all slices for the most recent finished run.
    OperatorStats total;
    /// True once FinishRun aggregated at least one slice into `total`.
    bool has_actuals = false;
  };

  /// Adds a node over the already added `children`; returns its index.
  int AddNode(std::string label, double est_rows, double est_cost,
              std::vector<int> children, std::string table = std::string());
  /// Sets `node`'s row estimate to `rows`.
  void SetEstRows(int node, double rows) { nodes_[node].est_rows = rows; }
  /// Allocates one per-thread stats slice under `node`.
  OperatorStats* AddSlice(int node);
  void SetRoot(int node) { root_ = node; }
  int root() const { return root_; }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Ends one run: caps every slice at its live span (ClampToLiveSpan),
  /// aggregates every node's slices into its `total`, folds
  /// all slice counters into `into` (skipped when null) and resets the
  /// slices so repeated runs never double-count -- the profile analogue of
  /// PhysicalPlan::RollUpWorkerCounters. Returns the rolled-up counter
  /// total (what this run added to `into`) for consistency checks.
  QueryCounters FinishRun(QueryCounters* into, uint64_t wall_ns);

  /// Sum of per-node counter totals over the tree reachable from the root
  /// (each node once). In a consistent profile this equals what the last
  /// FinishRun returned.
  QueryCounters TreeCounterTotals() const;

  /// Actual output rows of `node` in the last run. Nodes with no slices
  /// (an elided sort is a plan line but no operator) report their only
  /// child's actuals.
  uint64_t ActualRows(int node) const;
  /// Inclusive wall nanoseconds of `node` in the last run (slice-less nodes
  /// report their child's, like ActualRows).
  uint64_t ActualNs(int node) const;
  /// Q-error of `node`: max(actual/est, est/actual), inputs clamped to 1.
  double QError(int node) const;
  /// Largest Q-error over all nodes (1 when the profile has no actuals).
  double WorstQError() const;

  uint64_t wall_ns() const { return wall_ns_; }
  uint64_t runs() const { return runs_; }

  /// EXPLAIN ANALYZE rendering: the plan tree with one line per node,
  /// `{rows=est/actual cost=est time=..ms cmp=col/code spill=..}`
  /// annotations, worst Q-error flags, and a trailing wall-time summary.
  std::string Render() const;

  /// Machine-readable profile: a JSON object with wall time and the plan
  /// tree (per node: label, estimates, actuals, counters, children).
  std::string ToJson() const;

  /// Estimate-versus-actual cardinality per scan node that read its whole
  /// table in the last run, for TableStats feedback.
  struct CardFeedback {
    std::string table;
    double est_rows = 0;
    double actual_rows = 0;
    double q_error = 1;
  };
  std::vector<CardFeedback> ScanFeedback() const;

 private:
  void RenderNode(int node, int depth, double worst_q, std::string* out) const;
  void JsonNode(int node, std::string* out) const;

  std::vector<Node> nodes_;
  int root_ = -1;
  uint64_t wall_ns_ = 0;
  uint64_t runs_ = 0;
};

}  // namespace ovc

#endif  // OVC_COMMON_PROFILE_H_
