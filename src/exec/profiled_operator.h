// ProfiledOperator: the thin instrumentation wrapper the profiling layer
// inserts around every operator the planner builds (PlannerOptions::profile).
//
// The wrapper forwards the full Operator contract unchanged -- schema,
// sorted()/has_ovc(), the RowBlock lifetime rule -- and meters the wrapped
// operator from the outside: inclusive wall ticks around
// Open/NextBatch/Close plus rows and batches produced. NextBatch times a
// deterministic sample of its calls (every call through the warmup window,
// then every kTimeSampleEvery-th); rows and batches are counted on every
// call. OperatorStats::scaled_next_ticks() scales the post-warmup sample
// back to the post-warmup call count, which keeps the instrumentation
// within its <=2% budget on hot batched pipelines even on machines where a
// tick read stalls the out-of-order window. Counter
// attribution needs no wrapper logic at all: when profiling, the planner
// hands each operator's constructor the QueryCounters slice of its profile
// node instead of the shared session/worker instance, so comparisons,
// hashes, and spills land on the operator that did the work.
//
// Thread-safety is by construction, not by atomics: each OperatorStats
// slice is written only by the one thread that drives its wrapped operator
// (a worker pipeline by its producer thread, a split partition stream by
// the worker pulling it, the merging exchange by the consumer), exactly the
// same ownership discipline as the per-worker QueryCounters contract.
// QueryProfile::FinishRun aggregates after every producer has joined.

#ifndef OVC_EXEC_PROFILED_OPERATOR_H_
#define OVC_EXEC_PROFILED_OPERATOR_H_

#include "common/profile.h"
#include "exec/operator.h"

namespace ovc {

class ProfiledOperator final : public Operator {
 public:
  /// Neither pointer is owned; `child` and `stats` must outlive the
  /// wrapper (PhysicalPlan owns both, and destroys wrappers before the
  /// profile).
  ProfiledOperator(Operator* child, OperatorStats* stats)
      : child_(child), stats_(stats) {}

  void Open() override {
    const uint64_t t0 = ProfileTicks();
    if (stats_->open_start_ticks == 0) stats_->open_start_ticks = t0;
    child_->Open();
    stats_->open_ticks += ProfileTicks() - t0;
  }

  uint32_t NextBatch(RowBlock* out) override {
    // The deterministic timing sample: every call while the stream is
    // short (tests and small queries get exact times), then every
    // kTimeSampleEvery-th.
    const uint64_t seq = stats_->next_calls++;
    const bool warmup = seq < kTimeWarmupCalls;
    uint32_t n;
    if (!warmup && (seq & (kTimeSampleEvery - 1)) != 0) {
      n = child_->NextBatch(out);
    } else {
      const uint64_t t0 = ProfileTicks();
      n = child_->NextBatch(out);
      const uint64_t ticks = ProfileTicks() - t0;
      if (warmup) {
        ++stats_->warmup_calls;
        stats_->warmup_ticks += ticks;
      } else {
        ++stats_->sampled_calls;
        stats_->sample_ticks += ticks;
      }
    }
    stats_->rows_out += n;
    stats_->batches_out += n > 0 ? 1 : 0;
    return n;
  }

  void Close() override {
    const uint64_t t0 = ProfileTicks();
    child_->Close();
    stats_->close_end_ticks = ProfileTicks();
    stats_->close_ticks += stats_->close_end_ticks - t0;
  }

  const Schema& schema() const override { return child_->schema(); }
  bool sorted() const override { return child_->sorted(); }
  bool has_ovc() const override { return child_->has_ovc(); }

 private:
  Operator* child_;
  OperatorStats* stats_;
};

}  // namespace ovc

#endif  // OVC_EXEC_PROFILED_OPERATOR_H_
