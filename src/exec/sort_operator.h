// Sort as a pipeline operator: the blocking wrapper around
// sort/external_sort.h.

#ifndef OVC_EXEC_SORT_OPERATOR_H_
#define OVC_EXEC_SORT_OPERATOR_H_

#include <memory>

#include "common/counters.h"
#include "common/temp_file.h"
#include "exec/operator.h"
#include "sort/external_sort.h"

namespace ovc {

/// Sorts its input on the schema's key prefix, producing a sorted stream
/// with offset-value codes (subject to SortConfig's ablation switches).
class SortOperator : public Operator {
 public:
  /// `child`, `counters` (optional), and `temp` must outlive the operator.
  /// A `limit` k (0 = none) makes it produce only the first k rows, sorting
  /// only what they need (see ExternalSort).
  SortOperator(Operator* child, QueryCounters* counters, TempFileManager* temp,
               SortConfig config = SortConfig(), uint64_t limit = 0)
      : child_(child),
        counters_(counters),
        temp_(temp),
        config_(config),
        limit_(limit) {}

  void Open() override {
    failed_ = false;
    child_->Open();
    sort_ = std::make_unique<ExternalSort>(&child_->schema(), counters_, temp_,
                                           config_, nullptr, limit_);
    // Batched intake: drain the child block-wise so run generation's memory
    // buffer fills with bulk copies instead of per-row virtual pulls.
    RowBlock block(child_->schema().total_columns());
    while (child_->NextBatch(&block) > 0) {
      sort_->AddBlock(block);
    }
    // A spill failure surfaces here (ExternalSort defers intake errors to
    // Finish). Degrade instead of aborting: record the first error in the
    // temp manager's slot and produce no rows -- the executor reports it.
    const Status st = sort_->Finish();
    if (!st.ok()) {
      failed_ = true;
      temp_->RecordError(st);
    }
  }

  uint32_t NextBatch(RowBlock* out) override {
    return failed_ ? 0 : sort_->NextBlock(out);
  }

  void Close() override {
    if (sort_ != nullptr) {
      last_spilled_runs_ = sort_->spilled_runs();
    }
    sort_.reset();
    child_->Close();
  }

  const Schema& schema() const override { return child_->schema(); }
  bool sorted() const override { return true; }
  bool has_ovc() const override {
    return config_.use_ovc || config_.naive_output_codes;
  }

  /// Runs spilled by the most recent execution (survives Close()).
  uint64_t spilled_runs() const {
    return sort_ == nullptr ? last_spilled_runs_ : sort_->spilled_runs();
  }

 private:
  Operator* child_;
  QueryCounters* counters_;
  TempFileManager* temp_;
  SortConfig config_;
  uint64_t limit_;
  std::unique_ptr<ExternalSort> sort_;
  uint64_t last_spilled_runs_ = 0;
  bool failed_ = false;
};

}  // namespace ovc

#endif  // OVC_EXEC_SORT_OPERATOR_H_
