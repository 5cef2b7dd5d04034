#include "exec/in_sort_aggregate.h"

namespace ovc {

InSortAggregate::InSortAggregate(Operator* child, uint32_t group_prefix,
                                 std::vector<AggregateSpec> aggregates,
                                 QueryCounters* counters,
                                 TempFileManager* temp, SortConfig config,
                                 uint64_t limit)
    : child_(child),
      group_prefix_(group_prefix),
      aggregates_(std::move(aggregates)),
      state_schema_(InStreamAggregate::MakeOutputSchema(
          child->schema(), group_prefix, aggregates_.size())),
      merge_fns_(StateMergeFns(aggregates_)),
      counters_(counters),
      temp_(temp),
      config_(config),
      limit_(limit),
      state_row_(state_schema_.total_columns(), 0) {
  OVC_CHECK(group_prefix >= 1);
  OVC_CHECK(group_prefix <= child->schema().total_columns());
  for (const AggregateSpec& spec : aggregates_) {
    OVC_CHECK(spec.fn == AggFn::kCount ||
              spec.input_col < child->schema().total_columns());
  }
}

void InSortAggregate::Open() {
  failed_ = false;
  sort_ = std::make_unique<ExternalSort>(&state_schema_, counters_, temp_,
                                         config_, &merge_fns_, limit_);
  BlockReader input(child_);
  input.Open();
  RowRef ref;
  while (input.Next(&ref)) {
    MakeStateRow(ref.cols, group_prefix_, aggregates_, state_row_.data());
    sort_->Add(state_row_.data());
  }
  input.Close();
  // A spill failure surfaces here: record it in the temp manager's error
  // slot and produce no rows -- the executor reports it.
  const Status st = sort_->Finish();
  if (!st.ok()) {
    failed_ = true;
    temp_->RecordError(st);
  }
}

uint32_t InSortAggregate::NextBatch(RowBlock* out) {
  if (failed_ || sort_ == nullptr) {
    out->Clear();
    return 0;
  }
  return sort_->NextBlock(out);
}

void InSortAggregate::Close() { sort_.reset(); }

}  // namespace ovc
