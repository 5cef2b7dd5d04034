#include "exec/hash_aggregate.h"

#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace ovc {

HashAggregate::HashAggregate(Operator* child, uint32_t group_prefix,
                             std::vector<AggregateSpec> aggregates,
                             uint64_t memory_groups, QueryCounters* counters,
                             TempFileManager* temp, FallbackPolicy fallback,
                             SortConfig sort_config)
    : child_(child),
      group_prefix_(group_prefix),
      aggregates_(std::move(aggregates)),
      memory_groups_(memory_groups),
      fallback_(fallback),
      sort_config_(sort_config),
      output_schema_(InStreamAggregate::MakeOutputSchema(
          child->schema(), group_prefix, aggregates_.size())),
      counters_(counters),
      temp_(temp),
      group_states_(output_schema_.total_columns()),
      output_queue_(output_schema_.total_columns()),
      merge_fns_(StateMergeFns(aggregates_)) {
  OVC_CHECK(group_prefix >= 1);
  OVC_CHECK(group_prefix <= child->schema().key_arity());
  OVC_CHECK(memory_groups >= 1);
}

bool HashAggregate::TryAccumulate(const uint64_t* row) {
  const uint64_t h = HashKeyPrefix(row, group_prefix_, counters_);
  auto range = table_.equal_range(h);
  for (auto it = range.first; it != range.second; ++it) {
    uint64_t* state = group_states_.mutable_row(it->second);
    if (KeysEqual(state, row, group_prefix_, counters_)) {
      FoldStateRow(row, group_prefix_, aggregates_, state);
      return true;
    }
  }
  if (group_states_.size() >= memory_groups_ ||
      OVC_FAILPOINT("hash_aggregate.force_overflow")) {
    return false;  // table full, group absent
  }
  MakeStateRow(row, group_prefix_, aggregates_, group_states_.AppendRow());
  table_.emplace(h, static_cast<uint32_t>(group_states_.size() - 1));
  return true;
}

void HashAggregate::FlushTableToQueue() {
  // State rows are output rows: hand the table's buffer to the queue.
  std::swap(output_queue_, group_states_);
  group_states_.Clear();
  table_.clear();
}

void HashAggregate::BeginSortMergeFallback() {
  // The group table is full: switch to the sort-based plan mid-query.
  // Every resident state row and every remaining input row feeds one
  // collapsing external sort on the group key.
  OVC_TRACE_SPAN("hash_aggregate.fallback");
  fell_back_ = true;
  if (counters_ != nullptr) ++counters_->hash_agg_fallbacks;
  OVC_METRIC_COUNTER("hash_aggregate.fallbacks",
                     "Hash aggregations that degraded to in-sort")
      .Increment();
  fb_sort_ = std::make_unique<ExternalSort>(&output_schema_, counters_, temp_,
                                            sort_config_, &merge_fns_);
  for (size_t i = 0; i < group_states_.size(); ++i) {
    fb_sort_->Add(group_states_.row(i));
  }
  group_states_.Clear();
  table_.clear();
  fb_state_row_.assign(output_schema_.total_columns(), 0);
}

void HashAggregate::AddInputRowToFallback(const uint64_t* row) {
  MakeStateRow(row, group_prefix_, aggregates_, fb_state_row_.data());
  fb_sort_->Add(fb_state_row_.data());
}

void HashAggregate::Degrade(const Status& status) {
  failed_ = true;
  if (temp_ != nullptr) temp_->RecordError(status);
}

void HashAggregate::Open() {
  output_queue_.Clear();
  queue_pos_ = 0;
  pending_partitions_.clear();
  group_states_.Clear();
  table_.clear();
  fell_back_ = false;
  failed_ = false;
  fb_sort_.reset();

  PartitionWriters parts(&child_->schema(), group_prefix_, "hagg-part",
                         counters_, temp_);
  BlockReader input(child_);
  input.Open();
  RowRef ref;
  while (input.Next(&ref)) {
    if (fell_back_) {
      AddInputRowToFallback(ref.cols);
      continue;
    }
    if (TryAccumulate(ref.cols)) continue;
    if (fallback_ == FallbackPolicy::kSortMerge) {
      BeginSortMergeFallback();
      AddInputRowToFallback(ref.cols);
      continue;
    }
    // Spill path: route the row to its hash partition (the first spilled
    // row creates the files).
    if (!parts.Append(ref.cols, /*level=*/0)) {
      input.Close();
      Degrade(parts.status());
      return;
    }
  }
  input.Close();
  if (fell_back_) {
    const Status st = fb_sort_->Finish();
    if (!st.ok()) Degrade(st);
    return;
  }
  if (QueueSpill(&parts, /*level=*/1)) FlushTableToQueue();
}

bool HashAggregate::QueueSpill(PartitionWriters* parts, uint32_t level) {
  for (uint32_t p = 0; p < parts->opened(); ++p) {
    if (!parts->Close(p)) {
      Degrade(parts->status());
      return false;
    }
    pending_partitions_.push_back(PendingPartition{parts->path(p), level});
  }
  return true;
}

bool HashAggregate::ProcessNextPartition() {
  while (!pending_partitions_.empty() && !failed_) {
    const PendingPartition pending = pending_partitions_.back();
    pending_partitions_.pop_back();
    // Runaway-recursion guard: with level-salted partitioning, each level
    // divides distinct keys by the fan-out; eight levels cover any input.
    OVC_CHECK(pending.level <= 8);
    output_queue_.Clear();
    queue_pos_ = 0;

    PartitionWriters parts(&child_->schema(), group_prefix_, "hagg-part",
                           counters_, temp_);
    RunFileReader reader(&child_->schema(), temp_);
    Status st = reader.Open(pending.path);
    const uint64_t* row = nullptr;
    Ovc code = 0;
    while (st.ok() && reader.Next(&row, &code)) {
      // Still too many groups: repartition recursively.
      if (!TryAccumulate(row) && !parts.Append(row, pending.level)) {
        st = parts.status();
      }
    }
    if (!st.ok()) {
      Degrade(st);
      return false;
    }
    if (!QueueSpill(&parts, pending.level + 1)) return false;
    FlushTableToQueue();
    if (output_queue_.size() > 0) return true;
  }
  return false;
}

uint32_t HashAggregate::NextBatch(RowBlock* out) {
  out->Clear();
  if (failed_) return 0;
  if (fell_back_) {
    // Collapsed state rows ARE output rows (group keys + merged
    // accumulators); their codes go unused (this operator's contract:
    // unordered, no codes).
    return fb_sort_->NextBlock(out);
  }
  while (queue_pos_ >= output_queue_.size()) {
    if (!ProcessNextPartition()) return 0;
  }
  // The queue stays put until the next pull: serve it zero-copy.
  return ServeRows(output_queue_, &queue_pos_, out);
}

void HashAggregate::Close() {
  output_queue_.Clear();
  group_states_.Clear();
  table_.clear();
  fb_sort_.reset();
}

}  // namespace ovc
