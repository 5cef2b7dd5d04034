#include "storage/lsm.h"

#include "sort/external_sort.h"

namespace ovc {

namespace {

/// Operator over the forest's runs: the sort layer's final merge, with
/// collapse when the forest aggregates. Readers abort on a corrupt run file
/// (the forest owns its files).
class ForestScan : public Operator {
 public:
  ForestScan(const Schema* schema, QueryCounters* counters,
             std::vector<SpilledRun> runs,
             const std::vector<StateMergeFn>* collapse_fns)
      : schema_(schema),
        counters_(counters),
        runs_(std::move(runs)),
        collapse_fns_(collapse_fns) {}

  void Open() override {
    merge_ = std::make_unique<RunFileMerge>(schema_, counters_,
                                            /*error_sink=*/nullptr,
                                            SortConfig(), collapse_fns_);
    OVC_CHECK_OK(merge_->Open(runs_));
  }

  uint32_t NextBatch(RowBlock* out) override { return merge_->NextBlock(out); }

  void Close() override { merge_.reset(); }

  const Schema& schema() const override { return *schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  const Schema* schema_;
  QueryCounters* counters_;
  std::vector<SpilledRun> runs_;
  const std::vector<StateMergeFn>* collapse_fns_;
  std::unique_ptr<RunFileMerge> merge_;
};

}  // namespace

LsmForest::LsmForest(const Schema* schema, QueryCounters* counters,
                     TempFileManager* temp, Options options)
    : schema_(schema),
      counters_(counters),
      temp_(temp),
      options_(options),
      memtable_(schema->total_columns()) {
  OVC_CHECK(options_.memtable_rows >= 1);
  if (options_.collapse) {
    OVC_CHECK(options_.collapse_fns.size() == schema->payload_columns());
  }
}

void LsmForest::Insert(const uint64_t* row) {
  memtable_.AppendRow(row);
  ++rows_;
  if (memtable_.size() >= options_.memtable_rows) {
    Flush();
    if (options_.compaction_trigger > 0 &&
        runs_.size() >= options_.compaction_trigger) {
      CompactAll();
    }
  }
}

void LsmForest::Flush() {
  if (memtable_.empty()) return;
  // Aggregating maintenance collapses key-duplicates already at flush.
  SpilledRun run;
  OVC_CHECK_OK(SortToRunFile(schema_, counters_, SortConfig(), memtable_,
                             collapse_fns(), temp_->NewPath("lsm-run"),
                             &run));
  runs_.push_back(run);
  memtable_.Clear();
}

void LsmForest::CompactAll() {
  if (runs_.size() <= 1) return;
  SpilledRun run;
  OVC_CHECK_OK(MergeToRunFile(schema_, counters_, /*error_sink=*/nullptr,
                              SortConfig(), runs_, collapse_fns(),
                              temp_->NewPath("lsm-compact"), &run));
  runs_.assign(1, run);
  ++compactions_;
}

std::unique_ptr<Operator> LsmForest::ScanAll() {
  Flush();
  return std::make_unique<ForestScan>(schema_, counters_, runs_,
                                      collapse_fns());
}

}  // namespace ovc
