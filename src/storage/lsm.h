// Log-structured merge-forest (Section 4.11; the Napa use case of
// Sections 1 and 5: "ingestion (run generation), compaction (merging), and
// query processing in log-structured merge-forests rely heavily on sorting
// and merging").
//
// Rows accumulate in a memtable; a flush sorts them (tree-of-losers, codes
// as a byproduct) into a prefix-truncated run file. Queries merge all runs
// plus the memtable with an OVC tree-of-losers merge and deliver a single
// sorted, coded stream. Compaction merges runs into one, again exploiting
// and reproducing codes. All three are the external sort's own run steps
// (sort/external_sort.h), with its collapse for aggregating maintenance.

#ifndef OVC_STORAGE_LSM_H_
#define OVC_STORAGE_LSM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/temp_file.h"
#include "exec/operator.h"
#include "row/row_buffer.h"
#include "sort/group_collapse.h"
#include "sort/run_file.h"

namespace ovc {

/// A forest of sorted runs with a write-back memtable.
class LsmForest {
 public:
  struct Options {
    /// Rows buffered before an automatic flush.
    uint64_t memtable_rows;
    /// Compact automatically when the run count reaches this threshold
    /// (0 disables auto-compaction).
    uint32_t compaction_trigger;
    /// Napa-style aggregating maintenance: collapse key-duplicates during
    /// flush and compaction, merging payload columns with `collapse_fns`
    /// (one per payload column). Queries then see one row per key. This is
    /// how Napa "maintains thousands of materialized views in
    /// log-structured merge-forests": ingestion appends deltas, merging
    /// aggregates them.
    bool collapse;
    std::vector<StateMergeFn> collapse_fns;

    Options() : memtable_rows(4096), compaction_trigger(0), collapse(false) {}
  };

  /// `schema`, `counters` (optional), and `temp` must outlive the forest.
  LsmForest(const Schema* schema, QueryCounters* counters,
            TempFileManager* temp, Options options = Options());

  /// Buffers one row; may trigger a flush and a compaction.
  void Insert(const uint64_t* row);

  /// Sorts and spills the memtable as a new run (no-op when empty).
  void Flush();

  /// Merges all runs into one.
  void CompactAll();

  /// Sorted, coded scan over the whole forest (flushes the memtable first).
  /// The forest must outlive the scan and not be mutated during it.
  std::unique_ptr<Operator> ScanAll();

  /// Row layout of the stored table (and of every scan).
  const Schema& schema() const { return *schema_; }

  /// Current run count (after any pending flush).
  size_t run_count() const { return runs_.size(); }
  /// Total rows ingested.
  uint64_t rows() const { return rows_; }
  /// Compactions performed.
  uint64_t compactions() const { return compactions_; }

 private:
  /// The state-merge functions when the forest collapses, else nullptr.
  const std::vector<StateMergeFn>* collapse_fns() const {
    return options_.collapse ? &options_.collapse_fns : nullptr;
  }

  const Schema* schema_;
  QueryCounters* counters_;
  TempFileManager* temp_;
  Options options_;

  RowBuffer memtable_;
  std::vector<SpilledRun> runs_;
  uint64_t rows_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace ovc

#endif  // OVC_STORAGE_LSM_H_
