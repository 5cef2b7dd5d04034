// External merge sort with offset-value coding (Sections 3 and 5).
//
// Pipeline: consume unsorted rows -> generate sorted runs (in memory when
// the input fits, spilled to prefix-truncated run files otherwise) -> merge
// with a tree-of-losers priority queue, cascading in multiple levels when
// the run count exceeds the merge fan-in. Offset-value codes are produced
// during run generation, stored in the run format (as truncated prefixes),
// exploited during merging, and delivered with every output row.
//
// Given state-merge functions, the same pipeline is in-sort aggregation
// (Figure 5's sort-based plan): run generation, every intermediate merge
// and the final merge collapse key-duplicate rows -- detected from their
// duplicate codes alone -- so a spilled run holds at most one row per group
// and the output holds exactly one.
//
// The run steps (sort rows into a run file, merge run files into one, merge
// run files into a block stream) are public: LSM maintenance is built from
// the same three.

#ifndef OVC_SORT_EXTERNAL_SORT_H_
#define OVC_SORT_EXTERNAL_SORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/temp_file.h"
#include "core/ovc.h"
#include "core/row_ref.h"
#include "pq/loser_tree.h"
#include "pq/plain_loser_tree.h"
#include "row/row_block.h"
#include "row/row_buffer.h"
#include "sort/group_collapse.h"
#include "sort/run.h"
#include "sort/run_file.h"
#include "sort/run_generation.h"

namespace ovc {

/// Tuning and ablation knobs for ExternalSort.
struct SortConfig {
  /// Rows buffered in memory before a run is spilled (the paper's
  /// "operator's memory holds ... rows").
  uint64_t memory_rows = uint64_t{1} << 20;
  /// Maximum merge fan-in; more runs cascade into intermediate merges.
  uint32_t fan_in = 128;
  /// In-memory run-generation strategy.
  RunGenMode run_gen = RunGenMode::kPqSingleRowRuns;
  /// Mini-run size for RunGenMode::kPqMiniRuns.
  uint32_t mini_run_rows = 1024;
  /// Continuous run generation by replacement selection instead of batch
  /// modes (expected run length twice memory_rows).
  bool replacement_selection = false;
  /// Ablation: false disables offset-value coding end to end (plain
  /// tournaments, full-row run files, full comparisons in merges).
  bool use_ovc = true;
  /// Section 5 duplicate bypass in merge steps.
  bool duplicate_bypass = true;
  /// With use_ovc == false: derive output codes anyway, the naive way
  /// (row by row, column by column) -- the paper's expensive strawman.
  bool naive_output_codes = false;
};

/// Merges sorted run files into one sorted, coded stream, collapsing
/// key-duplicates when given state-merge functions. Uses the configuration's
/// use_ovc, duplicate_bypass and naive_output_codes.
class RunFileMerge {
 public:
  /// `schema`, `counters` (optional), `error_sink` and `merge_fns` must
  /// outlive the merge. `error_sink` is passed to every RunFileReader
  /// (nullptr: a corrupt run file aborts). `merge_fns` (optional, one per
  /// payload column) turns on collapse, which needs use_ovc. A `limit`
  /// (0 = none) stops the merge after that many rows, or groups when it
  /// collapses.
  RunFileMerge(const Schema* schema, QueryCounters* counters,
               TempFileManager* error_sink, const SortConfig& config,
               const std::vector<StateMergeFn>* merge_fns = nullptr,
               uint64_t limit = 0);
  ~RunFileMerge();

  /// Opens every run; no runs make an empty stream.
  Status Open(const std::vector<SpilledRun>& runs);

  /// Next merged row. Not available with collapse.
  bool Next(RowRef* out);

  /// Fills `out` with up to out->capacity() rows (codes follow the stream
  /// contract across blocks). Returns the row count, 0 at end.
  uint32_t NextBlock(RowBlock* out);

  /// Feeds every remaining row to `sink`. Without use_ovc the rows carry
  /// offset-0 codes.
  void Drain(RunSink* sink);

 private:
  /// Next merged row within the limit.
  bool Pull(RowRef* out);

  /// RunSink appending to the block NextBlock is filling.
  struct BlockSink final : RunSink {
    void Accept(const uint64_t* row, Ovc code) override {
      block->Append(row, code);
    }
    RowBlock* block = nullptr;
  };

  const Schema* schema_;
  OvcCodec codec_;
  KeyComparator comparator_;
  TempFileManager* error_sink_;
  SortConfig config_;
  const std::vector<StateMergeFn>* merge_fns_;
  RunCut cut_;
  std::vector<std::unique_ptr<RunFileReader>> readers_;
  // Exactly one merger serves a non-empty stream.
  std::unique_ptr<OvcMergerT<RunFileReader>> merger_;
  std::unique_ptr<PlainMergerT<RunFileReader>> plain_merger_;
  BlockSink block_sink_;
  std::unique_ptr<CollapsingSink> collapser_;  // NextBlock with collapse
};

/// Sorts `rows` (one batch run generation per `config`) into a new run file
/// at `path`, collapsing key-duplicates when `merge_fns` is set, and
/// describes the file in `run`. A `cut` (optional) ends the run at its
/// limit.
Status SortToRunFile(const Schema* schema, QueryCounters* counters,
                     const SortConfig& config, const RowBuffer& rows,
                     const std::vector<StateMergeFn>* merge_fns,
                     const std::string& path, SpilledRun* run,
                     RunCut* cut = nullptr);

/// Merges `runs` into a new run file at `path` and describes it in `run`.
/// Arguments as for RunFileMerge; the merge derives no naive codes (a
/// run stored without use_ovc keeps offset-0 codes, i.e. full keys).
Status MergeToRunFile(const Schema* schema, QueryCounters* counters,
                      TempFileManager* error_sink, const SortConfig& config,
                      const std::vector<SpilledRun>& runs,
                      const std::vector<StateMergeFn>* merge_fns,
                      const std::string& path, SpilledRun* run,
                      uint64_t limit = 0);

/// Sorts a stream of rows. Push rows with Add(), call Finish(), then pull
/// the sorted, offset-value-coded output with Next() or NextBlock().
///
/// An output limit k (rows, or groups when the sort collapses) makes the
/// sort serve only the first k: every run-generation pass stops once its
/// run holds k, the merges stop after k, and once a run was cut, intake
/// drops each row that sorts after the smallest k-th key cut so far (one
/// key comparison per row) -- a plain sort drops its ties too, since the
/// cut run already holds k rows of that key that come first (batch run
/// generation and the merges keep ties in input order), while a
/// collapsing sort keeps them, as they belong to the k-th group. The
/// output is exactly the first k rows of the unlimited sort. Replacement
/// selection cuts only the merges.
class ExternalSort {
 public:
  /// `schema`, `counters` (optional), `temp` and `merge_fns` must outlive
  /// the sort. `merge_fns` (one per payload column) makes the sort collapse
  /// key-duplicates at every stage; a collapsing sort always runs with
  /// codes (use_ovc on, naive_output_codes and replacement_selection off),
  /// because duplicates are recognized from their codes. `limit` is the
  /// output limit k (0 = none).
  ExternalSort(const Schema* schema, QueryCounters* counters,
               TempFileManager* temp, SortConfig config,
               const std::vector<StateMergeFn>* merge_fns = nullptr,
               uint64_t limit = 0);
  ~ExternalSort();

  /// Adds one input row (copied). Spill I/O errors during intake do not
  /// abort: the sort records the first error, drops further input, and
  /// Finish() reports it (the graceful-degradation contract the mid-query
  /// fallbacks rely on).
  void Add(const uint64_t* row);

  /// Adds a whole block of input rows: one amortized-growth bulk copy per
  /// memory-buffer stretch instead of a per-row append, splitting at the
  /// memory_rows spill boundary exactly like row-at-a-time Add().
  void AddBlock(const RowBlock& block);

  /// Ends the input; sorts/spills what remains and prepares the output.
  Status Finish();

  /// Produces the next output row in sort order with its code. Valid only
  /// after Finish(), and not for a collapsing sort that spilled.
  bool Next(RowRef* out);

  /// Block-sized output: fills `out` with up to out->capacity() sorted rows
  /// (codes follow the stream contract across block boundaries). Returns
  /// the row count, 0 at end. Valid only after Finish(); do not interleave
  /// with Next().
  uint32_t NextBlock(RowBlock* out);

  /// Number of runs spilled to temporary storage (0 for in-memory sorts).
  uint64_t spilled_runs() const { return spilled_runs_; }
  /// Number of intermediate merge levels (0 = single final merge or
  /// in-memory).
  uint32_t intermediate_merge_levels() const { return merge_levels_; }

 private:
  Status SpillBuffer();
  Status PrepareMerge(std::vector<SpilledRun> runs);
  /// Records the first intake error and degrades (see Add).
  void DeferError(const Status& status);
  /// A cut for one run-generation pass.
  RunCut NewCut() const {
    return RunCut(schema_, limit_, merge_fns_ != nullptr);
  }

  const Schema* schema_;
  QueryCounters* counters_;
  TempFileManager* temp_;
  SortConfig config_;
  const std::vector<StateMergeFn>* merge_fns_;
  uint64_t limit_;
  KeyComparator comparator_;
  /// The smallest k-th key of a cut run so far (empty: no run was cut).
  std::vector<uint64_t> cutoff_;

  RowBuffer buffer_;
  std::unique_ptr<ReplacementSelection> rs_;
  std::vector<SpilledRun> runs_;
  uint64_t spilled_runs_ = 0;
  uint32_t merge_levels_ = 0;
  bool finished_ = false;
  Status deferred_error_ = Status::Ok();

  // Output: an in-memory run or the final merge of the spilled runs.
  std::unique_ptr<InMemoryRun> memory_run_;
  std::unique_ptr<InMemoryRunSource> memory_source_;
  std::unique_ptr<RunFileMerge> merge_;
};

}  // namespace ovc

#endif  // OVC_SORT_EXTERNAL_SORT_H_
