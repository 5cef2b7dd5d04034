// Run generation for external merge sort (Section 3, Section 5).
//
// Three in-memory strategies plus continuous replacement selection:
//
//  * kPqSingleRowRuns -- "run generation merges 'sorted' runs of a single
//    row each": one tree-of-losers tournament over the whole memory batch;
//    queue build-up and tear-down produce the sorted run and its
//    offset-value codes as a byproduct.
//  * kPqMiniRuns -- the cache-friendly variant (Section 3's "mini-runs ...
//    remain in memory until merged with fan-in 512 or 1,024"): sort
//    cache-sized mini-runs with a small tournament, then merge them into
//    one initial run.
//  * kStdSort -- baseline: std::sort over row pointers, then (optionally)
//    derive codes the naive way, row by row, column by column. This is the
//    expensive to-date method the paper's introduction describes.
//  * ReplacementSelection -- continuous run generation: expected run length
//    twice the memory size at a cost of one extra comparison per input row
//    (the comparison against the last winner that assigns the run number
//    and primes the row's offset-value code).

#ifndef OVC_SORT_RUN_GENERATION_H_
#define OVC_SORT_RUN_GENERATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/counters.h"
#include "common/temp_file.h"
#include "core/ovc.h"
#include "row/comparator.h"
#include "row/row_buffer.h"
#include "sort/run_file.h"

namespace ovc {

/// In-memory run-generation strategy.
enum class RunGenMode {
  kPqSingleRowRuns,
  kPqMiniRuns,
  kStdSort,
};

/// Destination for the rows of one generated run, in sort order.
class RunSink {
 public:
  virtual ~RunSink() = default;
  /// Receives the next row and its code relative to the previous row given
  /// to this sink.
  virtual void Accept(const uint64_t* row, Ovc code) = 0;
};

/// The output limit of one run step (a run-generation pass or a merge):
/// admits the first `limit` rows of a sorted, coded stream -- or, counting
/// `groups`, every row of its first `limit` groups, where a row with the
/// duplicate code continues its predecessor's group -- and keeps a copy of
/// the row that reached the limit, the step's k-th key. Cutting a sorted
/// stream keeps a prefix, so the codes it emits stay valid. Limit 0 admits
/// everything.
class RunCut {
 public:
  RunCut(const Schema* schema, uint64_t limit, bool groups)
      : codec_(schema), limit_(limit), groups_(groups) {}

  /// A cut with the same limit for another stream (no rows taken yet).
  RunCut Fresh() const { return RunCut(&codec_.schema(), limit_, groups_); }

  uint64_t limit() const { return limit_; }

  /// True when the next row, coded `code` relative to the previous admitted
  /// row, belongs to the output. A refused row closes the cut.
  bool Admit(const uint64_t* row, Ovc code) {
    if (limit_ == 0) return true;
    if (closed_) return false;
    if (groups_ && taken_ > 0 && codec_.IsDuplicate(code)) return true;
    if (taken_ == limit_) {
      closed_ = true;  // the first row of group limit + 1
      return false;
    }
    if (++taken_ == limit_) {
      kth_.assign(row, row + codec_.schema().total_columns());
      // A row count is complete at once; the last group may still grow.
      closed_ = !groups_;
    }
    return true;
  }

  /// True once no further row can be admitted: stop pulling.
  bool done() const { return closed_; }

  /// The row that reached the limit (empty until one did). Every row or
  /// group past the limit sorts at or after it.
  const std::vector<uint64_t>& kth() const { return kth_; }

 private:
  OvcCodec codec_;
  uint64_t limit_;
  bool groups_;
  uint64_t taken_ = 0;
  bool closed_ = false;
  std::vector<uint64_t> kth_;
};

/// Sorts one in-memory batch and emits it as a run.
class BatchSorter {
 public:
  /// When `use_ovc` is false the tournament runs with full key comparisons
  /// and rows are emitted with offset-0 codes (no truncation, no code
  /// maintenance) unless `naive_codes` asks for the row-by-row,
  /// column-by-column derivation.
  BatchSorter(const Schema* schema, QueryCounters* counters, RunGenMode mode,
              uint32_t mini_run_rows, bool use_ovc, bool naive_codes);

  /// Sorts the rows of `buffer` and feeds them to `sink` in order. With a
  /// `cut` (optional) the pass stops popping once the run holds the cut's
  /// limit.
  void Sort(const RowBuffer& buffer, RunSink* sink, RunCut* cut = nullptr);

 private:
  void SortPqSingle(const std::vector<const uint64_t*>& rows, RunSink* sink,
                    RunCut* cut);
  void SortPqMini(const std::vector<const uint64_t*>& rows, RunSink* sink,
                  RunCut* cut);
  void SortStd(std::vector<const uint64_t*>& rows, RunSink* sink,
               RunCut* cut);

  const Schema* schema_;
  OvcCodec codec_;
  KeyComparator comparator_;
  QueryCounters* counters_;
  RunGenMode mode_;
  uint32_t mini_run_rows_;
  bool use_ovc_;
  bool naive_codes_;
};

/// Continuous run generation by replacement selection with offset-value
/// codes maintained soundly across run boundaries.
///
/// Implementation note (documented in DESIGN.md): a code is only comparable
/// against another code relative to the same base key. Classic merging
/// guarantees this along every leaf-to-root path; replacement selection does
/// not, because rows destined for the *next* run enter the tree coded
/// relative to minus infinity while current-run entries are coded relative
/// to recent winners. Each tree entry therefore carries the sequence number
/// of its code's base row. Matches between entries with equal base tags use
/// the offset-value codes (and, per Iyer's unequal-code theorem, a
/// code-decided loss transfers the loser's base to the winner's row);
/// matches across different bases fall back to one full key comparison that
/// re-bases the loser. Mismatches only occur around run boundaries, so the
/// fallback cost amortizes to near zero.
class ReplacementSelection {
 public:
  /// Holds up to `capacity` rows in memory; emits runs through `temp`.
  ReplacementSelection(const Schema* schema, QueryCounters* counters,
                       TempFileManager* temp, uint32_t capacity);
  ~ReplacementSelection();

  /// Adds one input row, possibly emitting one row to the current run.
  Status Add(const uint64_t* row);

  /// Drains the tree, closing the last run.
  Status Finish();

  /// The spilled runs, available after Finish().
  std::vector<SpilledRun> TakeRuns();

  /// Number of runs produced (after Finish()).
  size_t run_count() const { return runs_.size(); }

 private:
  struct Entry {
    Ovc code = OvcCodec::LateFence();
    uint64_t run = ~uint64_t{0};
    uint64_t seq = 0;       // identity of this entry's row instance
    uint64_t base_seq = 0;  // identity of the row its code is relative to
    uint32_t slot = 0;
  };

  Entry PlayMatch(uint32_t node, Entry a, Entry b,
                  uint64_t* code_comparisons);
  void BuildTree();
  /// Plays `cand`, the entry taking the winner's slot, up the winner's
  /// leaf-to-root path and crowns the new winner.
  void ReplayWinnerPath(Entry cand);
  Status EmitWinner();
  Entry MakeFreshEntry(const uint64_t* row, uint32_t slot);

  const Schema* schema_;
  OvcCodec codec_;
  KeyComparator comparator_;
  QueryCounters* counters_;
  TempFileManager* temp_;

  uint32_t capacity_;       // number of row slots
  uint32_t tree_capacity_;  // padded power of two
  RowBuffer slots_;
  std::vector<Entry> nodes_;
  Entry winner_;
  bool built_ = false;

  uint64_t next_seq_ = 1;  // 0 is reserved for the minus-infinity base
  uint64_t current_run_ = 1;
  std::vector<uint64_t> prev_emitted_;
  uint64_t prev_emitted_seq_ = 0;
  bool run_has_rows_ = false;

  std::unique_ptr<RunFileWriter> writer_;
  std::vector<SpilledRun> runs_;
  std::string current_path_;
};

}  // namespace ovc

#endif  // OVC_SORT_RUN_GENERATION_H_
