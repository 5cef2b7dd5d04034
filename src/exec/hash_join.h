// Hash joins: the order-preserving in-memory variant (Section 4.9) and the
// spilling grace-hash baseline used by Figure 6's hash-based plan.
//
// Order-preserving: "hash-join preserves the sort order of its probe input
// if the build input and its hash table fit in memory. ... the hash table
// is much like an unsorted version of a database index in index
// nested-loops join." Output codes follow the filter theorem over the
// probe stream, with duplicate codes for additional matches.
//
// Grace: when the build input exceeds its memory budget under
// FallbackPolicy::kPartition, both inputs are hash-partitioned to
// temporary storage (kHashPartitions ways, through PartitionWriters, which
// the hash aggregate spills through too) and each partition pair is joined
// in memory -- every row of both inputs is spilled once, which is exactly
// the behavior Figure 6's discussion charges the hash-based plan for. The
// default policy, kSortMerge, finishes by sort+merge instead.

#ifndef OVC_EXEC_HASH_JOIN_H_
#define OVC_EXEC_HASH_JOIN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/temp_file.h"
#include "core/accumulator.h"
#include "exec/fallback_policy.h"
#include "exec/merge_join.h"
#include "exec/operator.h"
#include "row/row_buffer.h"
#include "sort/external_sort.h"
#include "sort/run_file.h"

namespace ovc {

/// Join flavors supported by the hash joins (probe side is "left").
enum class JoinTypeHash { kInner, kLeftOuter, kLeftSemi, kLeftAnti };

/// Fan-out of every grace split, in the hash join and the hash aggregate.
inline constexpr uint32_t kHashPartitions = 16;

/// Hashes the first `columns` columns of `row` (counted in `counters`).
uint64_t HashKeyPrefix(const uint64_t* row, uint32_t columns,
                       QueryCounters* counters);

/// Raw column equality on the first `columns` columns; each column looked
/// at counts one column comparison.
bool KeysEqual(const uint64_t* a, const uint64_t* b, uint32_t columns,
               QueryCounters* counters);

/// One grace split: kHashPartitions run files of `schema` rows, each row
/// routed by a level-salted hash of its first `key_columns` columns (the
/// salt makes a re-split separate keys that shared a partition one level
/// up). Files are created all at once, in partition order, by OpenAll or
/// by the first Append. The first failed open, append or close is kept in
/// status(); every later call then does nothing and returns false, so a
/// set that is ok() has either no file or all of them.
class PartitionWriters {
 public:
  /// `tag` names the temp files; `schema` must outlive the set.
  PartitionWriters(const Schema* schema, uint32_t key_columns,
                   const char* tag, QueryCounters* counters,
                   TempFileManager* temp);

  /// Creates and opens every partition's file not open yet.
  bool OpenAll();
  /// Appends `row` to the partition of its level-`level` hash.
  bool Append(const uint64_t* row, uint32_t level);
  /// Closes partition `p`'s file.
  bool Close(uint32_t p);

  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }
  const Schema& schema() const { return *schema_; }
  /// Partitions whose file has been created (0 until the first open).
  uint32_t opened() const { return static_cast<uint32_t>(writers_.size()); }
  const std::string& path(uint32_t p) const { return paths_[p]; }
  uint64_t rows(uint32_t p) const { return writers_[p]->rows(); }
  /// Rows appended to the whole split.
  uint64_t total_rows() const;

 private:
  /// Keeps `status` if it is the first failure; returns ok().
  bool Record(Status status);

  const Schema* schema_;
  uint32_t key_columns_;
  const char* tag_;
  QueryCounters* counters_;
  TempFileManager* temp_;
  OvcCodec codec_;
  std::vector<std::string> paths_;
  std::vector<std::unique_ptr<RunFileWriter>> writers_;
  Status status_;
};

/// Order-preserving in-memory hash join: probe (left) input sorted with
/// codes; build (right) input fully resident.
class OrderPreservingHashJoin : public Operator {
 public:
  /// Joins on equality of the first `bind_columns` key columns of both
  /// sides. `memory_rows` is the build-side residency budget; exceeding it
  /// aborts (the compile-time guarantee of Section 4.9 is the caller's job).
  /// Output layout for kInner/kLeftOuter: probe key columns, probe payloads,
  /// all build columns (as payload), match indicator. kLeftSemi/kLeftAnti
  /// pass probe rows through.
  OrderPreservingHashJoin(Operator* probe, Operator* build,
                          uint32_t bind_columns, JoinTypeHash type,
                          uint64_t memory_rows, QueryCounters* counters);

  void Open() override;
  uint32_t NextBatch(RowBlock* out) override;
  void Close() override;
  const Schema& schema() const override { return output_schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  void BuildTable();
  /// Appends the next output row to `out`; false at end of stream.
  bool AppendNext(RowBlock* out);
  void EmitCombined(const uint64_t* probe_row, const uint64_t* build_row,
                    Ovc code, RowBlock* out);

  BlockReader probe_;
  Operator* build_;
  uint32_t bind_columns_;
  JoinTypeHash type_;
  uint64_t memory_rows_;
  Schema output_schema_;
  OvcCodec probe_codec_;
  QueryCounters* counters_;

  RowBuffer build_rows_;
  std::unordered_multimap<uint64_t, uint32_t> table_;

  RowRef pref_;
  OvcAccumulator acc_;
  std::vector<uint32_t> matches_;
  size_t match_idx_ = 0;
  Ovc probe_code_ = 0;
  bool emitting_ = false;
};

/// Grace hash join baseline: unordered output, no codes, spills both inputs
/// when the build side exceeds memory. Blocking: consumes both children in
/// Open().
///
/// Graceful degradation: with FallbackPolicy::kSortMerge (the default), a
/// build side that overflows `memory_rows` mid-Open does NOT trigger
/// recursive partition thrashing. Instead the rows already consumed plus
/// the unread remainder
/// feed an ExternalSort on the join key (spilling coded, prefix-truncated
/// runs), the probe stream is sorted the same way, and a MergeJoin
/// continuation finishes the query with the paper's comparison savings.
/// The overflow is counted in QueryCounters::hash_join_fallbacks and the
/// output keeps this operator's layout, so callers cannot tell the plans
/// apart except by the counters (and the row order).
///
/// With FallbackPolicy::kPartition both inputs split kHashPartitions ways,
/// and a partition pair whose build rows still overflow is split again
/// with the next level's salted hash. A pair past kMaxPartitionLevel, or
/// made by a split that made no progress (it left every build row in that
/// one pair), finishes through the same sort+merge continuation, fed from
/// its two partition files, and counts in hash_join_fallbacks too. A split makes no progress when one key holds
/// more than `memory_rows` rows, and rarely when a few keys collide under
/// that level's salt; either way the join result is the same.
class GraceHashJoin : public Operator {
 public:
  /// `type` limited to kInner and kLeftSemi (what Figure 6's plans need).
  /// `sort_config` tunes the fallback sorts (only read under kSortMerge).
  GraceHashJoin(Operator* probe, Operator* build, uint32_t bind_columns,
                JoinTypeHash type, uint64_t memory_rows,
                QueryCounters* counters, TempFileManager* temp,
                FallbackPolicy fallback = FallbackPolicy::kSortMerge,
                SortConfig sort_config = SortConfig{});

  void Open() override;
  uint32_t NextBatch(RowBlock* out) override;
  void Close() override;
  const Schema& schema() const override { return output_schema_; }
  bool sorted() const override { return false; }
  bool has_ovc() const override { return false; }

 private:
  struct PartitionPair {
    std::string probe_path;
    std::string build_path;
    uint32_t level = 0;
    /// True when the split that made this pair put every build row of
    /// the split in it. Such a split made no progress (one key over the
    /// budget, or rarely keys that collided under that salt), so the pair
    /// is treated as unsplittable and finishes by sort+merge.
    bool unsplittable = false;
  };
  /// Deepest repartitioning level; an overflowing pair at this level
  /// finishes by sort+merge.
  static constexpr uint32_t kMaxPartitionLevel = 8;

  /// Joins one resident (build RowBuffer) against a probe iterator.
  void JoinResident(const RowBuffer& build, const uint64_t* probe_row);
  /// Loads the next pending pair and queues its output (or stands up its
  /// sort+merge continuation); false when no pair produced anything.
  bool ProcessNextPartition();
  /// Splits a partition pair into kHashPartitions sub-pairs at level+1.
  void Repartition(const PartitionPair& pair);
  /// Routes every row of run file `path` through `parts` at `level`; false
  /// (degraded) when the file cannot be opened or `parts` fails.
  bool SplitRun(const std::string& path, uint32_t level,
                PartitionWriters* parts);
  /// Closes a finished split's files pair by pair and queues the pairs at
  /// `level`; degrades on the first failure of either side.
  void QueueSplit(PartitionWriters* build, PartitionWriters* probe,
                  uint32_t level);

  /// Sort+merge continuation, step 1: counts the fallback and moves the
  /// resident build rows into an ExternalSort keyed on the bind columns
  /// (the rest of the build side follows via fb_build_sort_->Add).
  void BeginSortMergeFallback();
  /// Step 2: finishes the build sort and creates fb_probe_sort_, which the
  /// caller feeds with every probe row; false (degraded) on a sort error.
  bool BeginProbeSort();
  /// Step 3: finishes the probe sort and stands up the MergeJoin
  /// continuation.
  void FinishSortMergeFallback();
  /// Finishes partition pair `pair`, whose build file reader `build` has
  /// overflowed at row `row`, through the continuation.
  void SortMergePartition(const PartitionPair& pair, RunFileReader* build,
                          const uint64_t* row);
  /// Tears down a drained continuation.
  void ResetContinuation();
  /// Appends one continuation row, remapped to this operator's layout, to
  /// `out`; false at end of stream.
  bool AppendFallback(RowBlock* out);
  /// Records `status` in the temp manager's error slot and stops output.
  void Degrade(const Status& status);

  Operator* probe_;
  Operator* build_;
  uint32_t bind_columns_;
  JoinTypeHash type_;
  uint64_t memory_rows_;
  FallbackPolicy fallback_;
  SortConfig sort_config_;
  Schema output_schema_;
  QueryCounters* counters_;
  TempFileManager* temp_;

  // In-memory fast path or partition queue.
  std::vector<PartitionPair> pending_;
  RowBuffer resident_build_;
  std::unordered_multimap<uint64_t, uint32_t> table_;
  RowBuffer output_queue_;
  size_t queue_pos_ = 0;
  bool in_memory_ = false;

  // Sort+merge continuation (kSortMerge overflow, or an unsplittable
  // partition pair under kPartition; live while fb_rows_ is set). The schemas
  // reinterpret the unchanged row layouts with key_arity == bind_columns_
  // so both sides sort -- and MergeJoin binds -- on exactly the join key.
  bool fell_back_ = false;
  bool failed_ = false;
  std::unique_ptr<Schema> fb_probe_schema_;
  std::unique_ptr<Schema> fb_build_schema_;
  std::unique_ptr<ExternalSort> fb_probe_sort_;
  std::unique_ptr<ExternalSort> fb_build_sort_;
  std::unique_ptr<Operator> fb_probe_view_;
  std::unique_ptr<Operator> fb_build_view_;
  std::unique_ptr<MergeJoin> fb_join_;
  std::unique_ptr<BlockReader> fb_rows_;  // reads fb_join_
};

}  // namespace ovc

#endif  // OVC_EXEC_HASH_JOIN_H_
