// Order-preserving shuffle (Section 4.10).
//
// One-to-many "splitting" shuffle: each output partition is a selection
// from the overall input stream, so its codes follow from the filter
// theorem -- a per-partition accumulator absorbs the codes of rows routed
// elsewhere. An *unsorted* child is also accepted (codes are then all zero
// and the partition streams are unsorted): that is the front half of the
// parallel-sort plan shape, which partitions raw input across workers whose
// sorts then produce the codes.
//
// Many-to-one "merging" shuffle: the standard merge logic, "very similar to
// a merge step in an external merge sort": a tree-of-losers priority queue
// exploits the input codes and produces output codes. Producer threads
// drive the inputs and hand whole row batches to the consumer through
// bounded queues; a single-threaded mode serves deterministic benchmarks.
// Both modes merge the same way: a BlockReader per input -- over the input
// itself, or over an operator serving that input's queue -- feeds one
// OvcMergerT<BlockReader>.
//
// Many-to-many shuffle is deliberately not provided (the paper: "usually
// not recommended due to its danger ... of deadlock"); compose a merging
// and a splitting exchange instead -- which is exactly what the planner's
// parallel plan shapes do (plan/physical_plan.h).

#ifndef OVC_EXEC_EXCHANGE_H_
#define OVC_EXEC_EXCHANGE_H_

#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/accumulator.h"
#include "exec/operator.h"
#include "pq/loser_tree.h"
#include "pq/plain_loser_tree.h"
#include "row/row_block.h"
#include "sort/run.h"

namespace ovc {

/// Demultiplexes one stream into `partitions` partition streams. A sorted,
/// coded child yields sorted, coded partition streams (filter theorem); an
/// unsorted child yields unsorted partition streams (zero codes).
///
/// Thread safety: the partition streams may be pulled from different
/// threads concurrently (each stream by at most one thread); routing over
/// the shared child is serialized internally. This is what lets a threaded
/// MergeExchange drive one worker pipeline per partition.
///
/// Child lifecycle: the shared child is opened lazily at the first pull and
/// closed exactly once per cycle -- when every partition stream has been
/// closed (consumers may run concurrently or drain the partitions one
/// after another; rows for not-yet-consumed partitions stay buffered until
/// their own stream closes). Closing the last stream also resets all
/// routing state, so the whole exchange supports a fresh open/pull/close
/// cycle (rescan), provided the child supports rescans.
class SplitExchange {
 public:
  enum class Policy {
    kHashKey,     // co-locates equal keys (partition by key-prefix hash)
    kRoundRobin,  // balances rows
  };

  /// For kHashKey, `hash_prefix` is the number of leading key columns
  /// hashed (0 = the child's full key arity); co-locating aggregation
  /// groups hashes only the grouping prefix.
  SplitExchange(Operator* child, uint32_t partitions, Policy policy,
                QueryCounters* counters, uint32_t hash_prefix = 0);

  /// The i-th partition stream. All partitions share the child; rows for
  /// not-yet-consumed partitions are buffered in memory.
  Operator* partition(uint32_t i);

  uint32_t partitions() const { return static_cast<uint32_t>(states_.size()); }

 private:
  class PartitionStream;

  /// Per-partition buffered rows. Chunked so that consumed rows are freed
  /// chunk by chunk while the partition keeps buffering.
  struct PartitionState {
    static constexpr size_t kChunkRows = 256;

    explicit PartitionState(uint32_t width_in) : width(width_in) {}

    void Push(const uint64_t* row, Ovc code) {
      if (chunks.empty() || chunks.back().size() >= kChunkRows) {
        chunks.emplace_back(width);
        // Reserve so appends never reallocate.
        chunks.back().Reserve(kChunkRows);
      }
      chunks.back().Append(row, code);
      ++buffered;
    }

    bool Pop(const uint64_t** row, Ovc* code) {
      if (!chunks.empty() && head_pos >= chunks.front().size() &&
          chunks.front().size() >= kChunkRows) {
        chunks.pop_front();
        head_pos = 0;
      }
      if (chunks.empty() || head_pos >= chunks.front().size()) return false;
      *row = chunks.front().row(head_pos);
      *code = chunks.front().code(head_pos);
      ++head_pos;
      --buffered;
      return true;
    }

    void Reset() {
      chunks.clear();
      head_pos = 0;
      buffered = 0;
      acc.Reset();
    }

    uint32_t width;
    std::deque<InMemoryRun> chunks;
    size_t head_pos = 0;
    /// Rows currently buffered (pushed, not yet popped).
    size_t buffered = 0;
    OvcAccumulator acc;
  };

  /// Partition-stream lifecycle hooks (see "Child lifecycle" above).
  void StreamOpen(uint32_t index) OVC_EXCLUDES(mu_);
  void StreamClose(uint32_t index) OVC_EXCLUDES(mu_);

  /// Routes child rows to partition buffers until partition `want` holds at
  /// least `min_rows` rows or the child is exhausted. Caller holds mu_.
  void PumpUntilLocked(uint32_t want, size_t min_rows) OVC_REQUIRES(mu_);
  uint32_t RouteOf(const uint64_t* row) OVC_REQUIRES(mu_);
  /// Block pull: fills `out` with up to its capacity rows of partition
  /// `index` (copied out of the partition buffers).
  uint32_t NextRows(uint32_t index, RowBlock* out) OVC_EXCLUDES(mu_);

  Operator* child_;
  Policy policy_;
  QueryCounters* counters_;
  uint32_t hash_prefix_;
  bool child_has_ovc_;
  /// Fixed at construction (never resized); the PartitionState *contents*
  /// are mutated only under mu_, via methods annotated OVC_REQUIRES(mu_) --
  /// the analysis cannot express "pointee of vector element", so that half
  /// of the contract rides on the method annotations.
  std::vector<std::unique_ptr<PartitionState>> states_;
  std::vector<std::unique_ptr<Operator>> streams_;

  /// Serializes pumping, buffer access, and lifecycle transitions: the
  /// partition streams are pulled from concurrent producer threads but
  /// share the child and the routing state.
  Mutex mu_;
  /// Staging block for batched pumping (one virtual child NextBatch per
  /// block instead of one virtual Next per routed row).
  RowBlock pump_block_ OVC_GUARDED_BY(mu_);
  uint32_t pump_pos_ OVC_GUARDED_BY(mu_) = 0;
  uint64_t round_robin_next_ OVC_GUARDED_BY(mu_) = 0;
  bool child_open_ OVC_GUARDED_BY(mu_) = false;
  bool child_done_ OVC_GUARDED_BY(mu_) = false;
  /// Streams closed in the current cycle. The child is closed (and all
  /// routing state reset) when every stream has been closed -- NOT when
  /// the count of concurrently-open streams drops to zero, which would
  /// discard rows buffered for partitions drained one after another.
  std::vector<bool> stream_closed_ OVC_GUARDED_BY(mu_);
  uint32_t closed_streams_ OVC_GUARDED_BY(mu_) = 0;
};

/// A batch of rows travelling from a producer thread to the merge.
using RowBatch = InMemoryRun;

/// Bounded multi-producer (in practice single-producer) batch queue.
class BoundedBatchQueue {
 public:
  explicit BoundedBatchQueue(size_t capacity) : capacity_(capacity) {}

  /// Blocks while full; returns false when the queue was cancelled.
  bool Push(std::unique_ptr<RowBatch> batch) OVC_EXCLUDES(mu_);
  /// Blocks while empty; nullptr signals end of stream.
  std::unique_ptr<RowBatch> Pop() OVC_EXCLUDES(mu_);
  /// Unblocks producers and consumers; further pushes fail.
  void Cancel() OVC_EXCLUDES(mu_);

 private:
  Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<std::unique_ptr<RowBatch>> items_ OVC_GUARDED_BY(mu_);
  const size_t capacity_;
  bool cancelled_ OVC_GUARDED_BY(mu_) = false;
};

/// Many-to-one order-preserving merging exchange.
///
/// Supports re-open: Close() (or a fresh Open(), which resets any leftover
/// state first) returns the exchange to a pristine state, and a further
/// Open() restarts all inputs, provided they support rescans.
class MergeExchange : public Operator {
 public:
  struct Options {
    /// Producer threads per input; false pulls inputs inline (deterministic
    /// single-threaded mode for benchmarks).
    bool threaded;
    /// Rows per batch in threaded mode.
    uint32_t batch_rows;
    /// Batches buffered per input queue.
    size_t queue_batches;
    /// Ablation: merge with a plain tree (full comparisons, codeless
    /// output).
    bool use_ovc;

    Options()
        : threaded(true), batch_rows(1024), queue_batches(4), use_ovc(true) {}
  };

  /// All inputs must be sorted with codes and share the first input's
  /// schema. In threaded mode, each input pipeline must have been built
  /// with its own QueryCounters (pipelines run concurrently); `counters`
  /// meters only the merge itself.
  MergeExchange(std::vector<Operator*> inputs, QueryCounters* counters,
                Options options = Options());
  ~MergeExchange() override;

  void Open() override;
  uint32_t NextBatch(RowBlock* out) override;
  void Close() override;
  const Schema& schema() const override { return inputs_[0]->schema(); }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return options_.use_ovc; }

 private:
  class QueueStream;

  /// Returns the exchange to its pre-Open state (joins producer threads,
  /// closes the readers, drops mergers/readers/queues). Safe to call in any
  /// state.
  void ResetState();

  std::vector<Operator*> inputs_;
  QueryCounters* counters_;
  Options options_;
  OvcCodec codec_;
  KeyComparator comparator_;

  /// Threaded mode: one queue per input, each owned by the operator that
  /// serves its batches, and the producer thread that fills it.
  std::vector<std::unique_ptr<QueueStream>> queue_streams_;
  std::vector<std::thread> producers_;
  /// One open reader per input, over the input (inline mode) or over its
  /// queue stream (threaded mode); closed by ResetState (Close, or a
  /// re-entrant Open), which balances inline mode's input opens.
  std::vector<std::unique_ptr<BlockReader>> readers_;
  std::unique_ptr<OvcMergerT<BlockReader>> merger_;
  std::unique_ptr<PlainMergerT<BlockReader>> plain_merger_;
};

}  // namespace ovc

#endif  // OVC_EXEC_EXCHANGE_H_
