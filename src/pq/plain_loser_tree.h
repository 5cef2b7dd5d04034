// Baseline tree-of-losers priority queue WITHOUT offset-value coding.
//
// Identical tournament structure to pq/loser_tree.h, but every match is a
// full key comparison starting at column 0. This is the comparison point for
// the paper's claim 1 ("offset-value coding can speed up external merge
// sort and also its consumers"): same algorithm, same memory layout, only
// the coding is missing.

#ifndef OVC_PQ_PLAIN_LOSER_TREE_H_
#define OVC_PQ_PLAIN_LOSER_TREE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bits.h"
#include "core/ovc.h"
#include "core/ovc_reference.h"
#include "core/row_ref.h"
#include "row/comparator.h"

namespace ovc {

/// One match of a plain tournament: true when entry a beats entry b. An
/// exhausted input loses to a live one without a key comparison; equal
/// keys (and two exhausted inputs) go to the lower slot.
inline bool PlainLeftWins(const KeyComparator& comparator,
                          const uint64_t* a_row, uint32_t a_slot, bool a_done,
                          const uint64_t* b_row, uint32_t b_slot,
                          bool b_done) {
  if (a_done || b_done) {
    return a_done && b_done ? a_slot < b_slot : b_done;
  }
  const int cmp = comparator.Compare(a_row, b_row);
  return cmp < 0 || (cmp == 0 && a_slot < b_slot);
}

/// Merges F sorted inputs with full key comparisons (no codes). Output rows
/// carry no usable offset-value code (RowRef::ovc is the duplicate-free
/// naive recomputation only if requested via `derive_output_codes`, priced
/// at one extra row comparison per output row -- the expensive method the
/// paper's introduction describes). `Source` is the same concrete input
/// type OvcMergerT takes; its codes are ignored.
template <typename Source>
class PlainMergerT {
 public:
  struct Options {
    /// When true, the merger derives output codes the naive way: comparing
    /// each output row to its predecessor, column by column.
    bool derive_output_codes;

    Options() : derive_output_codes(false) {}
  };

  PlainMergerT(const OvcCodec* codec, const KeyComparator* comparator,
               std::vector<Source*> sources, Options options = Options())
      : codec_(codec),
        comparator_(comparator),
        sources_(std::move(sources)),
        options_(options) {
    OVC_CHECK(!sources_.empty());
    capacity_ = CeilToPowerOfTwo(static_cast<uint32_t>(sources_.size()));
    nodes_.assign(capacity_, Entry{0, true});
    rows_.assign(capacity_, nullptr);
    prev_row_.assign(codec_->schema().total_columns(), 0);
  }

  /// Next merged row. RowRef::ovc is meaningful only with
  /// `derive_output_codes`.
  bool Next(RowRef* out) {
    if (!started_) {
      started_ = true;
      winner_ = capacity_ == 1 ? LeafEntry(0) : BuildWinner(1);
    } else {
      Entry cand = FetchSuccessor(winner_.slot);
      uint32_t node = (capacity_ + winner_.slot) >> 1;
      while (node >= 1) {
        cand = PlayMatch(node, cand, nodes_[node]);
        node >>= 1;
      }
      winner_ = cand;
    }
    if (winner_.exhausted) {
      return false;
    }
    const uint64_t* row = rows_[winner_.slot];
    out->cols = row;
    out->ovc = options_.derive_output_codes ? DeriveOutputCode(row) : 0;
    return true;
  }

 private:
  struct Entry {
    uint32_t slot;
    bool exhausted;
  };

  Entry LeafEntry(uint32_t slot) {
    if (slot >= sources_.size()) {
      return Entry{slot, true};
    }
    return FetchSuccessor(slot);
  }

  Entry FetchSuccessor(uint32_t slot) {
    const uint64_t* row = nullptr;
    Ovc code = 0;
    if (!sources_[slot]->Next(&row, &code)) {
      rows_[slot] = nullptr;
      return Entry{slot, true};
    }
    rows_[slot] = row;
    return Entry{slot, false};
  }

  Entry BuildWinner(uint32_t node) {
    if (node >= capacity_) {
      return LeafEntry(node - capacity_);
    }
    Entry a = BuildWinner(2 * node);
    Entry b = BuildWinner(2 * node + 1);
    return PlayMatch(node, a, b);
  }

  Entry PlayMatch(uint32_t node, Entry a, Entry b) {
    const bool a_wins =
        PlainLeftWins(*comparator_, rows_[a.slot], a.slot, a.exhausted,
                      rows_[b.slot], b.slot, b.exhausted);
    nodes_[node] = a_wins ? b : a;
    return a_wins ? a : b;
  }

  /// The naive method: one more full comparison per output row.
  Ovc DeriveOutputCode(const uint64_t* row) {
    const Ovc code =
        has_prev_ ? reference::AscendingOvc(*codec_, prev_row_.data(), row)
                  : codec_->MakeInitial(row);
    std::memcpy(prev_row_.data(), row,
                codec_->schema().total_columns() * sizeof(uint64_t));
    has_prev_ = true;
    if (comparator_->counters() != nullptr) {
      comparator_->counters()->column_comparisons +=
          codec_->OffsetOf(code) + (codec_->IsDuplicate(code) ? 0 : 1);
      ++comparator_->counters()->row_comparisons;
    }
    return code;
  }

  const OvcCodec* codec_;
  const KeyComparator* comparator_;
  std::vector<Source*> sources_;
  Options options_;

  uint32_t capacity_ = 0;
  std::vector<Entry> nodes_;
  std::vector<const uint64_t*> rows_;
  std::vector<uint64_t> prev_row_;  // for naive output-code derivation
  bool has_prev_ = false;
  Entry winner_{0, true};
  bool started_ = false;
};

/// Sorts an in-memory batch with a plain loser tree (full comparisons).
class PlainPqSorter {
 public:
  PlainPqSorter(const OvcCodec* codec, const KeyComparator* comparator);

  void Reset(const uint64_t* const* rows, uint32_t count);
  bool Next(RowRef* out);

 private:
  struct Entry {
    uint32_t slot;
    bool exhausted;
  };

  Entry BuildWinner(uint32_t node);
  Entry PlayMatch(uint32_t node, Entry a, Entry b);

  const OvcCodec* codec_;
  const KeyComparator* comparator_;
  uint32_t capacity_ = 0;
  uint32_t count_ = 0;
  std::vector<Entry> nodes_;
  const uint64_t* const* rows_ = nullptr;
  Entry winner_{0, true};
  bool started_ = false;
};

}  // namespace ovc

#endif  // OVC_PQ_PLAIN_LOSER_TREE_H_
