// In-memory sorted runs.

#ifndef OVC_SORT_RUN_H_
#define OVC_SORT_RUN_H_

#include <cstdint>
#include <vector>

#include "core/ovc.h"
#include "row/row_block.h"
#include "row/row_buffer.h"

namespace ovc {

/// A sorted sequence of rows held in memory, each with its offset-value code
/// relative to the previous row of the run (first row at offset 0).
class InMemoryRun {
 public:
  /// Rows have `width` columns.
  explicit InMemoryRun(uint32_t width) : rows_(width) {}

  /// Appends the next row of the run with its code.
  void Append(const uint64_t* row, Ovc code) {
    rows_.AppendRow(row);
    codes_.push_back(code);
  }

  /// Bulk-appends all rows and codes of `block` (widths must match). One
  /// contiguous copy instead of per-row appends -- the batched path of the
  /// exchange producer threads.
  void AppendBlock(const RowBlock& block) {
    OVC_DCHECK(block.width() == rows_.width());
    rows_.AppendRows(block.data(), block.size());
    codes_.insert(codes_.end(), block.codes(), block.codes() + block.size());
  }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const uint64_t* row(size_t i) const { return rows_.row(i); }
  Ovc code(size_t i) const { return codes_[i]; }
  /// Contiguous code storage (size() values), parallel to the rows.
  const Ovc* codes() const { return codes_.data(); }
  uint32_t width() const { return rows_.width(); }

  void Clear() {
    rows_.Clear();
    codes_.clear();
  }

  /// Pre-allocates storage for `rows` rows, guaranteeing that appends up to
  /// that count never reallocate (row pointers stay stable).
  void Reserve(size_t rows) {
    rows_.ReserveRows(rows);
    codes_.reserve(rows);
  }

 private:
  RowBuffer rows_;
  std::vector<Ovc> codes_;
};

/// Merge-input view over an InMemoryRun (a `Source` of OvcMergerT). The run
/// must outlive the source.
class InMemoryRunSource {
 public:
  explicit InMemoryRunSource(const InMemoryRun* run) : run_(run) {}

  /// Next row + its code relative to the previous row; false at the end.
  bool Next(const uint64_t** row, Ovc* code) {
    if (pos_ >= run_->size()) return false;
    *row = run_->row(pos_);
    *code = run_->code(pos_);
    ++pos_;
    return true;
  }

  /// Bulk variant: exposes up to `max_rows` contiguous rows (and their
  /// codes) starting at the current position and advances past them.
  /// Returns the span length; 0 at end of input. Shares the cursor with
  /// Next(), so callers may not interleave the two arbitrarily mid-stream
  /// (a span consumes all its rows at once).
  uint32_t NextSpan(const uint64_t** rows, const Ovc** codes,
                    uint32_t max_rows) {
    const size_t avail = run_->size() - pos_;
    const uint32_t n =
        static_cast<uint32_t>(avail < max_rows ? avail : max_rows);
    if (n == 0) return 0;
    *rows = run_->row(pos_);
    *codes = run_->codes() + pos_;
    pos_ += n;
    return n;
  }

  /// Restarts the scan from the beginning.
  void Rewind() { pos_ = 0; }

 private:
  const InMemoryRun* run_;
  size_t pos_ = 0;
};

}  // namespace ovc

#endif  // OVC_SORT_RUN_H_
