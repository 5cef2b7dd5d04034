// Leaf operators: scans over in-memory data.

#ifndef OVC_EXEC_SCAN_H_
#define OVC_EXEC_SCAN_H_

#include <cstdint>

#include "exec/operator.h"
#include "row/row_buffer.h"
#include "sort/run.h"

namespace ovc {

/// Scans a RowBuffer in storage order. Unsorted, no codes: the typical
/// input of a sort operator.
class BufferScan : public Operator {
 public:
  /// `schema` and `buffer` must outlive the scan. Supports rescans.
  BufferScan(const Schema* schema, const RowBuffer* buffer)
      : schema_(schema), buffer_(buffer) {
    OVC_CHECK(buffer->width() == schema->total_columns());
  }

  void Open() override { pos_ = 0; }
  uint32_t NextBatch(RowBlock* out) override {
    // RowBuffer rows are contiguous and stable for the scan's lifetime:
    // serve them zero-copy (codes are all zero for an unsorted scan).
    return ServeRows(*buffer_, &pos_, out);
  }
  void Close() override {}
  const Schema& schema() const override { return *schema_; }
  bool sorted() const override { return false; }
  bool has_ovc() const override { return false; }

 private:
  const Schema* schema_;
  const RowBuffer* buffer_;
  size_t pos_ = 0;
};

/// Scans an InMemoryRun: sorted rows with their stored offset-value codes,
/// at zero comparison cost -- the in-memory analogue of an ordered storage
/// scan (Section 4.11). Supports rescans.
class RunScan : public Operator {
 public:
  /// `schema` and `run` must outlive the scan.
  RunScan(const Schema* schema, const InMemoryRun* run)
      : schema_(schema), run_(run) {
    OVC_CHECK(run->width() == schema->total_columns());
  }

  void Open() override { pos_ = 0; }
  uint32_t NextBatch(RowBlock* out) override {
    out->Clear();
    const size_t avail = run_->size() - pos_;
    const uint32_t n = static_cast<uint32_t>(
        avail < out->capacity() ? avail : out->capacity());
    if (n == 0) return 0;
    // Rows and codes are contiguous in the run and stable: serve the span
    // zero-copy. The stored codes are already relative to each row's
    // predecessor, so they carry over unchanged -- including the first row
    // of this block, whose predecessor was the last row of the previous
    // block.
    out->RefContiguous(run_->row(pos_), run_->codes() + pos_, n);
    pos_ += n;
    return n;
  }
  void Close() override {}
  const Schema& schema() const override { return *schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  const Schema* schema_;
  const InMemoryRun* run_;
  size_t pos_ = 0;
};

}  // namespace ovc

#endif  // OVC_EXEC_SCAN_H_
