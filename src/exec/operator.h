// Operator framework: Volcano-style iterators that pull blocks of rows
// carrying offset-value codes.
//
// Every operator produces a stream of rows, delivered in RowBlocks through
// its one pull method, NextBatch(). For order-preserving operators the
// contract is:
//   * rows come out sorted on the operator's output schema key prefix, and
//   * each row's code is its ascending offset-value code relative to the
//     previous output row (offset 0 for the first row), across block
//     boundaries as within a block (row/row_block.h),
// which is exactly the contract OvcStreamChecker verifies and the next
// operator in the pipeline consumes (Section 4's central theme: operators
// must not only exploit but also *produce* offset-value codes).
//
// Unordered operators (hash baselines, plain scans) set sorted()/has_ovc()
// to false and emit codes of 0.
//
// Operators whose logic is row by row (joins, set operations, aggregates)
// consume their inputs through a BlockReader and produce their output with
// FillBlock; both are non-virtual, so the only virtual call per block is
// the one NextBatch() that refills it.

#ifndef OVC_EXEC_OPERATOR_H_
#define OVC_EXEC_OPERATOR_H_

#include <cstdint>
#include <memory>

#include "core/ovc.h"
#include "core/row_ref.h"
#include "row/row_block.h"
#include "row/row_buffer.h"
#include "row/schema.h"

namespace ovc {

/// Base class for all execution operators.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the operator (and its inputs) for NextBatch() calls.
  virtual void Open() = 0;

  /// Clears `out`, fills it with up to out->capacity() rows of the stream,
  /// and returns the number of rows produced. A return of 0 means end of
  /// stream; short (non-full) blocks mid-stream are allowed. The first row
  /// of a block is coded relative to the last row of the previous block,
  /// so the concatenation of blocks is the stream (see row/row_block.h).
  /// Block contents stay valid until the following NextBatch()/Close()
  /// call on this operator -- and no longer: a queue-fed MergeExchange
  /// frees a producer batch as soon as it pulls the next one. A consumer
  /// that needs a row beyond its next pull must copy it first.
  virtual uint32_t NextBatch(RowBlock* out) = 0;

  /// Releases resources; the operator may be Open()ed again afterwards
  /// where the concrete class documents support for rescans.
  virtual void Close() = 0;

  /// Output row layout.
  virtual const Schema& schema() const = 0;

  /// True when the output is sorted on the schema's key prefix.
  virtual bool sorted() const = 0;

  /// True when output rows carry valid offset-value codes.
  virtual bool has_ovc() const = 0;
};

/// Serves a block from a per-row producer step: clears `out`, then calls
/// `step(out)` until the block is full or the step returns false (end of
/// stream). A step that returns true has appended exactly one row.
template <typename Step>
uint32_t FillBlock(RowBlock* out, Step&& step) {
  out->Clear();
  while (!out->full() && step(out)) {
  }
  return out->size();
}

/// Serves the rows of `rows` from `*pos` on, as many as `out` holds,
/// zero-copy with zero codes (an unordered stream over stable storage), and
/// advances `*pos` past them. Returns the number served; 0 at the end.
inline uint32_t ServeRows(const RowBuffer& rows, size_t* pos, RowBlock* out) {
  out->Clear();
  const size_t avail = rows.size() - *pos;
  const uint32_t n = static_cast<uint32_t>(
      avail < out->capacity() ? avail : out->capacity());
  if (n == 0) return 0;
  out->RefContiguous(rows.row(*pos), nullptr, n);
  *pos += n;
  return n;
}

/// Reads an operator's stream one row at a time: holds one
/// RowBlock::kDefaultRows block, refilled through the input's NextBatch(),
/// from Open() to Close() -- so a plan kept between executions (a prepared
/// statement) holds no block. A row stays valid until the Next() call that
/// refills the block, so -- exactly as for the input's blocks -- a consumer
/// that keeps a row past its next pull must copy it. Also serves as the
/// merge input (a `Source` of OvcMergerT) through which the mergers pull
/// operator streams.
class BlockReader {
 public:
  /// `input` must outlive the reader.
  explicit BlockReader(Operator* input) : input_(input) {}

  /// Opens the input and forgets any rows of a previous pass.
  void Open() {
    input_->Open();
    if (block_ == nullptr) {
      block_ = std::make_unique<RowBlock>(input_->schema().total_columns());
    }
    block_->Clear();
    pos_ = 0;
    done_ = false;
  }

  void Close() {
    input_->Close();
    block_.reset();
  }

  /// The next row of the stream; false at end of stream.
  bool Next(RowRef* out) { return Next(&out->cols, &out->ovc); }

  bool Next(const uint64_t** row, Ovc* code) {
    OVC_DCHECK(block_ != nullptr);
    if (pos_ == block_->size()) {
      if (done_) return false;
      pos_ = 0;
      if (input_->NextBatch(block_.get()) == 0) {
        done_ = true;
        return false;
      }
    }
    *row = block_->row(pos_);
    *code = block_->code(pos_);
    ++pos_;
    return true;
  }

  Operator* input() const { return input_; }
  const Schema& schema() const { return input_->schema(); }

 private:
  Operator* input_;
  std::unique_ptr<RowBlock> block_;
  uint32_t pos_ = 0;
  bool done_ = false;
};

/// Convenience: drains `op` (Open/NextBatch/Close) and returns the row
/// count.
uint64_t DrainAndCount(Operator* op);

}  // namespace ovc

#endif  // OVC_EXEC_OPERATOR_H_
