// Instrumented key comparators.
//
// All column-value comparisons in the library flow through KeyComparator so
// that tests can assert the paper's N x K bound and benchmarks can report
// comparison counts. Comparisons respect per-column sort direction via
// normalized values (see row/schema.h).

#ifndef OVC_ROW_COMPARATOR_H_
#define OVC_ROW_COMPARATOR_H_

#include <cstdint>

#include "common/counters.h"
#include "row/schema.h"

namespace ovc {

/// Three-way comparator over the sort-key prefix of rows, counting every
/// column-value comparison it performs into a QueryCounters instance.
class KeyComparator {
 public:
  /// `schema` and `counters` must outlive the comparator. `counters` may be
  /// null (counting disabled).
  KeyComparator(const Schema* schema, QueryCounters* counters)
      : schema_(schema), counters_(counters) {}

  /// Three-way comparison of full sort keys: negative if a < b, zero if
  /// equal, positive if a > b (in normalized, i.e. requested, sort order).
  int Compare(const uint64_t* a, const uint64_t* b) const {
    if (counters_ != nullptr) ++counters_->row_comparisons;
    return CompareFrom(a, b, 0);
  }

  /// Three-way comparison starting at key column `start` (caller knows the
  /// first `start` columns are equal).
  ///
  /// The inspected-column count is accumulated locally and flushed once per
  /// call, so the hot loop carries no per-column instrumentation branch while
  /// the counts stay bit-exact with the per-column accounting the N x K
  /// tests assert.
  int CompareFrom(const uint64_t* a, const uint64_t* b, uint32_t start) const {
    const uint32_t arity = schema_->key_arity();
    int result = 0;
    uint32_t i = start;
    for (; i < arity; ++i) {
      if (a[i] != b[i]) {
        // Equality does not depend on direction: only the deciding column
        // is normalized.
        result = schema_->NormalizedAt(a, i) < schema_->NormalizedAt(b, i)
                     ? -1
                     : 1;
        ++i;  // the deciding column was inspected too
        break;
      }
    }
    if (counters_ != nullptr) counters_->column_comparisons += i - start;
    return result;
  }

  /// Returns the first key column index >= `start` where `a` and `b` differ,
  /// or key_arity() if the keys are equal from `start` on. Each inspected
  /// column counts as one column comparison (flushed once per call; see
  /// CompareFrom). Compares raw column words: whether two values differ
  /// does not depend on the column's sort direction.
  uint32_t FirstDifference(const uint64_t* a, const uint64_t* b,
                           uint32_t start) const {
    const uint32_t arity = schema_->key_arity();
    uint32_t i = start;
    for (; i < arity; ++i) {
      if (a[i] != b[i]) break;
    }
    if (counters_ != nullptr) {
      counters_->column_comparisons += (i < arity ? i + 1 : arity) - start;
    }
    return i;
  }

  /// True when the sort keys of `a` and `b` are equal.
  bool Equal(const uint64_t* a, const uint64_t* b) const {
    return Compare(a, b) == 0;
  }

  const Schema& schema() const { return *schema_; }
  QueryCounters* counters() const { return counters_; }

 private:
  const Schema* schema_;
  QueryCounters* counters_;
};

}  // namespace ovc

#endif  // OVC_ROW_COMPARATOR_H_
