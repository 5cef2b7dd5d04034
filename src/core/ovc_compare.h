// The central comparison primitive: compare two keys that are coded relative
// to the same base, updating the loser's code relative to the winner.
//
// This implements both of Iyer's corollaries from Section 4 of the paper:
//
//  * Unequal-code theorem: if the codes (relative to the shared base) decide
//    the comparison, the loser's code relative to the winner equals its old
//    code -- nothing to recompute.
//  * Equal-code theorem: if the codes are equal, the keys' first difference
//    lies past the shared prefix and value; column-value comparisons resume
//    there, and the loser's new code is (first-difference index, loser's
//    value at that index).
//
// The kernel is header-only so that every tournament and merge loop
// (PqSorter, OvcMergerT, ReplacementSelection, MergeJoin, SetOperation)
// compiles it into its own inner loop. Code comparisons are counted in a
// caller-owned local and flushed into QueryCounters once per pop or output
// row (CodeComparisonTally); column comparisons are counted by the
// comparator, once per call.

#ifndef OVC_CORE_OVC_COMPARE_H_
#define OVC_CORE_OVC_COMPARE_H_

#include <cstdint>

#include "common/counters.h"
#include "core/ovc.h"
#include "row/comparator.h"

namespace ovc {

/// Counts code comparisons in a local and adds them to `counters` (may be
/// null) once, when the tally goes out of scope. A loop declares one per
/// pop or output row and hands `count()` to every CompareWithOvc it plays,
/// so the matches themselves never touch QueryCounters.
class CodeComparisonTally {
 public:
  explicit CodeComparisonTally(QueryCounters* counters)
      : counters_(counters) {}
  ~CodeComparisonTally() {
    if (counters_ != nullptr) counters_->code_comparisons += count_;
  }
  CodeComparisonTally(const CodeComparisonTally&) = delete;
  CodeComparisonTally& operator=(const CodeComparisonTally&) = delete;

  uint64_t* count() { return &count_; }

 private:
  QueryCounters* counters_;
  uint64_t count_ = 0;
};

/// Compares the sort keys of `left` and `right`, both of whose codes are
/// relative to the same base key that sorts no later than either, and adds
/// one to `*code_comparisons`.
///
/// Returns <0 when left sorts earlier, >0 when right sorts earlier, 0 when
/// the keys are equal. On a decided comparison (non-zero result) the
/// *loser's* code is updated in place to be relative to the winner; the
/// winner's code is never touched. On equality neither code is changed --
/// the caller decides which row to emit first (e.g. by input index, for a
/// stable merge) and gives the other the duplicate code.
///
/// Fences participate: an early fence sorts before everything, a late fence
/// after everything, and no column comparisons are spent on them.
inline int CompareWithOvc(const OvcCodec& codec,
                          const KeyComparator& comparator,
                          const uint64_t* left_row, Ovc* left_code,
                          const uint64_t* right_row, Ovc* right_code,
                          uint64_t* code_comparisons) {
  ++*code_comparisons;

  const Ovc lc = *left_code;
  const Ovc rc = *right_code;
  if (lc != rc) {
    // Unequal-code theorem: the codes decide, and the loser's code relative
    // to the winner is unchanged. A smaller ascending code sorts earlier.
    return lc < rc ? -1 : 1;
  }

  if (!OvcCodec::IsValid(lc)) {
    // Two equal fences; no key data to compare. Callers treat this as a tie
    // broken by input index (it only happens between exhausted inputs).
    return 0;
  }

  // Equal-code theorem: both keys share prefix and value with the base;
  // column comparisons resume past them (or at the offset itself when the
  // 48-bit value image saturated and may hide a difference).
  const uint32_t resume = codec.ResumeColumn(lc);
  const uint32_t arity = codec.arity();
  if (resume >= arity) {
    // Both rows are full-key duplicates of the base, hence of each other.
    return 0;
  }

  const uint32_t diff = comparator.FirstDifference(left_row, right_row, resume);
  if (diff == arity) {
    // Keys are equal; the caller assigns the duplicate code to whichever row
    // it emits second.
    return 0;
  }

  // Only the deciding column needs its sort direction applied.
  const Schema& schema = codec.schema();
  const uint64_t lv = schema.NormalizedAt(left_row, diff);
  const uint64_t rv = schema.NormalizedAt(right_row, diff);
  OVC_DCHECK(lv != rv);
  if (lv < rv) {
    // Left wins; right is the loser and is re-coded relative to left.
    *right_code = codec.Make(diff, rv);
    return -1;
  }
  *left_code = codec.Make(diff, lv);
  return 1;
}

}  // namespace ovc

#endif  // OVC_CORE_OVC_COMPARE_H_
