// Group collapsing for in-sort aggregation (the paper's Figure 5 plan uses
// "in-sort aggregation operators for duplicate removal"; see also Do,
// Graefe & Naughton, "Efficient sorting, duplicate removal, grouping, and
// aggregation", cited as [10]).
//
// A collapser consumes a sorted, coded stream of *aggregation-state* rows
// (group key columns followed by mergeable accumulator columns) and folds
// each run of key-duplicates -- recognized by their duplicate codes, no
// comparisons -- into a single row. Applying a collapser at every stage of
// an external sort (run generation, intermediate merges, final merge)
// implements early aggregation: spilled runs hold at most one row per
// distinct group, which is how the sort-based plan of Figure 5 gets away
// with two blocking operators and minimal spill volume.
//
// Output codes: a collapsed group keeps its first row's code. By the filter
// theorem this is exact -- the dropped rows carry duplicate codes, the
// smallest valid codes, so the running max is the first row's own code.

#ifndef OVC_SORT_GROUP_COLLAPSE_H_
#define OVC_SORT_GROUP_COLLAPSE_H_

#include <vector>

#include "core/ovc.h"
#include "row/schema.h"
#include "sort/run_generation.h"

namespace ovc {

/// How to merge one accumulator column of two state rows for the same
/// group. Counts merge by summation, so there is no kCount here: an
/// input row's count contribution is materialized as the constant 1 and
/// merged with kSum.
enum class StateMergeFn { kSum, kMin, kMax };

/// Merges the payload (accumulator) columns of `src` into `dst` for rows of
/// `schema` whose keys are equal. `fns` has one entry per payload column.
void MergeStateRow(const Schema& schema, const std::vector<StateMergeFn>& fns,
                   const uint64_t* src, uint64_t* dst);

/// RunSink decorator: collapses key-duplicate state rows before forwarding
/// to the wrapped sink. Flush() must be called after the last Accept().
class CollapsingSink : public RunSink {
 public:
  /// `schema` describes state rows; `fns` one merger per payload column.
  CollapsingSink(const Schema* schema, std::vector<StateMergeFn> fns,
                 RunSink* inner);

  void Accept(const uint64_t* row, Ovc code) override;

  /// Emits the pending group; call after the stream ends (a second call
  /// emits nothing).
  void Flush();

  /// Groups emitted so far.
  uint64_t groups() const { return groups_; }

 private:
  const Schema* schema_;
  OvcCodec codec_;
  std::vector<StateMergeFn> fns_;
  RunSink* inner_;
  std::vector<uint64_t> pending_;
  Ovc pending_code_ = 0;
  bool has_pending_ = false;
  uint64_t groups_ = 0;
};

/// Feeds the sorted, coded stream that `emit` writes into the RunSink it is
/// given to `sink`: through a CollapsingSink when `fns` is set, directly
/// otherwise. The one place a run step chooses between sorting and
/// sorting with collapse.
template <typename Emit>
void EmitMaybeCollapsed(const Schema* schema,
                        const std::vector<StateMergeFn>* fns, RunSink* sink,
                        Emit emit) {
  if (fns == nullptr) {
    emit(sink);
    return;
  }
  CollapsingSink collapser(schema, *fns, sink);
  emit(&collapser);
  collapser.Flush();
}

}  // namespace ovc

#endif  // OVC_SORT_GROUP_COLLAPSE_H_
