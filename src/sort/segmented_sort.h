// Segmented sorting (Section 4.3).
//
// A stream sorted on (A, B) but needed sorted on (A, C) does not require a
// full re-sort: segment the stream on distinct values of A and sort each
// segment only on C. With offset-value codes, *detecting the segment
// boundaries requires no column value comparisons at all*: a code whose
// offset is smaller than the segmentation prefix marks a boundary.
//
// Output codes: the first output row of each segment reuses the boundary
// row's input code -- its offset lies within the segmentation prefix, where
// all rows of a segment agree, so it is valid for whichever row the
// segment-local sort emits first. Every other row's code comes from the
// segment-local tournament, with its offset shifted up by the segmentation
// prefix. No comparisons beyond those of the segment-local sort are spent.

// ovclint-disable-file OVC-L010 -- ROADMAP.md item 1 gives it a path in

#ifndef OVC_SORT_SEGMENTED_SORT_H_
#define OVC_SORT_SEGMENTED_SORT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/counters.h"
#include "core/ovc.h"
#include "core/row_ref.h"
#include "pq/loser_tree.h"
#include "row/row_buffer.h"
#include "sort/run.h"

namespace ovc {

/// Re-sorts a stream segment by segment.
///
/// The input must be sorted on (and carry codes for) at least the first
/// `segment_prefix` key columns of `schema`; the output is sorted on the
/// full key of `schema` and carries correct codes. Segments are buffered in
/// memory one at a time ("segments ... can be processed one at a time").
class SegmentedSorter {
 public:
  /// `schema` describes the *output* order; the first `segment_prefix` key
  /// columns are the segmentation key shared with the input order.
  /// Requires 1 <= segment_prefix < key_arity.
  SegmentedSorter(const Schema* schema, uint32_t segment_prefix,
                  QueryCounters* counters);

  /// `input` yields rows with codes valid for the segmentation prefix.
  void SetInput(InMemoryRunSource* input);

  /// Next output row in (A, C) order with its code.
  bool Next(RowRef* out);

  /// Number of segments processed so far.
  uint64_t segments() const { return segments_; }

 private:
  bool LoadSegment();

  const Schema* schema_;
  uint32_t segment_prefix_;
  OvcCodec codec_;
  Schema suffix_schema_;
  OvcCodec suffix_codec_;
  KeyComparator suffix_comparator_;
  InMemoryRunSource* input_ = nullptr;

  RowBuffer segment_;
  std::vector<const uint64_t*> shifted_;  // segment rows, +segment_prefix
  std::unique_ptr<PqSorter> sorter_;
  Ovc boundary_code_ = 0;
  bool first_of_segment_ = false;

  RowBuffer pending_;  // first row of the next segment (lookahead)
  Ovc pending_code_ = 0;
  bool has_pending_ = false;
  bool input_done_ = false;
  bool started_ = false;
  uint64_t segments_ = 0;
};

}  // namespace ovc

#endif  // OVC_SORT_SEGMENTED_SORT_H_
