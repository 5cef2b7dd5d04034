#include "sort/segmented_sort.h"

namespace ovc {

namespace {

// Builds the schema of the segment suffix: key columns past the
// segmentation prefix keep their directions; payload columns carry over.
Schema MakeSuffixSchema(const Schema& schema, uint32_t segment_prefix) {
  std::vector<SortDirection> dirs;
  for (uint32_t c = segment_prefix; c < schema.key_arity(); ++c) {
    dirs.push_back(schema.direction(c));
  }
  return Schema(std::move(dirs), schema.payload_columns());
}

}  // namespace

SegmentedSorter::SegmentedSorter(const Schema* schema, uint32_t segment_prefix,
                                 QueryCounters* counters)
    : schema_(schema),
      segment_prefix_(segment_prefix),
      codec_(schema),
      suffix_schema_(MakeSuffixSchema(*schema, segment_prefix)),
      suffix_codec_(&suffix_schema_),
      suffix_comparator_(&suffix_schema_, counters),
      segment_(schema->total_columns()),
      pending_(schema->total_columns()) {
  OVC_CHECK(segment_prefix >= 1);
  OVC_CHECK(segment_prefix < schema->key_arity());
  sorter_ = std::make_unique<PqSorter>(&suffix_codec_, &suffix_comparator_);
}

void SegmentedSorter::SetInput(InMemoryRunSource* input) { input_ = input; }

bool SegmentedSorter::LoadSegment() {
  segment_.Clear();
  shifted_.clear();

  const uint64_t* row = nullptr;
  Ovc code = 0;
  if (!started_) {
    started_ = true;
    if (!input_->Next(&row, &code)) {
      input_done_ = true;
      return false;
    }
    boundary_code_ = code;
    segment_.AppendRow(row);
  } else if (has_pending_) {
    boundary_code_ = pending_code_;
    segment_.AppendRow(pending_.row(0));
    has_pending_ = false;
  } else {
    return false;  // input exhausted
  }

  // Accumulate rows until the next segment boundary: an offset within the
  // segmentation prefix -- detected from the code alone, no comparisons.
  while (true) {
    if (!input_->Next(&row, &code)) {
      input_done_ = true;
      break;
    }
    if (codec_.IsBoundary(code, segment_prefix_)) {
      pending_.Clear();
      pending_.AppendRow(row);
      pending_code_ = code;
      has_pending_ = true;
      break;
    }
    segment_.AppendRow(row);
  }

  // Sort the segment on the key suffix via shifted row pointers: column i of
  // the suffix view is column segment_prefix + i of the real row.
  shifted_.reserve(segment_.size());
  for (size_t i = 0; i < segment_.size(); ++i) {
    shifted_.push_back(segment_.row(i) + segment_prefix_);
  }
  sorter_->Reset(shifted_.data(), static_cast<uint32_t>(shifted_.size()));
  first_of_segment_ = true;
  ++segments_;
  return true;
}

bool SegmentedSorter::Next(RowRef* out) {
  OVC_CHECK(input_ != nullptr);
  RowRef suffix_ref;
  while (true) {
    if (segment_.empty() || !sorter_->Next(&suffix_ref)) {
      if (!LoadSegment()) return false;
      continue;
    }
    break;
  }

  // Un-shift the row pointer back to the full row.
  out->cols = suffix_ref.cols - segment_prefix_;
  if (first_of_segment_) {
    // Valid for any row of the segment: the boundary offset lies within the
    // segmentation prefix, where all segment rows agree.
    out->ovc = boundary_code_;
    first_of_segment_ = false;
  } else {
    // Lift the suffix code into full-key coordinates.
    const uint32_t suffix_offset = suffix_codec_.OffsetOf(suffix_ref.ovc);
    out->ovc = codec_.Make(segment_prefix_ + suffix_offset,
                           OvcCodec::ValueOf(suffix_ref.ovc));
  }
  return true;
}

}  // namespace ovc
