#include "exec/set_operation.h"

#include <algorithm>

namespace ovc {

SetOperation::SetOperation(Operator* left, Operator* right, SetOpType type,
                           bool all, QueryCounters* counters)
    : left_(left),
      right_(right),
      type_(type),
      all_(all),
      codec_(&left->schema()),
      comparator_(&left->schema(), counters),
      group_row_(left->schema().total_columns()) {
  OVC_CHECK(left->sorted() && left->has_ovc());
  OVC_CHECK(right->sorted() && right->has_ovc());
  OVC_CHECK(left->schema() == right->schema());
  OVC_CHECK(left->schema().payload_columns() == 0);
}

void SetOperation::Open() {
  left_.Open();
  right_.Open();
  AdvanceLeft();
  AdvanceRight();
  acc_.Reset();
  pending_copies_ = 0;
}

void SetOperation::Close() {
  left_.Close();
  right_.Close();
}

void SetOperation::AdvanceLeft() {
  l_valid_ = left_.Next(&lref_);
  if (!l_valid_) {
    lref_.cols = nullptr;
    lref_.ovc = OvcCodec::LateFence();
  }
}

void SetOperation::AdvanceRight() {
  r_valid_ = right_.Next(&rref_);
  if (!r_valid_) {
    rref_.cols = nullptr;
    rref_.ovc = OvcCodec::LateFence();
  }
}

uint64_t SetOperation::CountLeftGroup() {
  uint64_t n = 1;
  do {
    AdvanceLeft();
    if (l_valid_ && codec_.IsDuplicate(lref_.ovc)) {
      ++n;
    } else {
      break;
    }
  } while (true);
  return n;
}

uint64_t SetOperation::CountRightGroup() {
  uint64_t n = 1;
  do {
    AdvanceRight();
    if (r_valid_ && codec_.IsDuplicate(rref_.ovc)) {
      ++n;
    } else {
      break;
    }
  } while (true);
  return n;
}

uint64_t SetOperation::CopiesFor(uint64_t nl, uint64_t nr) const {
  switch (type_) {
    case SetOpType::kIntersect:
      if (all_) return std::min(nl, nr);
      return (nl > 0 && nr > 0) ? 1 : 0;
    case SetOpType::kExcept:
      if (all_) return nl > nr ? nl - nr : 0;
      return (nl > 0 && nr == 0) ? 1 : 0;
    case SetOpType::kUnion:
      if (all_) return nl + nr;
      return (nl + nr > 0) ? 1 : 0;
  }
  return 0;
}

uint32_t SetOperation::NextBatch(RowBlock* out) {
  return FillBlock(out, [this](RowBlock* block) { return AppendNext(block); });
}

bool SetOperation::AppendNext(RowBlock* out) {
  CodeComparisonTally tally(comparator_.counters());
  while (true) {
    if (pending_copies_ > 0) {
      --pending_copies_;
      out->Append(group_row_.row(0),
                  first_copy_pending_ ? group_code_ : codec_.DuplicateCode());
      first_copy_pending_ = false;
      return true;
    }

    if (!l_valid_ && !r_valid_) {
      return false;
    }

    const int cmp = CompareWithOvc(codec_, comparator_, lref_.cols, &lref_.ovc,
                                   rref_.cols, &rref_.ovc, tally.count());
    uint64_t nl = 0, nr = 0;
    Ovc key_code;
    if (cmp < 0) {
      group_row_.Clear();
      group_row_.AppendRow(lref_.cols);
      key_code = lref_.ovc;
      nl = CountLeftGroup();
    } else if (cmp > 0) {
      group_row_.Clear();
      group_row_.AppendRow(rref_.cols);
      key_code = rref_.ovc;
      nr = CountRightGroup();
    } else {
      group_row_.Clear();
      group_row_.AppendRow(lref_.cols);
      key_code = lref_.ovc;  // equal keys relative to the same base: codes
                             // are equal on both sides
      nl = CountLeftGroup();
      nr = CountRightGroup();
    }

    const uint64_t copies = CopiesFor(nl, nr);
    if (copies == 0) {
      acc_.Absorb(key_code);
      continue;
    }
    group_code_ = acc_.Combine(key_code);
    acc_.Reset();
    pending_copies_ = copies;
    first_copy_pending_ = true;
  }
}

}  // namespace ovc
