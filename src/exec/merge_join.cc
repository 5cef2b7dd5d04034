#include "exec/merge_join.h"

#include <cstring>

namespace ovc {

const char* JoinTypeName(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return "inner";
    case JoinType::kLeftOuter:
      return "left outer";
    case JoinType::kRightOuter:
      return "right outer";
    case JoinType::kFullOuter:
      return "full outer";
    case JoinType::kLeftSemi:
      return "left semi";
    case JoinType::kLeftAnti:
      return "left anti";
    case JoinType::kRightSemi:
      return "right semi";
    case JoinType::kRightAnti:
      return "right anti";
  }
  return "unknown";
}

Schema MergeJoin::MakeOutputSchema(const Schema& left, const Schema& right,
                                   JoinType type) {
  switch (type) {
    case JoinType::kLeftSemi:
    case JoinType::kLeftAnti:
      return left;
    case JoinType::kRightSemi:
    case JoinType::kRightAnti:
      return right;
    default: {
      std::vector<SortDirection> dirs;
      for (uint32_t c = 0; c < left.key_arity(); ++c) {
        dirs.push_back(left.direction(c));
      }
      // Join key, left payloads, right payloads, match indicator.
      return Schema(std::move(dirs), left.payload_columns() +
                                         right.payload_columns() + 1);
    }
  }
}

MergeJoin::MergeJoin(Operator* left, Operator* right, JoinType type,
                     QueryCounters* counters)
    : left_(left),
      right_(right),
      type_(type),
      output_schema_(MakeOutputSchema(left->schema(), right->schema(), type)),
      key_codec_(&left->schema()),
      out_codec_(&output_schema_),
      comparator_(&left->schema(), counters),
      counters_(counters),
      right_group_(right->schema().total_columns()),
      left_row_copy_(left->schema().total_columns()) {
  OVC_CHECK(left->sorted() && left->has_ovc());
  OVC_CHECK(right->sorted() && right->has_ovc());
  // Join keys: both inputs sorted on the same key layout.
  OVC_CHECK(left->schema().key_arity() == right->schema().key_arity());
  for (uint32_t c = 0; c < left->schema().key_arity(); ++c) {
    OVC_CHECK(left->schema().direction(c) == right->schema().direction(c));
  }
}

void MergeJoin::Open() {
  left_.Open();
  right_.Open();
  AdvanceLeft();
  AdvanceRight();
  acc_.Reset();
  state_ = State::kCompare;
}

void MergeJoin::Close() {
  left_.Close();
  right_.Close();
}

void MergeJoin::AdvanceLeft() {
  l_valid_ = left_.Next(&lref_);
  if (!l_valid_) {
    lref_.cols = nullptr;
    lref_.ovc = OvcCodec::LateFence();
  }
}

void MergeJoin::AdvanceRight() {
  r_valid_ = right_.Next(&rref_);
  if (!r_valid_) {
    rref_.cols = nullptr;
    rref_.ovc = OvcCodec::LateFence();
  }
}

void MergeJoin::BufferRightGroup() {
  right_group_.Clear();
  right_group_.AppendRow(rref_.cols);
  while (true) {
    AdvanceRight();
    if (!r_valid_ || !key_codec_.IsDuplicate(rref_.ovc)) break;
    right_group_.AppendRow(rref_.cols);
  }
}

void MergeJoin::SkipLeftGroup() {
  do {
    AdvanceLeft();
  } while (l_valid_ && key_codec_.IsDuplicate(lref_.ovc));
}

void MergeJoin::SkipRightGroup() {
  do {
    AdvanceRight();
  } while (r_valid_ && key_codec_.IsDuplicate(rref_.ovc));
}

void MergeJoin::EmitCombined(const uint64_t* left_row,
                             const uint64_t* right_row, Ovc code,
                             RowBlock* out) {
  const Schema& ls = left_.schema();
  const Schema& rs = right_.schema();
  const uint32_t arity = ls.key_arity();
  uint64_t* dst = out->AppendRow(code);
  // Coalesced join key (the paper's virtual column for outer joins).
  std::memcpy(dst, left_row != nullptr ? left_row : right_row,
              arity * sizeof(uint64_t));
  uint64_t indicator = 0;
  if (left_row != nullptr) {
    std::memcpy(dst + arity, left_row + arity,
                ls.payload_columns() * sizeof(uint64_t));
    indicator |= 1;
  } else {
    std::memset(dst + arity, 0, ls.payload_columns() * sizeof(uint64_t));
  }
  if (right_row != nullptr) {
    std::memcpy(dst + arity + ls.payload_columns(), right_row + arity,
                rs.payload_columns() * sizeof(uint64_t));
    indicator |= 2;
  } else {
    std::memset(dst + arity + ls.payload_columns(), 0,
                rs.payload_columns() * sizeof(uint64_t));
  }
  dst[arity + ls.payload_columns() + rs.payload_columns()] = indicator;
}

uint32_t MergeJoin::NextBatch(RowBlock* out) {
  return FillBlock(out, [this](RowBlock* block) { return AppendNext(block); });
}

bool MergeJoin::AppendNext(RowBlock* out) {
  CodeComparisonTally tally(counters_);
  while (true) {
    switch (state_) {
      case State::kDone:
        return false;

      case State::kCompare: {
        if (!l_valid_ && !r_valid_) {
          state_ = State::kDone;
          return false;
        }
        // The merge comparison: fences stand in for exhausted inputs, and
        // the loser's code is re-based onto the winner per the corollaries.
        const int cmp =
            CompareWithOvc(key_codec_, comparator_, lref_.cols, &lref_.ovc,
                           rref_.cols, &rref_.ovc, tally.count());
        if (cmp < 0) {
          // Left key without right match.
          if (WantLeftOnly()) {
            const Ovc code = acc_.Combine(lref_.ovc);
            acc_.Reset();
            if (IsPassthrough()) {
              out->Append(lref_.cols, code);
            } else {
              EmitCombined(lref_.cols, nullptr, code, out);
            }
            AdvanceLeft();
            return true;
          }
          acc_.Absorb(lref_.ovc);
          AdvanceLeft();
          continue;
        }
        if (cmp > 0) {
          // Right key without left match.
          if (WantRightOnly()) {
            const Ovc code = acc_.Combine(rref_.ovc);
            acc_.Reset();
            if (IsPassthrough()) {
              out->Append(rref_.cols, code);
            } else {
              EmitCombined(nullptr, rref_.cols, code, out);
            }
            AdvanceRight();
            return true;
          }
          acc_.Absorb(rref_.ovc);
          AdvanceRight();
          continue;
        }
        // Equal keys: a matched key group. Both sides' codes are equal
        // (same key, same base), so either serves as the group's code.
        if (!WantMatches()) {
          acc_.Absorb(lref_.ovc);
          SkipLeftGroup();
          SkipRightGroup();
          continue;
        }
        group_code_ = acc_.Combine(lref_.ovc);
        acc_.Reset();
        group_first_pending_ = true;
        if (type_ == JoinType::kLeftSemi) {
          // Keep left rows; right group only needs skipping.
          SkipRightGroup();
          left_row_copy_.Clear();
          left_row_copy_.AppendRow(lref_.cols);
          right_idx_ = 0;
          state_ = State::kCrossEmit;  // degenerate cross: right side unused
          continue;
        }
        if (type_ == JoinType::kRightSemi) {
          BufferRightGroup();
          SkipLeftGroup();
          right_idx_ = 0;
          state_ = State::kRightGroupEmit;
          continue;
        }
        // Inner / outer joins: buffer the right group, stream left rows.
        BufferRightGroup();
        left_row_copy_.Clear();
        left_row_copy_.AppendRow(lref_.cols);
        right_idx_ = 0;
        state_ = State::kCrossEmit;
        continue;
      }

      case State::kCrossEmit: {
        if (type_ == JoinType::kLeftSemi) {
          // One output per left row of the group.
          const Ovc code = group_first_pending_ ? group_code_
                                                : out_codec_.DuplicateCode();
          group_first_pending_ = false;
          out->Append(left_row_copy_.row(0), code);
          AdvanceLeft();
          if (l_valid_ && key_codec_.IsDuplicate(lref_.ovc)) {
            left_row_copy_.Clear();
            left_row_copy_.AppendRow(lref_.cols);
          } else {
            state_ = State::kCompare;
          }
          return true;
        }
        if (right_idx_ < right_group_.size()) {
          const Ovc code = group_first_pending_ ? group_code_
                                                : out_codec_.DuplicateCode();
          group_first_pending_ = false;
          EmitCombined(left_row_copy_.row(0), right_group_.row(right_idx_),
                       code, out);
          ++right_idx_;
          return true;
        }
        // Finished this left row; more duplicates on the left?
        AdvanceLeft();
        if (l_valid_ && key_codec_.IsDuplicate(lref_.ovc)) {
          left_row_copy_.Clear();
          left_row_copy_.AppendRow(lref_.cols);
          right_idx_ = 0;
          continue;
        }
        state_ = State::kCompare;
        continue;
      }

      case State::kRightGroupEmit: {
        if (right_idx_ >= right_group_.size()) {
          state_ = State::kCompare;
          continue;
        }
        const Ovc code = group_first_pending_ ? group_code_
                                              : out_codec_.DuplicateCode();
        group_first_pending_ = false;
        out->Append(right_group_.row(right_idx_), code);
        ++right_idx_;
        return true;
      }
    }
  }
}

}  // namespace ovc
