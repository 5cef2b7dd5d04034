#include "sort/group_collapse.h"

#include <algorithm>
#include <cstring>

namespace ovc {

void MergeStateRow(const Schema& schema, const std::vector<StateMergeFn>& fns,
                   const uint64_t* src, uint64_t* dst) {
  const uint32_t arity = schema.key_arity();
  for (uint32_t p = 0; p < schema.payload_columns(); ++p) {
    uint64_t& acc = dst[arity + p];
    const uint64_t v = src[arity + p];
    switch (fns[p]) {
      case StateMergeFn::kSum:
        acc += v;
        break;
      case StateMergeFn::kMin:
        acc = std::min(acc, v);
        break;
      case StateMergeFn::kMax:
        acc = std::max(acc, v);
        break;
    }
  }
}

CollapsingSink::CollapsingSink(const Schema* schema,
                               std::vector<StateMergeFn> fns, RunSink* inner)
    : schema_(schema),
      codec_(schema),
      fns_(std::move(fns)),
      inner_(inner),
      pending_(schema->total_columns(), 0) {
  OVC_CHECK(fns_.size() == schema->payload_columns());
}

void CollapsingSink::Accept(const uint64_t* row, Ovc code) {
  if (has_pending_ && codec_.IsDuplicate(code)) {
    // Same group as the pending row: fold, detected from the code alone.
    MergeStateRow(*schema_, fns_, row, pending_.data());
    return;
  }
  if (has_pending_) {
    inner_->Accept(pending_.data(), pending_code_);
    ++groups_;
  }
  std::memcpy(pending_.data(), row,
              schema_->total_columns() * sizeof(uint64_t));
  pending_code_ = code;
  has_pending_ = true;
}

void CollapsingSink::Flush() {
  if (has_pending_) {
    inner_->Accept(pending_.data(), pending_code_);
    ++groups_;
    has_pending_ = false;
  }
}

}  // namespace ovc
