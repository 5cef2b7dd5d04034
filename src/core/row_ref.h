// RowRef: the unit of data flow between operators.

#ifndef OVC_CORE_ROW_REF_H_
#define OVC_CORE_ROW_REF_H_

#include <cstdint>

#include "core/ovc.h"

namespace ovc {

/// A non-owning view of one row together with its ascending offset-value
/// code relative to the stream's previous row (the stream's first row is
/// coded relative to "minus infinity", i.e. offset 0).
///
/// The pointed-to columns remain valid until the producer's next pull (for
/// an operator's stream read through a BlockReader: until the Next() call
/// that refills the reader's block), mirroring the classic Volcano
/// contract.
struct RowRef {
  const uint64_t* cols = nullptr;
  Ovc ovc = 0;
};

}  // namespace ovc

#endif  // OVC_CORE_ROW_REF_H_
