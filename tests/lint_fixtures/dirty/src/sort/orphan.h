// Dirty fixture: a header that no other src/ or tools/ file includes is
// unreachable (OVC-L010).
#ifndef OVC_SORT_ORPHAN_H_
#define OVC_SORT_ORPHAN_H_

namespace demo {
inline int Unused() { return 0; }
}  // namespace demo

#endif  // OVC_SORT_ORPHAN_H_
