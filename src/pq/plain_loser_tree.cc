#include "pq/plain_loser_tree.h"

#include "common/bits.h"

namespace ovc {

PlainPqSorter::PlainPqSorter(const OvcCodec* codec,
                             const KeyComparator* comparator)
    : codec_(codec), comparator_(comparator) {}

void PlainPqSorter::Reset(const uint64_t* const* rows, uint32_t count) {
  rows_ = rows;
  count_ = count;
  capacity_ = CeilToPowerOfTwo(count == 0 ? 1 : count);
  nodes_.assign(capacity_, Entry{0, true});
  started_ = false;
  winner_ = Entry{0, true};
}

PlainPqSorter::Entry PlainPqSorter::PlayMatch(uint32_t node, Entry a,
                                              Entry b) {
  // Padding slots lie past the end of rows_: read a row only when live.
  const bool a_wins = PlainLeftWins(
      *comparator_, a.exhausted ? nullptr : rows_[a.slot], a.slot,
      a.exhausted, b.exhausted ? nullptr : rows_[b.slot], b.slot, b.exhausted);
  nodes_[node] = a_wins ? b : a;
  return a_wins ? a : b;
}

PlainPqSorter::Entry PlainPqSorter::BuildWinner(uint32_t node) {
  if (node >= capacity_) {
    const uint32_t slot = node - capacity_;
    return Entry{slot, slot >= count_};
  }
  Entry a = BuildWinner(2 * node);
  Entry b = BuildWinner(2 * node + 1);
  return PlayMatch(node, a, b);
}

bool PlainPqSorter::Next(RowRef* out) {
  if (!started_) {
    started_ = true;
    if (count_ == 0) return false;
    if (capacity_ == 1) {
      winner_ = Entry{0, false};
    } else {
      winner_ = BuildWinner(1);
    }
  } else {
    Entry cand{winner_.slot, true};
    uint32_t node = (capacity_ + winner_.slot) >> 1;
    while (node >= 1) {
      cand = PlayMatch(node, cand, nodes_[node]);
      node >>= 1;
    }
    winner_ = cand;
  }
  if (winner_.exhausted) {
    return false;
  }
  out->cols = rows_[winner_.slot];
  out->ovc = 0;
  return true;
}

}  // namespace ovc
