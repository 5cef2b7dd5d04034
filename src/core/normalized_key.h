// Offset-value coding over normalized keys with byte offsets.
//
// The paper notes that all derivation rules apply "mutatis mutandis ... for
// offset-value coding using byte offsets within normalized keys"
// (Section 4.1), and that IBM's CFC "compare and form codeword" instruction
// implements exactly this: descending codes over blocks of bytes of a
// normalized key (Section 3). This module provides the byte-granular
// variant: keys are order-preserving byte strings (column values serialized
// big-endian, descending columns complemented), the offset counts bytes (or
// fixed-size byte blocks) of shared prefix, and the value is the block at
// the offset.
//
// Byte-offset codes are finer-grained than column-offset codes: two long
// strings differing late share a long prefix, and the code captures it at
// byte precision. The same theorem and corollaries hold -- the tests
// exercise them over random normalized keys -- because the proofs only use
// "maximal shared prefix" and an ordered alphabet, not column structure.

// ovclint-disable-file OVC-L010 -- ROADMAP.md item 4 uses or deletes it

#ifndef OVC_CORE_NORMALIZED_KEY_H_
#define OVC_CORE_NORMALIZED_KEY_H_

#include <cstdint>
#include <vector>

#include "core/ovc.h"
#include "row/schema.h"

namespace ovc {

/// An order-preserving byte-string image of a sort key: comparing two
/// normalized keys with memcmp is equivalent to comparing the rows with the
/// schema's comparator.
using NormalizedKey = std::vector<uint8_t>;

/// Serializes the sort-key prefix of `row` into an order-preserving byte
/// string: each key column big-endian, descending columns complemented.
NormalizedKey NormalizeKey(const Schema& schema, const uint64_t* row);

/// Ascending offset-value codec over normalized keys with byte-block
/// offsets, in the spirit of the CFC instruction ("blocks of bytes as
/// values and counts of blocks as offsets").
class ByteOvcCodec {
 public:
  /// `key_bytes` is the fixed normalized-key length; `block_bytes` the
  /// value granularity (CFC used multi-byte blocks; 1..6 supported here so
  /// a block fits the 48-bit value field).
  ByteOvcCodec(uint32_t key_bytes, uint32_t block_bytes);

  /// Number of byte blocks per key (the "arity" of this coding).
  uint32_t blocks() const { return blocks_; }

  /// Length of the maximal shared prefix of `a` and `b` in whole blocks.
  uint32_t SharedBlocks(const NormalizedKey& a, const NormalizedKey& b) const;

  /// Ascending code of `key` relative to `base` (base must sort no later).
  Ovc Make(const NormalizedKey& base, const NormalizedKey& key) const;

  /// Code of a stream's first key (offset 0).
  Ovc MakeInitial(const NormalizedKey& key) const;

  /// The duplicate code (offset == blocks()).
  Ovc DuplicateCode() const { return OvcCodec::kKindValid; }

  /// Offset (in blocks) stored in a valid code.
  uint32_t OffsetOf(Ovc code) const;

  /// Value (the block at the offset) stored in a valid code.
  static uint64_t ValueOf(Ovc code) { return code & OvcCodec::kValueMask; }

  /// Three-way comparison of two keys coded relative to the same base:
  /// returns the comparison result and, for a decided comparison, leaves
  /// the loser's code valid relative to the winner (the corollaries hold
  /// byte-wise exactly as column-wise). `bytes_compared` (optional)
  /// accumulates the bytes touched.
  int Compare(const NormalizedKey& left, Ovc* left_code,
              const NormalizedKey& right, Ovc* right_code,
              uint64_t* bytes_compared) const;

 private:
  uint64_t BlockAt(const NormalizedKey& key, uint32_t block) const;

  uint32_t key_bytes_;
  uint32_t block_bytes_;
  uint32_t blocks_;
};

}  // namespace ovc

#endif  // OVC_CORE_NORMALIZED_KEY_H_
