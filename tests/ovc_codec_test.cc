// Core offset-value coding: golden tests for the paper's Tables 1 and 2,
// and randomized property tests for the proposition, the new theorem, both
// of Iyer's corollaries, and the filter theorem.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/accumulator.h"
#include "core/ovc.h"
#include "core/ovc_compare.h"
#include "core/ovc_reference.h"
#include "common/rng.h"
#include "row/comparator.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::AppendRows;
using ::ovc::testing::MakeTable;

// The seven rows of Table 1 (arity 4, domain 1..99).
RowBuffer Table1Rows() {
  RowBuffer rows(4);
  AppendRows(&rows, {
                        {5, 7, 3, 9},
                        {5, 7, 3, 12},
                        {5, 8, 4, 6},
                        {5, 9, 2, 7},
                        {5, 9, 2, 7},
                        {5, 9, 3, 4},
                        {5, 9, 3, 7},
                    });
  return rows;
}

TEST(Table1Golden, AscendingToyCodes) {
  RowBuffer rows = Table1Rows();
  const uint64_t kDomain = 100;
  // First row is coded at offset 0 ("4 5 405" in the table = relative to a
  // predecessor sharing nothing).
  std::vector<uint64_t> expected = {405, 112, 308, 309, 0, 203, 107};
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(reference::ToyAscendingOvc(4, kDomain, rows.row(i - 1),
                                         rows.row(i)),
              expected[i])
        << "row " << i;
  }
  // Row 0 against an all-different base.
  const uint64_t base0[4] = {0, 0, 0, 0};
  EXPECT_EQ(reference::ToyAscendingOvc(4, kDomain, base0, rows.row(0)),
            expected[0]);
}

TEST(Table1Golden, DescendingToyCodes) {
  RowBuffer rows = Table1Rows();
  const uint64_t kDomain = 100;
  std::vector<uint64_t> expected = {95, 388, 192, 191, 400, 297, 393};
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(reference::ToyDescendingOvc(4, kDomain, rows.row(i - 1),
                                          rows.row(i)),
              expected[i])
        << "row " << i;
  }
  const uint64_t base0[4] = {0, 0, 0, 0};
  EXPECT_EQ(reference::ToyDescendingOvc(4, kDomain, base0, rows.row(0)),
            expected[0]);
}

TEST(Table1Golden, CodecOffsetsAndValues) {
  Schema schema(4);
  OvcCodec codec(&schema);
  RowBuffer rows = Table1Rows();
  // Offsets per Table 1: -, 3, 1, 1, 4(dup), 2, 3.
  std::vector<uint32_t> offsets = {0, 3, 1, 1, 4, 2, 3};
  std::vector<uint64_t> values = {5, 12, 8, 9, 0, 3, 7};
  for (size_t i = 1; i < rows.size(); ++i) {
    const Ovc code =
        reference::AscendingOvc(codec, rows.row(i - 1), rows.row(i));
    EXPECT_EQ(codec.OffsetOf(code), offsets[i]) << "row " << i;
    if (offsets[i] < 4) {
      EXPECT_EQ(OvcCodec::ValueOf(code), values[i]) << "row " << i;
    } else {
      EXPECT_TRUE(codec.IsDuplicate(code));
    }
  }
}

TEST(Table1Golden, NoTwoSuccessiveEqualCodes) {
  // The proposition illustrated by Table 1: no successive equal codes.
  Schema schema(4);
  OvcCodec codec(&schema);
  RowBuffer rows = Table1Rows();
  Ovc prev_code = 0;
  for (size_t i = 1; i < rows.size(); ++i) {
    const Ovc code =
        reference::AscendingOvc(codec, rows.row(i - 1), rows.row(i));
    if (i > 1) {
      EXPECT_NE(code, prev_code) << "row " << i;
    }
    prev_code = code;
  }
}

// Table 2: decisions and adjustments against base (3,4,2,5).
TEST(Table2Golden, Case1OffsetsDecide) {
  Schema schema(4);
  OvcCodec codec(&schema);
  QueryCounters counters;
  KeyComparator cmp(&schema, &counters);
  uint64_t code_cmps = 0;
  const uint64_t base[4] = {3, 4, 2, 5};
  const uint64_t a[4] = {3, 5, 8, 2};  // code 305
  const uint64_t b[4] = {3, 4, 6, 1};  // code 206
  Ovc ca = reference::AscendingOvc(codec, base, a);
  Ovc cb = reference::AscendingOvc(codec, base, b);
  EXPECT_EQ(codec.OffsetOf(ca), 1u);
  EXPECT_EQ(codec.OffsetOf(cb), 2u);
  const int r = CompareWithOvc(codec, cmp, a, &ca, b, &cb, &code_cmps);
  EXPECT_GT(r, 0);  // b sorts earlier
  // Loser (a) keeps its code relative to the new winner (unequal-code
  // theorem), and no column comparison was spent.
  EXPECT_EQ(ca, reference::AscendingOvc(codec, b, a));
  EXPECT_EQ(counters.column_comparisons, 0u);
  EXPECT_EQ(code_cmps, 1u);
}

TEST(Table2Golden, Case2ValuesDecide) {
  Schema schema(4);
  OvcCodec codec(&schema);
  QueryCounters counters;
  KeyComparator cmp(&schema, &counters);
  uint64_t code_cmps = 0;
  const uint64_t base[4] = {3, 4, 2, 5};
  const uint64_t a[4] = {3, 4, 3, 8};  // code 203
  const uint64_t b[4] = {3, 4, 9, 1};  // code 209
  Ovc ca = reference::AscendingOvc(codec, base, a);
  Ovc cb = reference::AscendingOvc(codec, base, b);
  const int r = CompareWithOvc(codec, cmp, a, &ca, b, &cb, &code_cmps);
  EXPECT_LT(r, 0);  // a sorts earlier
  EXPECT_EQ(cb, reference::AscendingOvc(codec, a, b));
  EXPECT_EQ(counters.column_comparisons, 0u);
}

TEST(Table2Golden, Case3ColumnsDecideAndLoserAdjusts) {
  Schema schema(4);
  OvcCodec codec(&schema);
  QueryCounters counters;
  KeyComparator cmp(&schema, &counters);
  uint64_t code_cmps = 0;
  const uint64_t base[4] = {3, 4, 2, 5};
  const uint64_t a[4] = {3, 7, 4, 7};  // code 307
  const uint64_t b[4] = {3, 7, 4, 9};  // code 307 (equal!)
  Ovc ca = reference::AscendingOvc(codec, base, a);
  Ovc cb = reference::AscendingOvc(codec, base, b);
  EXPECT_EQ(ca, cb);
  const int r = CompareWithOvc(codec, cmp, a, &ca, b, &cb, &code_cmps);
  EXPECT_LT(r, 0);
  // Loser's new code: offset 3, value 9 (the "109" of Table 2).
  EXPECT_EQ(codec.OffsetOf(cb), 3u);
  EXPECT_EQ(OvcCodec::ValueOf(cb), 9u);
  // Comparisons resumed past the shared prefix and value: columns 2 and 3.
  EXPECT_EQ(counters.column_comparisons, 2u);
}

// ---------------------------------------------------------------------------
// Randomized property tests.

struct TheoremParam {
  uint32_t arity;
  uint64_t distinct;
};

class TheoremTest : public ::testing::TestWithParam<TheoremParam> {};

TEST_P(TheoremTest, MaxRuleOnSortedTriples) {
  const auto param = GetParam();
  Schema schema(param.arity);
  OvcCodec codec(&schema);
  RowBuffer rows =
      MakeTable(schema, 512, param.distinct, /*seed=*/7 + param.arity,
                /*sorted=*/true);
  KeyComparator cmp(&schema, nullptr);
  // All consecutive-ish triples A <= B <= C with A<B or B<C.
  for (size_t i = 0; i + 2 < rows.size(); ++i) {
    const uint64_t* a = rows.row(i);
    const uint64_t* b = rows.row(i + 1);
    const uint64_t* c = rows.row(i + 2);
    if (cmp.Compare(a, b) == 0 && cmp.Compare(b, c) == 0) continue;
    const Ovc ab = reference::AscendingOvc(codec, a, b);
    const Ovc bc = reference::AscendingOvc(codec, b, c);
    const Ovc ac = reference::AscendingOvc(codec, a, c);
    EXPECT_EQ(ac, std::max(ab, bc)) << "triple at " << i;
  }
}

TEST_P(TheoremTest, MinRuleDescendingCoding) {
  const auto param = GetParam();
  Schema schema(param.arity);
  DescendingOvcCodec codec(&schema);
  RowBuffer rows =
      MakeTable(schema, 512, param.distinct, /*seed=*/99 + param.arity,
                /*sorted=*/true);
  for (size_t i = 0; i + 2 < rows.size(); ++i) {
    const Ovc ab = reference::DescendingOvc(codec, rows.row(i), rows.row(i + 1));
    const Ovc bc =
        reference::DescendingOvc(codec, rows.row(i + 1), rows.row(i + 2));
    const Ovc ac = reference::DescendingOvc(codec, rows.row(i), rows.row(i + 2));
    EXPECT_EQ(ac, std::min(ab, bc)) << "triple at " << i;
  }
}

TEST_P(TheoremTest, UnequalCodeCorollary) {
  const auto param = GetParam();
  Schema schema(param.arity);
  OvcCodec codec(&schema);
  RowBuffer rows =
      MakeTable(schema, 512, param.distinct, /*seed=*/13 + param.arity,
                /*sorted=*/true);
  for (size_t i = 0; i + 2 < rows.size(); ++i) {
    const uint64_t* a = rows.row(i);
    const uint64_t* b = rows.row(i + 1);
    const uint64_t* c = rows.row(i + 2);
    const Ovc ab = reference::AscendingOvc(codec, a, b);
    const Ovc ac = reference::AscendingOvc(codec, a, c);
    if (ab < ac) {
      EXPECT_EQ(reference::AscendingOvc(codec, b, c), ac) << "triple at " << i;
    }
  }
}

TEST_P(TheoremTest, EqualCodeCorollary) {
  const auto param = GetParam();
  Schema schema(param.arity);
  OvcCodec codec(&schema);
  RowBuffer rows =
      MakeTable(schema, 512, param.distinct, /*seed=*/21 + param.arity,
                /*sorted=*/true);
  KeyComparator cmp(&schema, nullptr);
  for (size_t i = 0; i + 2 < rows.size(); ++i) {
    const uint64_t* a = rows.row(i);
    const uint64_t* b = rows.row(i + 1);
    const uint64_t* c = rows.row(i + 2);
    if (cmp.Compare(a, b) == 0 || cmp.Compare(b, c) == 0) continue;
    const Ovc ab = reference::AscendingOvc(codec, a, b);
    const Ovc ac = reference::AscendingOvc(codec, a, c);
    if (ab == ac) {
      EXPECT_LT(reference::AscendingOvc(codec, b, c), ac) << "triple at " << i;
    }
  }
}

TEST_P(TheoremTest, FilterTheoremOverSortedLists) {
  const auto param = GetParam();
  Schema schema(param.arity);
  OvcCodec codec(&schema);
  RowBuffer rows =
      MakeTable(schema, 256, param.distinct, /*seed=*/31 + param.arity,
                /*sorted=*/true);
  // For random sublist ranges [i, j]: ovc(Xi, Xj) == max of adjacent codes.
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t i = rng.Uniform(rows.size() - 1);
    const size_t j = i + 1 + rng.Uniform(rows.size() - i - 1);
    Ovc running = OvcCodec::EarlyFence();
    for (size_t k = i + 1; k <= j; ++k) {
      running = std::max(running,
                         reference::AscendingOvc(codec, rows.row(k - 1),
                                                 rows.row(k)));
    }
    EXPECT_EQ(running, reference::AscendingOvc(codec, rows.row(i), rows.row(j)))
        << "range [" << i << "," << j << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AritiesAndDomains, TheoremTest,
    ::testing::Values(TheoremParam{1, 4}, TheoremParam{2, 4},
                      TheoremParam{4, 2}, TheoremParam{4, 8},
                      TheoremParam{8, 2}, TheoremParam{12, 3}),
    [](const ::testing::TestParamInfo<TheoremParam>& info) {
      return "arity" + std::to_string(info.param.arity) + "_domain" +
             std::to_string(info.param.distinct);
    });

// ---------------------------------------------------------------------------
// Code word mechanics.

TEST(OvcCodec, FencesBracketValidCodes) {
  Schema schema(4);
  OvcCodec codec(&schema);
  const uint64_t row[4] = {1, 2, 3, 4};
  for (uint32_t off = 0; off <= 4; ++off) {
    const Ovc code = codec.MakeFromRow(row, off);
    EXPECT_GT(code, OvcCodec::EarlyFence());
    EXPECT_LT(code, OvcCodec::LateFence());
    EXPECT_TRUE(OvcCodec::IsValid(code));
    EXPECT_EQ(codec.OffsetOf(code), off);
  }
  EXPECT_FALSE(OvcCodec::IsValid(OvcCodec::EarlyFence()));
  EXPECT_FALSE(OvcCodec::IsValid(OvcCodec::LateFence()));
}

TEST(OvcCodec, HigherOffsetSortsEarlier) {
  // Among codes relative to the same base, a longer shared prefix means
  // closer to the base, i.e. earlier -- numerically smaller in ascending
  // coding.
  Schema schema(4);
  OvcCodec codec(&schema);
  EXPECT_LT(codec.Make(3, 99), codec.Make(2, 0));
  EXPECT_LT(codec.Make(1, 99), codec.Make(0, 0));
  EXPECT_LT(codec.DuplicateCode(), codec.Make(3, 0));
}

TEST(OvcCodec, SaturatedValuesStayMonotoneAndSound) {
  Schema schema(2);
  OvcCodec codec(&schema);
  const uint64_t big = OvcCodec::kValueMask;  // saturation point
  // Monotone: below-saturation < saturated.
  EXPECT_LT(codec.Make(0, big - 1), codec.Make(0, big));
  EXPECT_EQ(codec.Make(0, big), codec.Make(0, big + 12345));
  // Equal saturated codes force column comparison AT the offset.
  EXPECT_EQ(codec.ResumeColumn(codec.Make(0, big + 5)), 0u);
  EXPECT_EQ(codec.ResumeColumn(codec.Make(0, 7)), 1u);
}

TEST(OvcCodec, CompareWithOvcHandlesSaturatedTies) {
  Schema schema(2);
  OvcCodec codec(&schema);
  QueryCounters counters;
  KeyComparator cmp(&schema, &counters);
  uint64_t code_cmps = 0;
  const uint64_t base[2] = {0, 0};
  const uint64_t a[2] = {OvcCodec::kValueMask + 10, 1};
  const uint64_t b[2] = {OvcCodec::kValueMask + 20, 1};
  Ovc ca = reference::AscendingOvc(codec, base, a);
  Ovc cb = reference::AscendingOvc(codec, base, b);
  EXPECT_EQ(ca, cb);  // both saturate
  const int r = CompareWithOvc(codec, cmp, a, &ca, b, &cb, &code_cmps);
  EXPECT_LT(r, 0);
  EXPECT_GE(counters.column_comparisons, 1u);  // resumed at the offset
  EXPECT_EQ(codec.OffsetOf(cb), 0u);
}

TEST(OvcCodec, EqualRowsReportEquality) {
  Schema schema(3);
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, nullptr);
  uint64_t code_cmps = 0;
  const uint64_t base[3] = {1, 1, 1};
  const uint64_t a[3] = {1, 2, 3};
  const uint64_t b[3] = {1, 2, 3};
  Ovc ca = reference::AscendingOvc(codec, base, a);
  Ovc cb = reference::AscendingOvc(codec, base, b);
  EXPECT_EQ(CompareWithOvc(codec, cmp, a, &ca, b, &cb, &code_cmps), 0);
}

TEST(OvcCodec, ClampToPrefixForProjectionAndGrouping) {
  Schema in(4);
  Schema out(2);
  OvcCodec in_codec(&in);
  OvcCodec out_codec(&out);
  // Offset within the surviving prefix: preserved.
  EXPECT_EQ(out_codec.OffsetOf(
                in_codec.ClampToPrefix(in_codec.Make(1, 42), 2, out_codec)),
            1u);
  // Offset at/past the prefix: the shorter key is a duplicate.
  EXPECT_TRUE(out_codec.IsDuplicate(
      in_codec.ClampToPrefix(in_codec.Make(2, 42), 2, out_codec)));
  EXPECT_TRUE(out_codec.IsDuplicate(
      in_codec.ClampToPrefix(in_codec.DuplicateCode(), 2, out_codec)));
}

TEST(OvcAccumulator, NeutralElementAndCombine) {
  Schema schema(3);
  OvcCodec codec(&schema);
  OvcAccumulator acc;
  acc.Reset();
  // Empty accumulation: Combine returns the row's own code.
  EXPECT_EQ(acc.Combine(codec.Make(1, 5)), codec.Make(1, 5));
  acc.Absorb(codec.Make(0, 9));
  EXPECT_EQ(acc.Combine(codec.Make(2, 1)), codec.Make(0, 9));
  acc.Reset();
  EXPECT_EQ(acc.value(), OvcCodec::EarlyFence());
}

TEST(OvcChecker, AcceptsValidStreamRejectsBadCodes) {
  Schema schema(2);
  OvcCodec codec(&schema);
  RowBuffer rows(2);
  ::ovc::testing::AppendRows(&rows, {{1, 1}, {1, 2}, {2, 0}});
  {
    OvcStreamChecker checker(&schema);
    EXPECT_TRUE(checker.Observe(rows.row(0), codec.MakeInitial(rows.row(0))));
    EXPECT_TRUE(checker.Observe(rows.row(1), codec.Make(1, 2)));
    EXPECT_TRUE(checker.Observe(rows.row(2), codec.Make(0, 2)));
    EXPECT_TRUE(checker.ok());
  }
  {
    OvcStreamChecker checker(&schema);
    EXPECT_TRUE(checker.Observe(rows.row(0), codec.MakeInitial(rows.row(0))));
    EXPECT_FALSE(checker.Observe(rows.row(1), codec.Make(0, 1)));  // wrong
    EXPECT_FALSE(checker.ok());
  }
  {
    // Unsorted stream detected.
    OvcStreamChecker checker(&schema);
    EXPECT_TRUE(checker.Observe(rows.row(2), codec.MakeInitial(rows.row(2))));
    EXPECT_FALSE(checker.Observe(rows.row(0), codec.Make(0, 1)));
  }
}

TEST(DescendingCodec, DuplicateIsLargestValidCode) {
  Schema schema(4);
  DescendingOvcCodec codec(&schema);
  const uint64_t row[4] = {9, 9, 9, 9};
  for (uint32_t off = 0; off < 4; ++off) {
    EXPECT_LT(codec.MakeFromRow(row, off), codec.DuplicateCode());
  }
  EXPECT_LT(codec.DuplicateCode(), OvcCodec::LateFence());
  EXPECT_GT(codec.DuplicateCode(), OvcCodec::EarlyFence());
}

TEST(DescendingAccumulator, MinCombine) {
  Schema schema(3);
  DescendingOvcCodec codec(&schema);
  DescendingOvcAccumulator acc;
  acc.Reset();
  const Ovc a = codec.Make(0, 5);
  const Ovc b = codec.Make(2, 1);
  EXPECT_EQ(acc.Combine(b), b);
  acc.Absorb(a);
  EXPECT_EQ(acc.Combine(b), std::min(a, b));
}

}  // namespace
}  // namespace ovc
