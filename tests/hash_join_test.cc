// Hash-based operators: order-preserving hash join (Section 4.9), grace
// hash join and hash aggregation baselines.

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/scan.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::DrainValidated;
using ::ovc::testing::MakeTable;
using ::ovc::testing::RowVec;
using ::ovc::testing::RunFromSorted;
using ::ovc::testing::ToRowVec;

// ---------------------------------------------------------------------------
// Hash joins.

struct HashJoinParam {
  JoinTypeHash type;
  uint64_t distinct;
  const char* name;
};

class OpHashJoinTest : public ::testing::TestWithParam<HashJoinParam> {};

TEST_P(OpHashJoinTest, OrderPreservingMatchesReference) {
  const auto p = GetParam();
  Schema ps(2, 1), bs(2, 1);
  RowBuffer pt = MakeTable(ps, 300, p.distinct, /*seed=*/61, /*sorted=*/true);
  RowBuffer bt = MakeTable(bs, 150, p.distinct, /*seed=*/62);
  InMemoryRun prun = RunFromSorted(ps, pt);
  RunScan pscan(&ps, &prun);
  BufferScan bscan(&bs, &bt);
  QueryCounters counters;
  OrderPreservingHashJoin join(&pscan, &bscan, /*bind_columns=*/2, p.type,
                               /*memory_rows=*/1 << 20, &counters);
  RowVec out = DrainValidated(&join);

  // Reference.
  RowVec probe = ToRowVec(pt), build = ToRowVec(bt);
  RowVec expected;
  for (const auto& pr : probe) {
    std::vector<const std::vector<uint64_t>*> matches;
    for (const auto& br : build) {
      if (pr[0] == br[0] && pr[1] == br[1]) matches.push_back(&br);
    }
    switch (p.type) {
      case JoinTypeHash::kLeftSemi:
        if (!matches.empty()) expected.push_back(pr);
        break;
      case JoinTypeHash::kLeftAnti:
        if (matches.empty()) expected.push_back(pr);
        break;
      case JoinTypeHash::kInner:
      case JoinTypeHash::kLeftOuter: {
        for (const auto* m : matches) {
          std::vector<uint64_t> row = pr;
          row.insert(row.end(), m->begin(), m->end());
          row.push_back(3);
          expected.push_back(row);
        }
        if (matches.empty() && p.type == JoinTypeHash::kLeftOuter) {
          std::vector<uint64_t> row = pr;
          row.insert(row.end(), bs.total_columns(), 0);
          row.push_back(1);
          expected.push_back(row);
        }
        break;
      }
    }
  }
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Types, OpHashJoinTest,
    ::testing::Values(HashJoinParam{JoinTypeHash::kInner, 6, "inner"},
                      HashJoinParam{JoinTypeHash::kLeftOuter, 6, "left_outer"},
                      HashJoinParam{JoinTypeHash::kLeftSemi, 6, "left_semi"},
                      HashJoinParam{JoinTypeHash::kLeftAnti, 6, "left_anti"},
                      HashJoinParam{JoinTypeHash::kInner, 2, "inner_dense"}),
    [](const ::testing::TestParamInfo<HashJoinParam>& info) {
      return info.param.name;
    });

TEST(GraceHashJoin, SpillsAndMatchesInMemoryResult) {
  Schema ps(2, 1), bs(2, 1);
  RowBuffer pt = MakeTable(ps, 2000, 12, /*seed=*/71);
  RowBuffer bt = MakeTable(bs, 1500, 12, /*seed=*/72);
  BufferScan pscan(&ps, &pt), bscan(&bs, &bt);
  QueryCounters spill_counters;
  TempFileManager temp;
  GraceHashJoin spilling(&pscan, &bscan, /*bind_columns=*/2,
                         JoinTypeHash::kInner, /*memory_rows=*/100,
                         &spill_counters, &temp, /*partitions=*/8);
  RowVec out_spill = DrainValidated(&spilling, /*check_codes=*/false);
  EXPECT_GT(spill_counters.rows_spilled, 0u);

  BufferScan pscan2(&ps, &pt), bscan2(&bs, &bt);
  QueryCounters mem_counters;
  GraceHashJoin resident(&pscan2, &bscan2, /*bind_columns=*/2,
                         JoinTypeHash::kInner, /*memory_rows=*/1 << 20,
                         &mem_counters, &temp, /*partitions=*/8);
  RowVec out_mem = DrainValidated(&resident, /*check_codes=*/false);
  EXPECT_EQ(mem_counters.rows_spilled, 0u);

  Canonicalize(&out_spill);
  Canonicalize(&out_mem);
  EXPECT_EQ(out_spill, out_mem);
}

TEST(GraceHashJoin, UnsplittableKeyFinishesBySortMerge) {
  // Every row carries the same join key, so no level of hash
  // repartitioning brings the build side under its 64-row budget: the
  // partition pair that holds it finishes by sort+merge instead.
  Schema ps(1, 1), bs(1, 1);
  RowBuffer pt = MakeTable(ps, 100, 1, /*seed=*/91);
  RowBuffer bt = MakeTable(bs, 2000, 1, /*seed=*/92);
  for (JoinTypeHash type : {JoinTypeHash::kInner, JoinTypeHash::kLeftSemi}) {
    SCOPED_TRACE(type == JoinTypeHash::kInner ? "inner" : "left semi");
    TempFileManager temp;
    BufferScan pscan(&ps, &pt), bscan(&bs, &bt);
    QueryCounters spill_counters;
    GraceHashJoin spilling(&pscan, &bscan, /*bind_columns=*/1, type,
                           /*memory_rows=*/64, &spill_counters, &temp,
                           /*partitions=*/16, FallbackPolicy::kPartition);
    RowVec out_spill = DrainValidated(&spilling, /*check_codes=*/false);
    EXPECT_GT(spill_counters.rows_spilled, 0u);
    EXPECT_EQ(spill_counters.hash_join_fallbacks, 1u);

    BufferScan pscan2(&ps, &pt), bscan2(&bs, &bt);
    QueryCounters mem_counters;
    GraceHashJoin resident(&pscan2, &bscan2, /*bind_columns=*/1, type,
                           /*memory_rows=*/1 << 20, &mem_counters, &temp);
    RowVec out_mem = DrainValidated(&resident, /*check_codes=*/false);
    EXPECT_EQ(mem_counters.hash_join_fallbacks, 0u);
    EXPECT_EQ(out_mem.size(), type == JoinTypeHash::kInner ? 200000u : 100u);

    Canonicalize(&out_spill);
    Canonicalize(&out_mem);
    EXPECT_EQ(out_spill, out_mem);
  }
}

TEST(HashAggregate, MatchesInStreamAggregate) {
  Schema schema(3, 1);
  RowBuffer table = MakeTable(schema, 3000, 6, /*seed=*/81);
  // Reference: in-stream aggregation over the sorted input.
  RowBuffer sorted = table;
  SortRowsForTest(schema, &sorted);
  InMemoryRun run = RunFromSorted(schema, sorted);
  RunScan sorted_scan(&schema, &run);
  QueryCounters ref_counters;
  InStreamAggregate ref_agg(&sorted_scan, /*group_prefix=*/3,
                            {{AggFn::kCount, 0}, {AggFn::kSum, 3}},
                            &ref_counters);
  RowVec expected = DrainValidated(&ref_agg);

  // Hash aggregation without spilling.
  BufferScan scan1(&schema, &table);
  QueryCounters counters1;
  TempFileManager temp;
  HashAggregate agg1(&scan1, /*group_prefix=*/3,
                     {{AggFn::kCount, 0}, {AggFn::kSum, 3}},
                     /*memory_groups=*/1 << 20, &counters1, &temp);
  RowVec out1 = DrainValidated(&agg1, /*check_codes=*/false);
  EXPECT_EQ(counters1.rows_spilled, 0u);

  // Hash aggregation with spilling.
  BufferScan scan2(&schema, &table);
  QueryCounters counters2;
  HashAggregate agg2(&scan2, /*group_prefix=*/3,
                     {{AggFn::kCount, 0}, {AggFn::kSum, 3}},
                     /*memory_groups=*/16, &counters2, &temp);
  RowVec out2 = DrainValidated(&agg2, /*check_codes=*/false);
  EXPECT_GT(counters2.rows_spilled, 0u);

  Canonicalize(&out1);
  Canonicalize(&out2);
  RowVec exp = expected;
  Canonicalize(&exp);
  EXPECT_EQ(out1, exp);
  EXPECT_EQ(out2, exp);
}

TEST(HashAggregate, SortMergeFallbackCollapsesAtEveryStage) {
  // 20000 rows in ~2000 groups overflow a 64-group table; the fallback
  // sort holds 1000 state rows, so it spills about 20 runs. Collapsing at
  // run generation spills fewer rows than it takes in, and collapsing
  // before every merge leaves no key-duplicates for the merge bypass.
  Schema schema(2, 1);
  RowBuffer table = MakeTable(schema, 20000, 45, /*seed=*/82);
  BufferScan scan(&schema, &table);
  QueryCounters counters;
  TempFileManager temp;
  SortConfig sort_config;
  sort_config.memory_rows = 1000;
  HashAggregate agg(&scan, /*group_prefix=*/2,
                    {{AggFn::kCount, 0},
                     {AggFn::kSum, 2},
                     {AggFn::kMin, 2},
                     {AggFn::kMax, 2}},
                    /*memory_groups=*/64, &counters, &temp, /*partitions=*/16,
                    FallbackPolicy::kSortMerge, sort_config);
  RowVec out = DrainValidated(&agg, /*check_codes=*/false);
  EXPECT_TRUE(temp.first_error().ok());

  std::map<std::pair<uint64_t, uint64_t>, std::vector<uint64_t>> reference;
  for (size_t i = 0; i < table.size(); ++i) {
    const uint64_t* row = table.row(i);
    auto [it, fresh] = reference.try_emplace(
        std::make_pair(row[0], row[1]),
        std::vector<uint64_t>{0, 0, row[2], row[2]});
    std::vector<uint64_t>& acc = it->second;
    ++acc[0];
    acc[1] += row[2];
    acc[2] = std::min(acc[2], row[2]);
    acc[3] = std::max(acc[3], row[2]);
  }
  ASSERT_GT(reference.size(), 1900u);
  ASSERT_EQ(out.size(), reference.size());
  for (const std::vector<uint64_t>& row : out) {
    EXPECT_EQ(std::vector<uint64_t>(row.begin() + 2, row.end()),
              (reference[{row[0], row[1]}]));
  }
  EXPECT_EQ(counters.hash_agg_fallbacks, 1u);
  EXPECT_LT(counters.rows_spilled, table.size());
  EXPECT_EQ(counters.merge_bypass_rows, 0u);
}

TEST(HashKeyPrefix, TouchesEveryColumnAndCounts) {
  QueryCounters counters;
  const uint64_t row1[3] = {1, 2, 3};
  const uint64_t row2[3] = {1, 2, 4};
  const uint64_t h1 = HashKeyPrefix(row1, 3, &counters);
  const uint64_t h2 = HashKeyPrefix(row2, 3, &counters);
  EXPECT_NE(h1, h2);
  EXPECT_EQ(counters.hash_computations, 2u);
  // Same prefix, shorter width: different hash stream but deterministic.
  EXPECT_EQ(HashKeyPrefix(row1, 3, nullptr), h1);
}

}  // namespace
}  // namespace ovc
