// Hash-based operators: order-preserving hash join (Section 4.9), grace
// hash join and hash aggregation baselines.

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/hash_aggregate.h"
#include "common/metrics.h"
#include "exec/hash_join.h"
#include "exec/in_sort_aggregate.h"
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
                         &spill_counters, &temp, FallbackPolicy::kPartition);
  RowVec out_spill = DrainValidated(&spilling, /*check_codes=*/false);
  EXPECT_GT(spill_counters.rows_spilled, 0u);

  BufferScan pscan2(&ps, &pt), bscan2(&bs, &bt);
  QueryCounters mem_counters;
  GraceHashJoin resident(&pscan2, &bscan2, /*bind_columns=*/2,
                         JoinTypeHash::kInner, /*memory_rows=*/1 << 20,
                         &mem_counters, &temp);
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
                           FallbackPolicy::kPartition);
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

// ---------------------------------------------------------------------------
// Aggregation: every strategy against one reference.

/// Reference aggregation: one output row per group of the first
/// `group_prefix` columns -- the group columns, then each aggregate, with
/// sums wrapping modulo 2^64 like the operators' accumulators.
RowVec ReferenceAggregate(const RowBuffer& table, uint32_t group_prefix,
                          const std::vector<AggregateSpec>& aggregates) {
  std::map<std::vector<uint64_t>, std::vector<uint64_t>> groups;
  for (size_t i = 0; i < table.size(); ++i) {
    const uint64_t* row = table.row(i);
    auto [it, fresh] = groups.try_emplace(
        std::vector<uint64_t>(row, row + group_prefix),
        std::vector<uint64_t>(aggregates.size(), 0));
    for (size_t a = 0; a < aggregates.size(); ++a) {
      uint64_t& acc = it->second[a];
      const uint64_t v = row[aggregates[a].input_col];
      switch (aggregates[a].fn) {
        case AggFn::kCount:
          ++acc;
          break;
        case AggFn::kSum:
          acc += v;
          break;
        case AggFn::kMin:
          acc = fresh ? v : std::min(acc, v);
          break;
        case AggFn::kMax:
          acc = fresh ? v : std::max(acc, v);
          break;
      }
    }
  }
  RowVec out;
  for (const auto& [key, accs] : groups) {
    std::vector<uint64_t> row = key;
    row.insert(row.end(), accs.begin(), accs.end());
    out.push_back(std::move(row));
  }
  return out;
}

/// A (3 key, 1 payload) table whose payload cycles through 0, UINT64_MAX,
/// 1 and the generated row number, so sums wrap and the extremes of both
/// MIN and MAX occur inside groups.
RowBuffer ExtremesTable() {
  Schema schema(3, 1);
  RowBuffer table = MakeTable(schema, 3000, 6, /*seed=*/81);
  for (size_t i = 0; i < table.size(); ++i) {
    uint64_t* row = table.mutable_row(i);
    switch (i % 4) {
      case 0:
        row[3] = 0;
        break;
      case 1:
        row[3] = std::numeric_limits<uint64_t>::max();
        break;
      case 2:
        row[3] = 1;
        break;
      default:
        break;
    }
  }
  return table;
}

TEST(HashAggregate, MatchesInStreamAggregate) {
  Schema schema(3, 1);
  const RowBuffer table = ExtremesTable();
  RowBuffer sorted = table;
  SortRowsForTest(schema, &sorted);
  const InMemoryRun run = RunFromSorted(schema, sorted);
  const std::vector<std::vector<AggregateSpec>> forms = {
      {{AggFn::kCount, 0}, {AggFn::kSum, 3}, {AggFn::kMin, 3},
       {AggFn::kMax, 3}},
      {}};  // zero aggregates: the distinct form
  for (uint32_t group_prefix : {2u, 3u}) {
    for (const std::vector<AggregateSpec>& aggs : forms) {
      SCOPED_TRACE("group_prefix " + std::to_string(group_prefix) + ", " +
                   std::to_string(aggs.size()) + " aggregates");
      RowVec expected = ReferenceAggregate(table, group_prefix, aggs);
      Canonicalize(&expected);
      const auto check = [&](const char* strategy, Operator* op,
                             bool check_codes) {
        SCOPED_TRACE(strategy);
        RowVec out = DrainValidated(op, check_codes);
        Canonicalize(&out);
        EXPECT_EQ(out, expected);
      };
      TempFileManager temp;
      QueryCounters counters;
      {
        RunScan scan(&schema, &run);
        InStreamAggregate agg(&scan, group_prefix, aggs, &counters);
        check("in-stream, code boundaries", &agg, true);
      }
      {
        RunScan scan(&schema, &run);
        InStreamAggregate::Options options;
        options.use_ovc_boundaries = false;
        InStreamAggregate agg(&scan, group_prefix, aggs, &counters, options);
        check("in-stream, baseline boundaries", &agg, true);
      }
      {
        BufferScan scan(&schema, &table);
        InSortAggregate agg(&scan, group_prefix, aggs, &counters, &temp);
        check("in-sort", &agg, true);
      }
      {
        BufferScan scan(&schema, &table);
        QueryCounters resident;
        HashAggregate agg(&scan, group_prefix, aggs, /*memory_groups=*/1 << 20,
                          &resident, &temp);
        check("hash, resident", &agg, false);
        EXPECT_EQ(resident.rows_spilled, 0u);
        EXPECT_EQ(resident.hash_agg_fallbacks, 0u);
      }
      {
        BufferScan scan(&schema, &table);
        QueryCounters partitioned;
        HashAggregate agg(&scan, group_prefix, aggs, /*memory_groups=*/16,
                          &partitioned, &temp, FallbackPolicy::kPartition);
        check("hash, kPartition", &agg, false);
        EXPECT_GT(partitioned.rows_spilled, 0u);
      }
      {
        BufferScan scan(&schema, &table);
        QueryCounters fell_back;
        HashAggregate agg(&scan, group_prefix, aggs, /*memory_groups=*/16,
                          &fell_back, &temp, FallbackPolicy::kSortMerge);
        check("hash, kSortMerge", &agg, false);
        EXPECT_EQ(fell_back.hash_agg_fallbacks, 1u);
      }
      EXPECT_TRUE(temp.first_error().ok());
    }
  }
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
                    /*memory_groups=*/64, &counters, &temp,
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

// ---------------------------------------------------------------------------
// Exact counts of the kPartition spill paths at the kHashPartitions fan-out.
// A change to how the grace operators route, spill or re-split rows moves
// one of these numbers.

/// Reference hash-join result in the grace join's layout: probe row, then
/// (inner) the build row and the match indicator 3.
RowVec ReferenceJoin(const RowBuffer& probe, const RowBuffer& build,
                     uint32_t bind_columns, JoinTypeHash type) {
  RowVec out;
  for (const std::vector<uint64_t>& p : ToRowVec(probe)) {
    for (const std::vector<uint64_t>& b : ToRowVec(build)) {
      if (!std::equal(p.begin(), p.begin() + bind_columns, b.begin())) {
        continue;
      }
      if (type == JoinTypeHash::kLeftSemi) {
        out.push_back(p);
        break;
      }
      std::vector<uint64_t> row = p;
      row.insert(row.end(), b.begin(), b.end());
      row.push_back(3);
      out.push_back(std::move(row));
    }
  }
  return out;
}

struct SpillGolden {
  uint64_t result_rows;
  uint64_t rows_spilled;
  uint64_t bytes_spilled;
  uint64_t hash_computations;
  uint64_t column_comparisons;
  uint64_t hash_join_fallbacks;
  uint64_t temp_files;
};

struct SpillCase {
  const char* name;
  /// False: a hash aggregate (COUNT, SUM, MIN, MAX) over the probe table.
  bool join;
  JoinTypeHash type;
  uint32_t keys;
  uint64_t probe_rows;
  uint64_t build_rows;
  uint64_t distinct;
  /// Build rows (join) or groups (aggregate) held in memory.
  uint64_t memory_rows;
  SpillGolden expected;
};

void PrintTo(const SpillCase& c, std::ostream* os) { *os << c.name; }

const SpillCase kSpillCases[] = {
    // 1500 build rows over 16 partitions fit a 200-row budget: the level-0
    // split is the only one (16 build + 16 probe files).
    {"join_level0_split", true, JoinTypeHash::kInner, 2, 3000, 1500, 40, 200,
     {2888, 4500, 117000, 9200, 5776, 0, 32}},
    // 2000 build rows over 16 partitions overflow a 64-row budget, so every
    // level-0 pair is split again.
    {"join_repartition", true, JoinTypeHash::kInner, 1, 500, 2000, 1000, 64,
     {1032, 5000, 90000, 8588, 1032, 0, 544}},
    {"semi_join_repartition", true, JoinTypeHash::kLeftSemi, 1, 500, 2000,
     1000, 64, {447, 5000, 90000, 8588, 447, 0, 544}},
    // One key: the level-0 pair holding every build row is unsplittable and
    // finishes by sort+merge.
    {"join_unsplittable_key", true, JoinTypeHash::kInner, 1, 50, 300, 1, 64,
     {15000, 350, 6300, 478, 0, 1, 32}},
    // ~900 groups, 256 resident: the rest spill once, and every level-0
    // partition fits.
    {"aggregate_level0_spill", false, JoinTypeHash::kInner, 2, 5000, 0, 30,
     256, {898, 3375, 87750, 11750, 8204, 0, 16}},
    // 16 resident groups: the level-0 partitions overflow again and re-spill
    // recursively.
    {"aggregate_recursive_spill", false, JoinTypeHash::kInner, 2, 5000, 0, 30,
     16, {898, 8143, 211718, 21286, 8204, 0, 272}},
};

class PartitionSpillGoldenTest : public ::testing::TestWithParam<SpillCase> {};

TEST_P(PartitionSpillGoldenTest, CountsMatchRecordedValues) {
  const SpillCase& c = GetParam();
  Schema ps(c.keys, 1), bs(c.keys, 1);
  const RowBuffer pt = MakeTable(ps, c.probe_rows, c.distinct, /*seed=*/101);
  const RowBuffer bt = MakeTable(bs, c.build_rows, c.distinct, /*seed=*/102);
  BufferScan pscan(&ps, &pt), bscan(&bs, &bt);
  QueryCounters counters;
  TempFileManager temp;
  std::unique_ptr<Operator> op;
  RowVec expected;
  if (c.join) {
    op = std::make_unique<GraceHashJoin>(&pscan, &bscan, c.keys, c.type,
                                         c.memory_rows, &counters, &temp,
                                         FallbackPolicy::kPartition);
    expected = ReferenceJoin(pt, bt, c.keys, c.type);
  } else {
    const std::vector<AggregateSpec> aggs = {{AggFn::kCount, 0},
                                             {AggFn::kSum, 2},
                                             {AggFn::kMin, 2},
                                             {AggFn::kMax, 2}};
    op = std::make_unique<HashAggregate>(&pscan, c.keys, aggs, c.memory_rows,
                                         &counters, &temp,
                                         FallbackPolicy::kPartition);
    expected = ReferenceAggregate(pt, c.keys, aggs);
  }
  metrics::Counter& files =
      metrics::MetricRegistry::Instance().GetCounter("tempfile.files", "");
  const uint64_t files_before = files.value();
  RowVec out = DrainValidated(op.get(), /*check_codes=*/false);
  const uint64_t temp_files = files.value() - files_before;
  EXPECT_TRUE(temp.first_error().ok());
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);

  const SpillGolden& want = c.expected;
  EXPECT_EQ(out.size(), want.result_rows);
  EXPECT_EQ(counters.rows_spilled, want.rows_spilled);
  EXPECT_EQ(counters.bytes_spilled, want.bytes_spilled);
  EXPECT_EQ(counters.hash_computations, want.hash_computations);
  EXPECT_EQ(counters.column_comparisons, want.column_comparisons);
  EXPECT_EQ(counters.hash_join_fallbacks, want.hash_join_fallbacks);
  EXPECT_EQ(temp_files, want.temp_files);
}

INSTANTIATE_TEST_SUITE_P(
    KPartition, PartitionSpillGoldenTest, ::testing::ValuesIn(kSpillCases),
    [](const ::testing::TestParamInfo<SpillCase>& info) {
      return info.param.name;
    });

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
