// Integration tests: multi-operator pipelines carrying offset-value codes
// end to end, including both Figure 5 plans for intersect-distinct.

#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/dedup.h"
#include "exec/filter.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/merge_join.h"
#include "exec/scan.h"
#include "exec/sort_operator.h"
#include "storage/lsm.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::DrainValidated;
using ::ovc::testing::MakeTable;
using ::ovc::testing::RowVec;
using ::ovc::testing::ToRowVec;

// Reference intersect-distinct over raw tables (keys only).
RowVec ReferenceIntersectDistinct(const RowVec& a, const RowVec& b) {
  std::set<std::vector<uint64_t>> sa(a.begin(), a.end());
  std::set<std::vector<uint64_t>> sb(b.begin(), b.end());
  RowVec out;
  for (const auto& k : sa) {
    if (sb.count(k) > 0) out.push_back(k);
  }
  return out;
}

TEST(Figure5Plans, SortAndHashPlansAgree) {
  // Figure 6's regime: distinct keys well beyond the operators' memory, so
  // both plans must spill.
  Schema schema(2);
  RowBuffer t1 = MakeTable(schema, 4000, 100, /*seed=*/201);
  RowBuffer t2 = MakeTable(schema, 3000, 100, /*seed=*/202);
  RowVec expected = ReferenceIntersectDistinct(ToRowVec(t1), ToRowVec(t2));

  TempFileManager temp;

  // Sort-based plan (Figure 5 right): sort+dedup each input, merge join.
  QueryCounters sort_counters;
  SortConfig sort_config;
  sort_config.memory_rows = 512;  // force spilling
  BufferScan scan1(&schema, &t1);
  BufferScan scan2(&schema, &t2);
  SortOperator sort1(&scan1, &sort_counters, &temp, sort_config);
  SortOperator sort2(&scan2, &sort_counters, &temp, sort_config);
  DedupOperator dedup1(&sort1);
  DedupOperator dedup2(&sort2);
  MergeJoin intersect(&dedup1, &dedup2, JoinType::kLeftSemi, &sort_counters);
  RowVec sort_result = DrainValidated(&intersect);

  // Hash-based plan (Figure 5 left): hash dedup each input, hash join.
  QueryCounters hash_counters;
  BufferScan scan3(&schema, &t1);
  BufferScan scan4(&schema, &t2);
  HashAggregate hdedup1(&scan3, /*group_prefix=*/2, {}, /*memory_groups=*/256,
                        &hash_counters, &temp, FallbackPolicy::kPartition);
  HashAggregate hdedup2(&scan4, /*group_prefix=*/2, {}, /*memory_groups=*/256,
                        &hash_counters, &temp, FallbackPolicy::kPartition);
  GraceHashJoin hjoin(&hdedup1, &hdedup2, /*bind_columns=*/2,
                      JoinTypeHash::kLeftSemi, /*memory_rows=*/256,
                      &hash_counters, &temp, FallbackPolicy::kPartition);
  RowVec hash_result = DrainValidated(&hjoin, /*check_codes=*/false);

  Canonicalize(&sort_result);
  Canonicalize(&hash_result);
  RowVec exp = expected;
  Canonicalize(&exp);
  EXPECT_EQ(sort_result, exp);
  EXPECT_EQ(hash_result, exp);

  // The Figure 6 discussion: the sort-based plan spills each input row at
  // most once; the hash-based plan spills rows at aggregation AND at the
  // join, i.e. strictly more.
  EXPECT_GT(hash_counters.rows_spilled, sort_counters.rows_spilled);
}

TEST(CountDistinct, TwoStepPipeline) {
  // "select k1, count(distinct k2) group by k1": sort on (k1,k2), dedup,
  // then in-stream count per k1 -- the sort detects duplicates by offsets
  // equal to the column count, the aggregation detects group boundaries by
  // offsets smaller than the grouping key (Section 3).
  Schema schema(2);
  RowBuffer t = MakeTable(schema, 5000, 6, /*seed=*/203);
  std::map<uint64_t, std::set<uint64_t>> reference;
  for (size_t i = 0; i < t.size(); ++i) {
    reference[t.row(i)[0]].insert(t.row(i)[1]);
  }

  QueryCounters counters;
  TempFileManager temp;
  BufferScan scan(&schema, &t);
  SortConfig config;
  config.memory_rows = 512;
  SortOperator sort(&scan, &counters, &temp, config);
  DedupOperator dedup(&sort);
  InStreamAggregate agg(&dedup, /*group_prefix=*/1, {{AggFn::kCount, 0}},
                        &counters);
  RowVec out = DrainValidated(&agg);
  ASSERT_EQ(out.size(), reference.size());
  for (const auto& row : out) {
    EXPECT_EQ(row[1], reference[row[0]].size()) << "k1=" << row[0];
  }
}

TEST(PipelineCodes, SortFilterDedupAggregateAllValid) {
  // A four-stage pipeline where every stage consumes the previous stage's
  // codes; DrainValidated checks the final stage, and the intermediate
  // stages are checked by construction (their outputs feed OVC-requiring
  // operators).
  Schema schema(3, 1);
  RowBuffer t = MakeTable(schema, 8000, 4, /*seed=*/204);
  QueryCounters counters;
  TempFileManager temp;
  BufferScan scan(&schema, &t);
  SortConfig config;
  config.memory_rows = 1024;
  SortOperator sort(&scan, &counters, &temp, config);
  FilterOperator filter(&sort,
                        [](const uint64_t* row) { return row[0] != 1; });
  InStreamAggregate agg(&filter, /*group_prefix=*/2, {{AggFn::kCount, 0}},
                        &counters);
  RowVec out = DrainValidated(&agg);

  std::map<std::pair<uint64_t, uint64_t>, uint64_t> reference;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t.row(i)[0] != 1) {
      ++reference[{t.row(i)[0], t.row(i)[1]}];
    }
  }
  ASSERT_EQ(out.size(), reference.size());
  for (const auto& row : out) {
    EXPECT_EQ(row[2], (reference[{row[0], row[1]}]));
  }
}

TEST(LsmQueryPipeline, ScanFeedsInStreamAggregation) {
  // Napa-style: ingest into an LSM forest, query via merged scan feeding
  // in-stream aggregation, codes end to end.
  Schema schema(2, 1);
  QueryCounters counters;
  TempFileManager temp;
  LsmForest::Options options;
  options.memtable_rows = 256;
  LsmForest forest(&schema, &counters, &temp, options);
  RowBuffer t = MakeTable(schema, 3000, 5, /*seed=*/205);
  for (size_t i = 0; i < t.size(); ++i) forest.Insert(t.row(i));

  auto scan = forest.ScanAll();
  InStreamAggregate agg(scan.get(), /*group_prefix=*/2,
                        {{AggFn::kCount, 0}, {AggFn::kSum, 2}}, &counters);
  RowVec out = DrainValidated(&agg);

  std::map<std::pair<uint64_t, uint64_t>, uint64_t> reference;
  for (size_t i = 0; i < t.size(); ++i) {
    ++reference[{t.row(i)[0], t.row(i)[1]}];
  }
  ASSERT_EQ(out.size(), reference.size());
  for (const auto& row : out) {
    EXPECT_EQ(row[2], (reference[{row[0], row[1]}]));
  }
}

TEST(OrderPreservingHashJoinPipeline, ProbeCodesSurviveJoin) {
  // Section 4.9: probe-side order and codes survive an in-memory hash join
  // and remain usable by a downstream in-stream aggregation.
  Schema probe_schema(2, 1);
  Schema build_schema(2, 1);
  RowBuffer probe = MakeTable(probe_schema, 2000, 5, /*seed=*/206);
  RowBuffer build = MakeTable(build_schema, 40, 5, /*seed=*/207);
  QueryCounters counters;
  TempFileManager temp;
  BufferScan probe_scan(&probe_schema, &probe);
  SortOperator sorted_probe(&probe_scan, &counters, &temp, SortConfig());
  BufferScan build_scan(&build_schema, &build);
  OrderPreservingHashJoin join(&sorted_probe, &build_scan, /*bind_columns=*/2,
                               JoinTypeHash::kLeftSemi, /*memory_rows=*/4096,
                               &counters);
  InStreamAggregate agg(&join, /*group_prefix=*/2, {{AggFn::kCount, 0}},
                        &counters);
  RowVec out = DrainValidated(&agg);
  // Reference.
  std::set<std::pair<uint64_t, uint64_t>> build_keys;
  for (size_t i = 0; i < build.size(); ++i) {
    build_keys.insert({build.row(i)[0], build.row(i)[1]});
  }
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> reference;
  for (size_t i = 0; i < probe.size(); ++i) {
    const auto key = std::make_pair(probe.row(i)[0], probe.row(i)[1]);
    if (build_keys.count(key) > 0) ++reference[key];
  }
  ASSERT_EQ(out.size(), reference.size());
  for (const auto& row : out) {
    EXPECT_EQ(row[2], (reference[{row[0], row[1]}]));
  }
}

}  // namespace
}  // namespace ovc
