// Batched execution: RowBlock semantics, capacity parity of every operator's
// block stream, the filter's and sort's block paths, and block-sized merger
// output -- all validated with OvcStreamChecker so codes are proven correct
// across block boundaries.

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/profile.h"
#include "core/ovc_checker.h"
#include "exec/aggregate.h"
#include "exec/dedup.h"
#include "exec/exchange.h"
#include "exec/filter.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/in_sort_aggregate.h"
#include "exec/limit.h"
#include "exec/merge_join.h"
#include "exec/profiled_operator.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/set_operation.h"
#include "exec/sort_operator.h"
#include "sort/run.h"
#include "storage/btree.h"
#include "storage/column_store.h"
#include "storage/lsm.h"
#include "tests/test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::MakeTable;
using ::ovc::testing::RowVec;
using ::ovc::testing::RunFromSorted;

/// Drains `op` through NextBatch with block capacity `batch_rows`,
/// validating the stream with OvcStreamChecker when `check_codes`.
void DrainBatched(Operator* op, uint32_t batch_rows, bool check_codes,
                  RowVec* rows, std::vector<Ovc>* codes) {
  const uint32_t width = op->schema().total_columns();
  op->Open();
  OvcStreamChecker checker(&op->schema());
  RowBlock block(width, batch_rows);
  uint32_t n;
  while ((n = op->NextBatch(&block)) > 0) {
    ASSERT_LE(n, batch_rows);
    for (uint32_t i = 0; i < n; ++i) {
      rows->emplace_back(block.row(i), block.row(i) + width);
      codes->push_back(block.code(i));
      if (check_codes) {
        ASSERT_TRUE(checker.Observe(block.row(i), block.code(i)))
            << checker.error();
      }
    }
  }
  op->Close();
}

TEST(RowBlock, AppendTruncateAndPointerStability) {
  RowBlock block(3, 4);
  EXPECT_EQ(block.width(), 3u);
  EXPECT_EQ(block.capacity(), 4u);
  EXPECT_TRUE(block.empty());

  const uint64_t r0[3] = {1, 2, 3};
  const uint64_t r1[3] = {4, 5, 6};
  block.Append(r0, 7);
  block.Append(r1, 9);
  EXPECT_EQ(block.size(), 2u);
  EXPECT_FALSE(block.full());
  EXPECT_EQ(block.row(1)[2], 6u);
  EXPECT_EQ(block.code(0), 7u);
  EXPECT_EQ(block.code(1), 9u);

  // Rows are contiguous: row(1) is exactly width past row(0).
  EXPECT_EQ(block.row(0) + block.width(), block.row(1));

  // Clear/Truncate move the size only; storage stays in place.
  const uint64_t* before = block.row(0);
  block.Truncate(1);
  EXPECT_EQ(block.size(), 1u);
  block.Clear();
  block.Append(r1, 1);
  EXPECT_EQ(block.row(0), before);
  EXPECT_EQ(block.row(0)[0], 4u);

  // Bulk append with null codes zero-fills the code array.
  block.Clear();
  const uint64_t two_rows[6] = {1, 1, 1, 2, 2, 2};
  block.AppendContiguous(two_rows, nullptr, 2);
  EXPECT_EQ(block.size(), 2u);
  EXPECT_EQ(block.code(0), 0u);
  EXPECT_EQ(block.code(1), 0u);
}

// ---------------------------------------------------------------------------
// Capacity parity: every operator class, drained at block capacities 1, 3,
// and the default, must deliver one stream -- the same rows and codes, a
// stream OvcStreamChecker accepts wherever the operator promises sorted
// coded output, and the same work counters.
// ---------------------------------------------------------------------------

/// Owns one operator tree and everything it reads: parts are destroyed in
/// reverse build order, so consumers go before their inputs.
class Tree {
 public:
  ~Tree() {
    while (!parts_.empty()) parts_.pop_back();
  }

  template <typename T, typename... Args>
  T* Make(Args&&... args) {
    auto part = std::make_shared<T>(std::forward<Args>(args)...);
    parts_.push_back(part);
    return part.get();
  }

  Operator* Own(std::unique_ptr<Operator> op) {
    std::shared_ptr<Operator> part(std::move(op));
    parts_.push_back(part);
    return part.get();
  }

  QueryCounters counters;
  TempFileManager temp;

 private:
  std::vector<std::shared_ptr<void>> parts_;
};

/// Read-only inputs shared by every case.
struct Inputs {
  Inputs()
      : s21(2, 1),
        s31(3, 1),
        s20(2, 0),
        unsorted(MakeTable(s21, 1000, 5, /*seed=*/23)),
        sorted(MakeTable(s21, 1500, 6, /*seed=*/31, /*sorted=*/true)),
        sorted31(MakeTable(s31, 1234, 4, /*seed=*/29, /*sorted=*/true)),
        keys_a(MakeTable(s20, 600, 4, /*seed=*/41, /*sorted=*/true)),
        keys_b(MakeTable(s20, 500, 4, /*seed=*/43, /*sorted=*/true)),
        join_left(MakeTable(s21, 300, 20, /*seed=*/47, /*sorted=*/true)),
        join_right(MakeTable(s21, 200, 20, /*seed=*/53, /*sorted=*/true)),
        join_build(MakeTable(s21, 120, 20, /*seed=*/59)),
        sparse(MakeTable(s21, 12, 20, /*seed=*/61, /*sorted=*/true)),
        run(RunFromSorted(s21, sorted)),
        run31(RunFromSorted(s31, sorted31)),
        run_a(RunFromSorted(s20, keys_a)),
        run_b(RunFromSorted(s20, keys_b)),
        run_left(RunFromSorted(s21, join_left)),
        run_right(RunFromSorted(s21, join_right)) {}

  Schema s21, s31, s20;
  RowBuffer unsorted, sorted, sorted31, keys_a, keys_b;
  /// Join inputs; `sparse` misses some of the left side's join keys.
  RowBuffer join_left, join_right, join_build, sparse;
  InMemoryRun run, run31, run_a, run_b, run_left, run_right;
};

const Inputs& In() {
  static const Inputs* inputs = new Inputs();
  return *inputs;
}

struct ParityCase {
  std::string name;
  std::function<Operator*(Tree*)> build;
};

void PrintTo(const ParityCase& c, std::ostream* os) { *os << c.name; }

Operator* Scan(Tree* t, const Schema& schema, const InMemoryRun& run) {
  return t->Make<RunScan>(&schema, &run);
}

Operator* Unsorted(Tree* t, const RowBuffer& table = In().unsorted) {
  return t->Make<BufferScan>(&In().s21, &table);
}

SortConfig SpillingConfig() {
  SortConfig config;
  config.memory_rows = 100;
  config.fan_in = 3;  // several runs per level: multi-level merges
  return config;
}

ParityCase MergeJoinCase(JoinType type) {
  return {std::string("merge_join_") + JoinTypeName(type), [type](Tree* t) {
            return t->Make<MergeJoin>(Scan(t, In().s21, In().run_left),
                                      Scan(t, In().s21, In().run_right), type,
                                      &t->counters);
          }};
}

ParityCase SetOpCase(const char* name, SetOpType type, bool all) {
  return {name, [type, all](Tree* t) {
            return t->Make<SetOperation>(Scan(t, In().s20, In().run_a),
                                         Scan(t, In().s20, In().run_b), type,
                                         all, &t->counters);
          }};
}

ParityCase HashJoinCase(const char* name, JoinTypeHash type) {
  return {name, [type](Tree* t) {
            return t->Make<OrderPreservingHashJoin>(
                Scan(t, In().s21, In().run_left), Unsorted(t, In().sparse), 1,
                type, uint64_t{1} << 20, &t->counters);
          }};
}

ParityCase GraceCase(const char* name, JoinTypeHash type, uint64_t memory_rows,
                     FallbackPolicy fallback) {
  return {name, [=](Tree* t) {
            return t->Make<GraceHashJoin>(
                Unsorted(t, In().join_left), Unsorted(t, In().join_build), 1,
                type, memory_rows, &t->counters, &t->temp, fallback);
          }};
}

ParityCase HashAggCase(const char* name, uint64_t memory_groups,
                       FallbackPolicy fallback) {
  return {name, [=](Tree* t) {
            return t->Make<HashAggregate>(
                Unsorted(t), 2,
                std::vector<AggregateSpec>{{AggFn::kCount, 0},
                                           {AggFn::kSum, 2}},
                memory_groups, &t->counters, &t->temp, fallback);
          }};
}

ParityCase MergeExchangeCase(const char* name, bool threaded) {
  return {name, [threaded](Tree* t) {
            MergeExchange::Options options;
            options.threaded = threaded;
            options.batch_rows = 64;
            return t->Make<MergeExchange>(
                std::vector<Operator*>{Scan(t, In().s21, In().run),
                                       Scan(t, In().s21, In().run_left),
                                       Scan(t, In().s21, In().run_right)},
                &t->counters, options);
          }};
}

std::vector<ParityCase> ParityCases() {
  std::vector<ParityCase> cases = {
      {"buffer_scan", [](Tree* t) { return Unsorted(t); }},
      {"run_scan", [](Tree* t) { return Scan(t, In().s31, In().run31); }},
      {"filter",
       [](Tree* t) {
         return t->Make<FilterOperator>(
             Scan(t, In().s21, In().run),
             [](const uint64_t* row) { return row[2] % 3 != 0; });
       }},
      {"project",
       [](Tree* t) {
         // Keeps the 2-column key prefix and swaps the payload in:
         // order-preserving, codes clamped to the surviving prefix.
         return t->Make<ProjectOperator>(Scan(t, In().s31, In().run31),
                                         Schema(2, 1),
                                         std::vector<uint32_t>{0, 1, 3});
       }},
      {"scan_filter_project_limit",
       [](Tree* t) {
         Operator* filter = t->Make<FilterOperator>(
             Scan(t, In().s31, In().run31),
             [](const uint64_t* row) { return row[2] % 2 == 0; });
         Operator* project = t->Make<ProjectOperator>(
             filter, Schema(2, 0), std::vector<uint32_t>{0, 1});
         return t->Make<LimitOperator>(project, 400);
       }},
      {"sort",
       [](Tree* t) {
         return t->Make<SortOperator>(Unsorted(t), &t->counters, &t->temp);
       }},
      {"sort_spilled",
       [](Tree* t) {
         return t->Make<SortOperator>(Unsorted(t), &t->counters, &t->temp,
                                      SpillingConfig());
       }},
      {"sort_limited_spilled",
       [](Tree* t) {
         // Cut runs, the intake cutoff and a merge that stops at 40 rows.
         return t->Make<SortOperator>(Unsorted(t), &t->counters, &t->temp,
                                      SpillingConfig(), /*limit=*/40);
       }},
      MergeExchangeCase("merge_exchange_threaded", true),
      MergeExchangeCase("merge_exchange_inline", false),
      {"split_exchange_partition",
       [](Tree* t) {
         SplitExchange* split = t->Make<SplitExchange>(
             Scan(t, In().s21, In().run), 3,
             SplitExchange::Policy::kHashKey, &t->counters);
         return split->partition(1);
       }},
      {"btree_scan",
       [](Tree* t) {
         BTree* tree = t->Make<BTree>(&In().s21, &t->counters, 16);
         for (size_t i = 0; i < In().unsorted.size(); ++i) {
           tree->Insert(In().unsorted.row(i));
         }
         return t->Own(tree->Scan());
       }},
      {"btree_range_scan",
       [](Tree* t) {
         BTree* tree = t->Make<BTree>(&In().s21, &t->counters, 16);
         for (size_t i = 0; i < In().unsorted.size(); ++i) {
           tree->Insert(In().unsorted.row(i));
         }
         const uint64_t low[3] = {1, 2, 0};
         const uint64_t high[3] = {3, 1, 0};
         return t->Own(tree->RangeScan(low, high));
       }},
      {"rle_column_scan",
       [](Tree* t) {
         RleColumnStore* store = t->Make<RleColumnStore>(&In().s31);
         store->Build(Scan(t, In().s31, In().run31));
         return t->Own(store->CreateScan());
       }},
      {"profiled",
       [](Tree* t) {
         Operator* filter = t->Make<FilterOperator>(
             Scan(t, In().s21, In().run),
             [](const uint64_t* row) { return row[2] % 2 != 0; });
         return t->Make<ProfiledOperator>(filter, t->Make<OperatorStats>());
       }},
      {"in_stream_aggregate",
       [](Tree* t) {
         return t->Make<InStreamAggregate>(
             Scan(t, In().s21, In().run), 1,
             std::vector<AggregateSpec>{{AggFn::kCount, 0}, {AggFn::kSum, 2}},
             &t->counters);
       }},
      {"in_stream_aggregate_baseline",
       [](Tree* t) {
         InStreamAggregate::Options options;
         options.use_ovc_boundaries = false;
         return t->Make<InStreamAggregate>(
             Scan(t, In().s31, In().run31), 2,
             std::vector<AggregateSpec>{{AggFn::kMin, 3}}, &t->counters,
             options);
       }},
      {"in_sort_aggregate",
       [](Tree* t) {
         return t->Make<InSortAggregate>(
             Unsorted(t), 2,
             std::vector<AggregateSpec>{{AggFn::kCount, 0}, {AggFn::kMax, 2}},
             &t->counters, &t->temp);
       }},
      {"in_sort_aggregate_spilled",
       [](Tree* t) {
         // Distinct on a 3-column prefix: enough groups to spill and merge.
         return t->Make<InSortAggregate>(Unsorted(t), 3,
                                         std::vector<AggregateSpec>{},
                                         &t->counters, &t->temp,
                                         SpillingConfig());
       }},
      {"in_sort_aggregate_limited_spilled",
       [](Tree* t) {
         // The first 7 of 25 groups, each with its whole count.
         return t->Make<InSortAggregate>(
             Unsorted(t), 2, std::vector<AggregateSpec>{{AggFn::kCount, 0}},
             &t->counters, &t->temp, SpillingConfig(), /*limit=*/7);
       }},
      SetOpCase("intersect_all", SetOpType::kIntersect, true),
      SetOpCase("except_all", SetOpType::kExcept, true),
      SetOpCase("union_all", SetOpType::kUnion, true),
      SetOpCase("union_distinct", SetOpType::kUnion, false),
      HashAggCase("hash_aggregate", uint64_t{1} << 20,
                  FallbackPolicy::kPartition),
      HashAggCase("hash_aggregate_partitioned", 4, FallbackPolicy::kPartition),
      HashAggCase("hash_aggregate_sort_fallback", 4,
                  FallbackPolicy::kSortMerge),
      {"dedup",
       [](Tree* t) {
         return t->Make<DedupOperator>(Scan(t, In().s20, In().run_a));
       }},
      HashJoinCase("hash_join_inner", JoinTypeHash::kInner),
      HashJoinCase("hash_join_left_outer", JoinTypeHash::kLeftOuter),
      HashJoinCase("hash_join_left_semi", JoinTypeHash::kLeftSemi),
      HashJoinCase("hash_join_left_anti", JoinTypeHash::kLeftAnti),
      GraceCase("grace_join_in_memory", JoinTypeHash::kInner, uint64_t{1} << 20,
                FallbackPolicy::kPartition),
      GraceCase("grace_join_partitioned", JoinTypeHash::kInner, 30,
                FallbackPolicy::kPartition),
      GraceCase("grace_join_sort_fallback", JoinTypeHash::kInner, 30,
                FallbackPolicy::kSortMerge),
      GraceCase("grace_semi_join_sort_fallback", JoinTypeHash::kLeftSemi, 30,
                FallbackPolicy::kSortMerge),
      MergeJoinCase(JoinType::kInner),
      MergeJoinCase(JoinType::kLeftOuter),
      MergeJoinCase(JoinType::kFullOuter),
      MergeJoinCase(JoinType::kLeftSemi),
      MergeJoinCase(JoinType::kRightSemi),
      MergeJoinCase(JoinType::kRightAnti),
      {"lsm_forest_scan",
       [](Tree* t) {
         LsmForest::Options options;
         options.memtable_rows = 200;
         LsmForest* forest =
             t->Make<LsmForest>(&In().s21, &t->counters, &t->temp, options);
         for (size_t i = 0; i < In().unsorted.size(); ++i) {
           forest->Insert(In().unsorted.row(i));
         }
         return t->Own(forest->ScanAll());
       }},
      {"lsm_forest_collapsing_scan",
       [](Tree* t) {
         LsmForest::Options options;
         options.memtable_rows = 200;
         options.collapse = true;
         options.collapse_fns = {StateMergeFn::kSum};
         LsmForest* forest =
             t->Make<LsmForest>(&In().s21, &t->counters, &t->temp, options);
         for (size_t i = 0; i < In().unsorted.size(); ++i) {
           forest->Insert(In().unsorted.row(i));
         }
         return t->Own(forest->ScanAll());
       }},
  };
  return cases;
}

class CapacityParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(CapacityParityTest, BlocksConcatenateToOneStream) {
  RowVec first_rows;
  std::vector<Ovc> first_codes;
  QueryCounters first_counters;
  for (uint32_t capacity : {RowBlock::kDefaultRows, 3u, 1u}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    Tree tree;
    Operator* op = GetParam().build(&tree);
    RowVec rows;
    std::vector<Ovc> codes;
    DrainBatched(op, capacity, op->sorted() && op->has_ovc(), &rows, &codes);
    if (capacity == RowBlock::kDefaultRows) {
      EXPECT_FALSE(rows.empty());
      first_rows = std::move(rows);
      first_codes = std::move(codes);
      first_counters = tree.counters;
      continue;
    }
    EXPECT_EQ(rows, first_rows);
    EXPECT_EQ(codes, first_codes);
    EXPECT_TRUE(tree.counters == first_counters)
        << tree.counters.ToString() << " vs " << first_counters.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryOperator, CapacityParityTest, ::testing::ValuesIn(ParityCases()),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Block-path specifics.
// ---------------------------------------------------------------------------

TEST(NextBatch, FilterSurvivesAllDroppedBlocks) {
  Schema schema(1, 0);
  RowBuffer table(1);
  for (uint64_t i = 0; i < 100; ++i) {
    table.AppendRow(&i);
  }
  BufferScan scan(&schema, &table);
  // Keeps only the last row: the first 9 blocks (of 10) are fully dropped
  // and NextBatch must keep pulling, not report a premature end.
  FilterOperator filter(&scan, [](const uint64_t* row) {
    return row[0] == 99;
  });

  RowVec rows;
  std::vector<Ovc> codes;
  DrainBatched(&filter, 10, /*check_codes=*/false, &rows, &codes);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], 99u);
}

TEST(NextBatch, SortOperatorServesBlocksInMemoryAndSpilled) {
  Schema schema(2, 1);
  RowBuffer table = MakeTable(schema, 4000, 6, /*seed=*/43);
  TempFileManager temp;

  // In-memory path (default budget) and spill path (tiny budget: many runs,
  // final merge through the RunFileReader merger).
  for (uint64_t memory_rows : {uint64_t{1} << 20, uint64_t{256}}) {
    BufferScan scan(&schema, &table);
    SortConfig config;
    config.memory_rows = memory_rows;
    SortOperator sort(&scan, nullptr, &temp, config);

    RowVec rows;
    std::vector<Ovc> codes;
    DrainBatched(&sort, 100, /*check_codes=*/true, &rows, &codes);
    testing::RowVec expected = testing::ReferenceSort(schema, table);
    EXPECT_EQ(rows, expected) << "memory_rows=" << memory_rows;
  }
}

TEST(NextBatch, FilterHandlesShrinkingBlockCapacity) {
  // The staging block must track the caller's capacity: after a pull with
  // a large block, a pull with a smaller one may not overflow it.
  Schema schema(2, 0);
  RowBuffer table = MakeTable(schema, 400, 4, /*seed=*/61, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  FilterOperator filter(&scan, [](const uint64_t*) { return true; });

  filter.Open();
  RowBlock big(schema.total_columns(), 100);
  RowBlock small(schema.total_columns(), 8);
  ASSERT_EQ(filter.NextBatch(&big), 100u);
  uint64_t total = 100;
  uint32_t n;
  while ((n = filter.NextBatch(&small)) > 0) {
    ASSERT_LE(n, small.capacity());
    total += n;
  }
  filter.Close();
  EXPECT_EQ(total, 400u);
}

TEST(NextBatch, BlockPredicateMayMarkSurvivorsOnly) {
  // A block predicate that only sets keep[i] for survivors (never writes
  // zeroes) must work: the keep array is pre-zeroed per block, so stale
  // entries from earlier blocks cannot leak through.
  Schema schema(1, 0);
  RowBuffer table(1);
  for (uint64_t i = 0; i < 60; ++i) {
    table.AppendRow(&i);
  }
  BufferScan scan(&schema, &table);
  FilterOperator filter(
      &scan, [](const uint64_t* row) { return row[0] % 5 == 0; },
      [](const RowBlock& block, uint8_t* keep) {
        for (uint32_t i = 0; i < block.size(); ++i) {
          if (block.row(i)[0] % 5 == 0) keep[i] = 1;  // survivors only
        }
      });

  RowVec rows;
  std::vector<Ovc> codes;
  DrainBatched(&filter, 10, /*check_codes=*/false, &rows, &codes);
  ASSERT_EQ(rows.size(), 12u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0], i * 5);
  }
}

TEST(OvcMergerBlocks, NextBlockMatchesRowNext) {
  Schema schema(2, 0);
  OvcCodec codec(&schema);
  KeyComparator comparator(&schema, nullptr);

  // Four sorted coded runs from disjoint-ish random tables.
  std::vector<std::unique_ptr<InMemoryRun>> runs;
  std::vector<RowBuffer> tables;
  for (uint64_t f = 0; f < 4; ++f) {
    tables.push_back(MakeTable(schema, 700 + 13 * f, 5, /*seed=*/53 + f,
                               /*sorted=*/true));
  }
  for (auto& t : tables) {
    runs.push_back(std::make_unique<InMemoryRun>(RunFromSorted(schema, t)));
  }
  auto make_sources = [&runs](std::vector<InMemoryRunSource>* storage) {
    for (auto& run : runs) storage->emplace_back(run.get());
    std::vector<InMemoryRunSource*> sources;
    for (auto& source : *storage) sources.push_back(&source);
    return sources;
  };

  // Row at a time.
  std::vector<InMemoryRunSource> row_storage;
  OvcMergerT<InMemoryRunSource> row_merger(&codec, &comparator,
                                           make_sources(&row_storage));
  RowVec rows_by_row;
  std::vector<Ovc> codes_by_row;
  RowRef ref;
  while (row_merger.Next(&ref)) {
    rows_by_row.emplace_back(ref.cols, ref.cols + schema.total_columns());
    codes_by_row.push_back(ref.ovc);
  }

  // Block-sized output with an odd block size.
  std::vector<InMemoryRunSource> block_storage;
  OvcMergerT<InMemoryRunSource> block_merger(&codec, &comparator,
                                             make_sources(&block_storage));
  OvcStreamChecker checker(&schema);
  RowVec rows_by_block;
  std::vector<Ovc> codes_by_block;
  RowBlock block(schema.total_columns(), 37);
  uint32_t n;
  while ((n = block_merger.NextBlock(&block)) > 0) {
    for (uint32_t i = 0; i < n; ++i) {
      rows_by_block.emplace_back(block.row(i),
                                 block.row(i) + schema.total_columns());
      codes_by_block.push_back(block.code(i));
      ASSERT_TRUE(checker.Observe(block.row(i), block.code(i)))
          << checker.error();
    }
  }

  EXPECT_EQ(rows_by_block, rows_by_row);
  EXPECT_EQ(codes_by_block, codes_by_row);
  EXPECT_TRUE(checker.ok()) << checker.error();
}

}  // namespace
}  // namespace ovc
