// Order-preserving shuffle (Section 4.10): splitting exchange with
// per-partition filter-theorem codes, merging exchange (threaded and
// inline), child lifecycle, re-open, and threaded shutdown paths.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ovc_checker.h"
#include "exec/exchange.h"
#include "exec/scan.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::DrainValidated;
using ::ovc::testing::MakeTable;
using ::ovc::testing::RowVec;
using ::ovc::testing::ToRowVec;

/// Pass-through wrapper that counts lifecycle calls on the wrapped child.
class LifecycleSpy : public Operator {
 public:
  explicit LifecycleSpy(Operator* child) : child_(child) {}

  void Open() override {
    ++opens;
    child_->Open();
  }
  uint32_t NextBatch(RowBlock* out) override {
    return child_->NextBatch(out);
  }
  void Close() override {
    ++closes;
    child_->Close();
  }
  const Schema& schema() const override { return child_->schema(); }
  bool sorted() const override { return child_->sorted(); }
  bool has_ovc() const override { return child_->has_ovc(); }

  int opens = 0;
  int closes = 0;

 private:
  Operator* child_;
};

InMemoryRun RunFromSorted(const Schema& schema, const RowBuffer& sorted) {
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, nullptr);
  InMemoryRun run(schema.total_columns());
  for (size_t i = 0; i < sorted.size(); ++i) {
    Ovc code = i == 0 ? codec.MakeInitial(sorted.row(i))
                      : codec.MakeFromRow(
                            sorted.row(i),
                            cmp.FirstDifference(sorted.row(i - 1),
                                                sorted.row(i), 0));
    run.Append(sorted.row(i), code);
  }
  return run;
}

struct SplitParam {
  SplitExchange::Policy policy;
  uint32_t partitions;
  const char* name;
};

class SplitExchangeTest : public ::testing::TestWithParam<SplitParam> {};

TEST_P(SplitExchangeTest, PartitionsAreValidStreamsCoveringInput) {
  const auto p = GetParam();
  Schema schema(3, 1);
  RowBuffer table = MakeTable(schema, 1200, 4, /*seed=*/91, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  QueryCounters counters;
  SplitExchange split(&scan, p.partitions, p.policy, &counters);

  RowVec all;
  for (uint32_t i = 0; i < p.partitions; ++i) {
    RowVec part = DrainValidated(split.partition(i));
    for (auto& row : part) all.push_back(std::move(row));
  }
  RowVec expected = ToRowVec(table);
  Canonicalize(&all);
  Canonicalize(&expected);
  EXPECT_EQ(all, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SplitExchangeTest,
    ::testing::Values(
        SplitParam{SplitExchange::Policy::kHashKey, 4, "hash4"},
        SplitParam{SplitExchange::Policy::kRoundRobin, 3, "roundrobin3"},
        SplitParam{SplitExchange::Policy::kHashKey, 1, "hash1"}),
    [](const ::testing::TestParamInfo<SplitParam>& info) {
      return info.param.name;
    });

TEST(SplitExchange, InterleavedConsumptionStaysValid) {
  // Consume partitions round-robin a row at a time (one-row blocks):
  // buffering must keep every partition stream independently valid.
  Schema schema(2);
  RowBuffer table = MakeTable(schema, 300, 3, /*seed=*/92, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  SplitExchange split(&scan, 3, SplitExchange::Policy::kRoundRobin, nullptr);
  std::vector<OvcStreamChecker> checkers(3, OvcStreamChecker(&schema));
  std::vector<bool> done(3, false);
  RowBlock block(schema.total_columns(), /*capacity_rows=*/1);
  uint64_t total = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (uint32_t i = 0; i < 3; ++i) {
      if (done[i]) continue;
      if (split.partition(i)->NextBatch(&block) == 1) {
        ASSERT_TRUE(checkers[i].Observe(block.row(0), block.code(0)))
            << checkers[i].error();
        ++total;
        progress = true;
      } else {
        done[i] = true;
      }
    }
  }
  EXPECT_EQ(total, 300u);
}

TEST(SplitExchange, ChildObservesBalancedOpenClose) {
  // The shared child is opened lazily once per cycle and closed exactly
  // once -- when every partition stream has been closed -- even when the
  // partitions are drained strictly one after another (rows for later
  // partitions stay buffered across the earlier partitions' Close()).
  Schema schema(2, 1);
  RowBuffer table = MakeTable(schema, 400, 4, /*seed=*/7, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  LifecycleSpy spy(&scan);
  SplitExchange split(&spy, 3, SplitExchange::Policy::kRoundRobin, nullptr);

  for (int cycle = 1; cycle <= 2; ++cycle) {
    RowVec all;
    for (uint32_t i = 0; i < 3; ++i) {
      RowVec part = DrainValidated(split.partition(i));
      for (auto& row : part) all.push_back(std::move(row));
      if (i + 1 < 3) {
        // Mid-cycle: some streams closed, others not -- the child must
        // stay open (its buffered rows feed the remaining partitions).
        EXPECT_EQ(spy.closes, cycle - 1) << "cycle " << cycle;
      }
    }
    // All three streams closed: the child observed exactly one
    // Open()/Close() pair per cycle, and a fresh cycle rescans it.
    EXPECT_EQ(spy.opens, cycle);
    EXPECT_EQ(spy.closes, cycle);
    RowVec expected = ToRowVec(table);
    Canonicalize(&all);
    Canonicalize(&expected);
    EXPECT_EQ(all, expected) << "cycle " << cycle;
  }
}

TEST(SplitExchange, UnsortedChildFeedsParallelSortShape) {
  // An unsorted child is accepted (the front half of the parallel-sort
  // shape): partition streams are unsorted, code-free, and cover the
  // input.
  Schema schema(2, 1);
  RowBuffer table = MakeTable(schema, 500, 5, /*seed=*/17, /*sorted=*/false);
  BufferScan scan(&schema, &table);
  SplitExchange split(&scan, 4, SplitExchange::Policy::kRoundRobin, nullptr);
  RowVec all;
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(split.partition(i)->sorted());
    EXPECT_FALSE(split.partition(i)->has_ovc());
    RowVec part = DrainValidated(split.partition(i), /*check_codes=*/false);
    for (auto& row : part) all.push_back(std::move(row));
  }
  RowVec expected = ToRowVec(table);
  Canonicalize(&all);
  Canonicalize(&expected);
  EXPECT_EQ(all, expected);
}

TEST(SplitExchange, BatchPullMatchesRowPull) {
  // The partition streams' real NextBatch path yields exactly the
  // row-at-a-time stream, block boundary codes included.
  Schema schema(3, 1);
  RowBuffer table = MakeTable(schema, 700, 4, /*seed=*/23, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);

  RunScan row_scan(&schema, &run);
  SplitExchange row_split(&row_scan, 3, SplitExchange::Policy::kHashKey,
                          nullptr);
  RunScan batch_scan(&schema, &run);
  SplitExchange batch_split(&batch_scan, 3, SplitExchange::Policy::kHashKey,
                            nullptr);

  for (uint32_t i = 0; i < 3; ++i) {
    RowVec expected = DrainValidated(row_split.partition(i));
    Operator* part = batch_split.partition(i);
    part->Open();
    OvcStreamChecker checker(&schema);
    RowVec got;
    RowBlock block(schema.total_columns(), /*capacity_rows=*/64);
    uint32_t n;
    while ((n = part->NextBatch(&block)) > 0) {
      for (uint32_t r = 0; r < n; ++r) {
        ASSERT_TRUE(checker.Observe(block.row(r), block.code(r)))
            << checker.error();
        got.emplace_back(block.row(r),
                         block.row(r) + schema.total_columns());
      }
    }
    part->Close();
    EXPECT_EQ(got, expected) << "partition " << i;
  }
}

class MergeExchangeTest : public ::testing::TestWithParam<bool> {};

TEST_P(MergeExchangeTest, MergesPartitionsBackToOneValidStream) {
  const bool threaded = GetParam();
  Schema schema(3, 1);
  const uint32_t kInputs = 5;
  std::vector<RowBuffer> tables;
  std::vector<std::unique_ptr<InMemoryRun>> runs;
  std::vector<std::unique_ptr<RunScan>> scans;
  std::vector<Operator*> inputs;
  RowVec expected;
  for (uint32_t i = 0; i < kInputs; ++i) {
    tables.push_back(
        MakeTable(schema, 200 + 50 * i, 4, /*seed=*/100 + i, /*sorted=*/true));
  }
  for (uint32_t i = 0; i < kInputs; ++i) {
    for (const auto& row : ToRowVec(tables[i])) expected.push_back(row);
    runs.push_back(
        std::make_unique<InMemoryRun>(RunFromSorted(schema, tables[i])));
    scans.push_back(std::make_unique<RunScan>(&schema, runs.back().get()));
    inputs.push_back(scans.back().get());
  }
  QueryCounters counters;
  MergeExchange::Options options;
  options.threaded = threaded;
  options.batch_rows = 64;
  MergeExchange exchange(inputs, &counters, options);
  RowVec out = DrainValidated(&exchange);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(Modes, MergeExchangeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "threaded" : "inline";
                         });

// Shared fixture bits for the threaded-lifecycle tests.
struct MergeInputs {
  MergeInputs(uint32_t inputs, uint64_t rows_each, uint32_t seed_base)
      : schema(2) {
    for (uint32_t i = 0; i < inputs; ++i) {
      tables.push_back(MakeTable(schema, rows_each, 4,
                                 /*seed=*/seed_base + i, /*sorted=*/true));
    }
    for (uint32_t i = 0; i < inputs; ++i) {
      runs.push_back(
          std::make_unique<InMemoryRun>(RunFromSorted(schema, tables[i])));
      scans.push_back(std::make_unique<RunScan>(&schema, runs.back().get()));
      ops.push_back(scans.back().get());
    }
  }

  Schema schema;
  std::vector<RowBuffer> tables;
  std::vector<std::unique_ptr<InMemoryRun>> runs;
  std::vector<std::unique_ptr<RunScan>> scans;
  std::vector<Operator*> ops;
};

TEST(MergeExchange, ReopenAfterCloseRestartsCleanly) {
  // A second Open() after Close() must not stack fresh queues, producers,
  // and sources onto leftover state: both cycles must produce the exact
  // same valid stream (RunScan supports rescans). Holds in both modes.
  for (bool threaded : {true, false}) {
    MergeInputs in(3, 300, /*seed_base=*/40);
    MergeExchange::Options options;
    options.threaded = threaded;
    options.batch_rows = 32;
    MergeExchange exchange(in.ops, nullptr, options);
    RowVec first = DrainValidated(&exchange);
    EXPECT_EQ(first.size(), 900u);
    RowVec second = DrainValidated(&exchange);
    EXPECT_EQ(first, second) << "threaded=" << threaded;
  }
}

TEST(MergeExchange, ReopenWithoutCloseResetsLeftoverState) {
  // Open() while a previous cycle is still live (no Close() in between)
  // resets that cycle first instead of appending to it -- including
  // closing inline-opened inputs, so every input sees balanced
  // Open()/Close() in both modes.
  for (bool threaded : {true, false}) {
    MergeInputs in(3, 300, /*seed_base=*/50);
    std::vector<std::unique_ptr<LifecycleSpy>> spies;
    std::vector<Operator*> spied;
    for (Operator* op : in.ops) {
      spies.push_back(std::make_unique<LifecycleSpy>(op));
      spied.push_back(spies.back().get());
    }
    MergeExchange::Options options;
    options.threaded = threaded;
    MergeExchange exchange(spied, nullptr, options);
    exchange.Open();
    RowBlock block(in.schema.total_columns(), /*capacity_rows=*/5);
    ASSERT_EQ(exchange.NextBatch(&block), 5u);
    // Re-open mid-stream; the fresh cycle must deliver the full stream.
    RowVec all = DrainValidated(&exchange);
    EXPECT_EQ(all.size(), 900u) << "threaded=" << threaded;
    for (const auto& spy : spies) {
      EXPECT_EQ(spy->opens, 2) << "threaded=" << threaded;
      EXPECT_EQ(spy->closes, 2) << "threaded=" << threaded;
    }
  }
}

TEST(MergeExchange, CopyingConsumerSurvivesBatchBoundaries) {
  // Regression for the row lifetime contract (exec/operator.h): a
  // queue-fed merge frees a producer batch when it pops the next one, so a
  // consumer that copies each row before the next pull -- across many
  // batch boundaries (tiny batch_rows forces them) -- must see the intact
  // stream.
  MergeInputs in(4, 250, /*seed_base=*/60);
  MergeExchange::Options options;
  options.batch_rows = 3;  // hundreds of boundaries
  options.queue_batches = 2;
  MergeExchange exchange(in.ops, nullptr, options);
  RowVec out = DrainValidated(&exchange);  // copies every row, checks codes
  RowVec expected;
  for (const auto& t : in.tables) {
    for (const auto& row : ToRowVec(t)) expected.push_back(row);
  }
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
}

TEST(MergeExchange, NextBatchDrainsWholeBlocks) {
  // The block output path: NextBatch pulls whole blocks out
  // of the merge, with codes valid across block boundaries.
  MergeInputs in(3, 400, /*seed_base=*/70);
  MergeExchange::Options options;
  options.batch_rows = 64;
  MergeExchange exchange(in.ops, nullptr, options);
  exchange.Open();
  OvcStreamChecker checker(&in.schema);
  uint64_t rows = 0;
  RowBlock block(in.schema.total_columns(), /*capacity_rows=*/57);
  uint32_t n;
  while ((n = exchange.NextBatch(&block)) > 0) {
    for (uint32_t r = 0; r < n; ++r) {
      ASSERT_TRUE(checker.Observe(block.row(r), block.code(r)))
          << checker.error();
    }
    rows += n;
  }
  exchange.Close();
  EXPECT_EQ(rows, 1200u);
}

struct QueueShape {
  uint32_t batch_rows;
  size_t queue_batches;
};

class MergeExchangeQueueTest : public ::testing::TestWithParam<QueueShape> {};

TEST_P(MergeExchangeQueueTest, ThreadedMatchesInline) {
  // The queue-fed path must be the inline merge exactly: same rows, same
  // codes, same merge-side counters. A 3000-row batch is larger than the
  // reader's block, so one batch is served across several refills.
  MergeInputs in(3, 4000, /*seed_base=*/80);
  auto drain = [&in](bool threaded, RowVec* rows, std::vector<Ovc>* codes,
                     QueryCounters* counters) {
    MergeExchange::Options options;
    options.threaded = threaded;
    options.batch_rows = GetParam().batch_rows;
    options.queue_batches = GetParam().queue_batches;
    MergeExchange exchange(in.ops, counters, options);
    OvcStreamChecker checker(&in.schema);
    const uint32_t width = in.schema.total_columns();
    RowBlock block(width);
    exchange.Open();
    uint32_t n;
    while ((n = exchange.NextBatch(&block)) > 0) {
      for (uint32_t r = 0; r < n; ++r) {
        ASSERT_TRUE(checker.Observe(block.row(r), block.code(r)))
            << checker.error();
        rows->emplace_back(block.row(r), block.row(r) + width);
        codes->push_back(block.code(r));
      }
    }
    exchange.Close();
  };
  RowVec inline_rows, threaded_rows;
  std::vector<Ovc> inline_codes, threaded_codes;
  QueryCounters inline_counters, threaded_counters;
  drain(false, &inline_rows, &inline_codes, &inline_counters);
  drain(true, &threaded_rows, &threaded_codes, &threaded_counters);
  EXPECT_EQ(inline_rows.size(), 12000u);
  EXPECT_EQ(threaded_rows, inline_rows);
  EXPECT_EQ(threaded_codes, inline_codes);
  EXPECT_TRUE(threaded_counters == inline_counters)
      << threaded_counters.ToString() << " vs " << inline_counters.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MergeExchangeQueueTest,
    ::testing::Values(QueueShape{1, 1}, QueueShape{1, 4}, QueueShape{7, 1},
                      QueueShape{7, 4}, QueueShape{1024, 1},
                      QueueShape{1024, 4}, QueueShape{3000, 1},
                      QueueShape{3000, 4}),
    [](const ::testing::TestParamInfo<QueueShape>& info) {
      return "batch" + std::to_string(info.param.batch_rows) + "_queue" +
             std::to_string(info.param.queue_batches);
    });

TEST(MergeExchange, EarlyCloseWhileProducersBlockedOnFullQueues) {
  // Tight queues (1 batch deep) with large inputs guarantee the producers
  // are parked in BoundedBatchQueue::Push when Close() lands mid-stream;
  // Close must cancel, join, and leave the inputs closed.
  MergeInputs in(3, 20000, /*seed_base=*/80);
  std::vector<std::unique_ptr<LifecycleSpy>> spies;
  std::vector<Operator*> spied;
  for (Operator* op : in.ops) {
    spies.push_back(std::make_unique<LifecycleSpy>(op));
    spied.push_back(spies.back().get());
  }
  MergeExchange::Options options;
  options.batch_rows = 16;
  options.queue_batches = 1;
  MergeExchange exchange(spied, nullptr, options);
  exchange.Open();
  RowBlock block(in.schema.total_columns(), /*capacity_rows=*/10);
  ASSERT_EQ(exchange.NextBatch(&block), 10u);
  exchange.Close();  // producers blocked on full queues: must not hang
  for (const auto& spy : spies) {
    EXPECT_EQ(spy->opens, 1);
    EXPECT_EQ(spy->closes, 1);
  }
}

TEST(MergeExchange, DestructorWithoutCloseJoinsProducers) {
  MergeInputs in(3, 20000, /*seed_base=*/85);
  {
    MergeExchange::Options options;
    options.batch_rows = 16;
    options.queue_batches = 1;
    MergeExchange exchange(in.ops, nullptr, options);
    exchange.Open();
    RowBlock block(in.schema.total_columns(), /*capacity_rows=*/10);
    ASSERT_EQ(exchange.NextBatch(&block), 10u);
    // Destructor with live, blocked producers: must cancel and join.
  }
}

TEST(MergeExchange, DestructorWithoutCloseBalancesInlineInputs) {
  // Inline mode opened the inputs on the consumer thread; destruction
  // after Open() without Close() must still balance those opens.
  MergeInputs in(3, 300, /*seed_base=*/87);
  std::vector<std::unique_ptr<LifecycleSpy>> spies;
  std::vector<Operator*> spied;
  for (Operator* op : in.ops) {
    spies.push_back(std::make_unique<LifecycleSpy>(op));
    spied.push_back(spies.back().get());
  }
  {
    MergeExchange::Options options;
    options.threaded = false;
    MergeExchange exchange(spied, nullptr, options);
    exchange.Open();
    RowBlock block(in.schema.total_columns(), /*capacity_rows=*/10);
    ASSERT_EQ(exchange.NextBatch(&block), 10u);
  }
  for (const auto& spy : spies) {
    EXPECT_EQ(spy->opens, 1);
    EXPECT_EQ(spy->closes, 1);
  }
}

TEST(MergeExchange, EarlyCloseJoinsProducers) {
  Schema schema(2);
  std::vector<RowBuffer> tables;
  std::vector<std::unique_ptr<InMemoryRun>> runs;
  std::vector<std::unique_ptr<RunScan>> scans;
  std::vector<Operator*> inputs;
  for (int i = 0; i < 3; ++i) {
    tables.push_back(MakeTable(schema, 5000, 4, /*seed=*/i, /*sorted=*/true));
  }
  for (int i = 0; i < 3; ++i) {
    runs.push_back(
        std::make_unique<InMemoryRun>(RunFromSorted(schema, tables[i])));
    scans.push_back(std::make_unique<RunScan>(&schema, runs.back().get()));
    inputs.push_back(scans.back().get());
  }
  MergeExchange exchange(inputs, nullptr);
  exchange.Open();
  RowBlock block(schema.total_columns(), /*capacity_rows=*/10);
  ASSERT_EQ(exchange.NextBatch(&block), 10u);
  exchange.Close();  // must not hang or crash with blocked producers
}

TEST(SplitThenMerge, RoundTripPreservesStream) {
  // split -> merge recomposes a sorted stream (the paper's decomposition of
  // many-to-many shuffle into one-to-many plus many-to-one).
  Schema schema(2, 1);
  RowBuffer table = MakeTable(schema, 600, 5, /*seed=*/93, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  SplitExchange split(&scan, 4, SplitExchange::Policy::kHashKey, nullptr);
  std::vector<Operator*> parts;
  for (uint32_t i = 0; i < 4; ++i) parts.push_back(split.partition(i));
  MergeExchange::Options options;
  options.threaded = false;  // partitions share the child operator
  MergeExchange merge(parts, nullptr, options);
  RowVec out = DrainValidated(&merge);
  RowVec expected = ToRowVec(table);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
}

}  // namespace
}  // namespace ovc
