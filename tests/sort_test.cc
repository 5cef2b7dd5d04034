// External merge sort: run files, all run-generation modes, spilling and
// merge cascading, replacement selection, segmented sort.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ovc_checker.h"
#include "exec/in_sort_aggregate.h"
#include "exec/merge_join.h"
#include "exec/scan.h"
#include "exec/set_operation.h"
#include "pq/loser_tree.h"
#include "sort/external_sort.h"
#include "sort/run_file.h"
#include "sort/run_generation.h"
#include "sort/segmented_sort.h"
#include "storage/lsm.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::DrainValidated;
using ::ovc::testing::MakeTable;
using ::ovc::testing::ReferenceSort;
using ::ovc::testing::RowVec;
using ::ovc::testing::RunFromSorted;
using ::ovc::testing::ToRowVec;

TEST(RunFile, RoundtripPreservesRowsAndCodes) {
  Schema schema(3, 2);
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, nullptr);
  TempFileManager temp;
  QueryCounters counters;
  RowBuffer table = MakeTable(schema, 300, 3, /*seed=*/1, /*sorted=*/true);

  RunFileWriter writer(&schema, &counters);
  const std::string path = temp.NewPath("run");
  ASSERT_TRUE(writer.Open(path).ok());
  std::vector<Ovc> codes;
  for (size_t i = 0; i < table.size(); ++i) {
    Ovc code = i == 0 ? codec.MakeInitial(table.row(i))
                      : codec.MakeFromRow(
                            table.row(i),
                            cmp.FirstDifference(table.row(i - 1), table.row(i),
                                                0));
    codes.push_back(code);
    ASSERT_TRUE(writer.Append(table.row(i), code).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.rows(), 300u);
  EXPECT_EQ(counters.rows_spilled, 300u);
  // Prefix truncation: strictly fewer bytes than full rows.
  EXPECT_LT(counters.bytes_spilled,
            300 * (schema.total_columns() * 8 + 2));

  RunFileReader reader(&schema);
  ASSERT_TRUE(reader.Open(path).ok());
  const uint64_t* row = nullptr;
  Ovc code = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(reader.Next(&row, &code)) << i;
    for (uint32_t c = 0; c < schema.total_columns(); ++c) {
      ASSERT_EQ(row[c], table.row(i)[c]) << i << "," << c;
    }
    ASSERT_EQ(code, codes[i]) << i;
  }
  EXPECT_FALSE(reader.Next(&row, &code));
}

// Writes `rows` rows of a seeded sorted table to a new run file; returns
// its path and, through `last_record` (optional), the byte position where
// the last record starts.
std::string WriteRun(const Schema& schema, TempFileManager* temp,
                     uint64_t rows, uint64_t* last_record = nullptr) {
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, nullptr);
  QueryCounters counters;
  RowBuffer table = MakeTable(schema, rows, 3, /*seed=*/9, /*sorted=*/true);
  const std::string path = temp->NewPath("run");
  RunFileWriter writer(&schema, &counters);
  EXPECT_TRUE(writer.Open(path).ok());
  for (size_t i = 0; i < table.size(); ++i) {
    const Ovc code =
        i == 0 ? codec.MakeInitial(table.row(i))
               : codec.MakeFromRow(table.row(i),
                                   cmp.FirstDifference(table.row(i - 1),
                                                       table.row(i), 0));
    if (last_record != nullptr) *last_record = counters.bytes_spilled;
    EXPECT_TRUE(writer.Append(table.row(i), code).ok());
  }
  EXPECT_TRUE(writer.Close().ok());
  return path;
}

// Rows a reader yields before it reports the end of the stream; pulls once
// more past the end to check the end is sticky.
uint64_t CountRows(const Schema& schema, TempFileManager* temp,
                   const std::string& path) {
  RunFileReader reader(&schema, temp);
  EXPECT_TRUE(reader.Open(path).ok());
  const uint64_t* row = nullptr;
  Ovc code = 0;
  uint64_t n = 0;
  while (reader.Next(&row, &code)) ++n;
  EXPECT_FALSE(reader.Next(&row, &code));
  return n;
}

TEST(RunFile, ReaderStopsAtTheLastRecord) {
  Schema schema(3, 2);
  for (uint64_t rows : {0, 1, 2}) {
    TempFileManager temp;
    const std::string path = WriteRun(schema, &temp, rows);
    EXPECT_EQ(CountRows(schema, &temp, path), rows);
    EXPECT_TRUE(temp.first_error().ok()) << temp.first_error().ToString();
  }
}

TEST(RunFile, TruncatedRecordEndsStreamWithIoError) {
  // Cut the last record inside its offset field, inside its first column,
  // and one byte short of its end: the complete records come out, then the
  // stream ends and the error sink holds an IoError.
  Schema schema(3, 2);
  TempFileManager probe;
  uint64_t last = 0;
  const uint64_t size =
      std::filesystem::file_size(WriteRun(schema, &probe, 20, &last));
  for (uint64_t cut : {uint64_t{1}, uint64_t{5}, size - last - 1}) {
    TempFileManager temp;
    const std::string path = WriteRun(schema, &temp, 20);
    std::filesystem::resize_file(path, last + cut);
    EXPECT_EQ(CountRows(schema, &temp, path), 19u) << "cut " << cut;
    EXPECT_EQ(temp.first_error().code(), StatusCode::kIoError)
        << "cut " << cut;
  }
}

TEST(RunFile, OversizedPrefixOffsetEndsStreamWithIoError) {
  Schema schema(3, 2);
  TempFileManager temp;
  const std::string path = temp.NewPath("run");
  FileWriter file;
  ASSERT_TRUE(file.Open(path).ok());
  // A valid first record (offset 0, all five columns), then a record whose
  // prefix offset exceeds the key arity of 3.
  const uint64_t row[5] = {1, 2, 3, 4, 5};
  const uint16_t offsets[2] = {0, 4};
  for (uint16_t offset : offsets) {
    ASSERT_TRUE(file.Write(&offset, sizeof(offset)).ok());
    ASSERT_TRUE(file.Write(row, sizeof(row)).ok());
  }
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(CountRows(schema, &temp, path), 1u);
  EXPECT_EQ(temp.first_error().code(), StatusCode::kIoError);
  EXPECT_NE(temp.first_error().message().find("prefix offset 4"),
            std::string::npos)
      << temp.first_error().ToString();
}

struct ExternalSortParam {
  RunGenMode mode;
  bool replacement_selection;
  bool use_ovc;
  uint64_t rows;
  uint64_t memory_rows;
  uint32_t fan_in;
  const char* name;
};

class ExternalSortTest : public ::testing::TestWithParam<ExternalSortParam> {};

TEST_P(ExternalSortTest, SortsCorrectly) {
  const auto p = GetParam();
  Schema schema(4, 1);
  QueryCounters counters;
  TempFileManager temp;
  RowBuffer table = MakeTable(schema, p.rows, 4, /*seed=*/p.rows);

  SortConfig config;
  config.memory_rows = p.memory_rows;
  config.fan_in = p.fan_in;
  config.run_gen = p.mode;
  config.replacement_selection = p.replacement_selection;
  config.use_ovc = p.use_ovc;
  config.naive_output_codes = !p.use_ovc;  // codes still wanted for checking

  ExternalSort sort(&schema, &counters, &temp, config);
  for (size_t i = 0; i < table.size(); ++i) {
    sort.Add(table.row(i));
  }
  ASSERT_TRUE(sort.Finish().ok());

  OvcStreamChecker checker(&schema);
  RowVec out;
  RowRef ref;
  while (sort.Next(&ref)) {
    out.emplace_back(ref.cols, ref.cols + schema.total_columns());
    ASSERT_TRUE(checker.Observe(ref.cols, ref.ovc)) << checker.error();
  }
  RowVec expected = ReferenceSort(schema, table);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);

  if (p.use_ovc && p.mode != RunGenMode::kStdSort) {
    // Column comparisons across run generation and all merge levels stay
    // within N x K per processed level; with at most 2 extra levels this is
    // a loose but meaningful ceiling. (kStdSort is the baseline that
    // deliberately breaks this bound: N log N row comparisons.)
    const uint64_t levels = 2 + sort.intermediate_merge_levels();
    EXPECT_LE(counters.column_comparisons,
              p.rows * schema.key_arity() * levels);
  }
  if (p.rows > p.memory_rows) {
    EXPECT_GT(sort.spilled_runs(), 0u);
  } else if (!p.replacement_selection) {
    EXPECT_EQ(sort.spilled_runs(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ExternalSortTest,
    ::testing::Values(
        ExternalSortParam{RunGenMode::kPqSingleRowRuns, false, true, 5000, 512,
                          8, "pq_spill"},
        ExternalSortParam{RunGenMode::kPqSingleRowRuns, false, true, 400, 512,
                          8, "pq_memory"},
        ExternalSortParam{RunGenMode::kPqMiniRuns, false, true, 5000, 512, 8,
                          "mini_spill"},
        ExternalSortParam{RunGenMode::kStdSort, false, true, 5000, 512, 8,
                          "std_spill"},
        ExternalSortParam{RunGenMode::kPqSingleRowRuns, false, true, 9000, 256,
                          4, "cascade"},
        ExternalSortParam{RunGenMode::kPqSingleRowRuns, true, true, 5000, 512,
                          8, "replacement"},
        ExternalSortParam{RunGenMode::kPqSingleRowRuns, true, true, 12000, 128,
                          4, "replacement_cascade"},
        ExternalSortParam{RunGenMode::kPqSingleRowRuns, false, false, 5000,
                          512, 8, "plain_spill"},
        ExternalSortParam{RunGenMode::kPqMiniRuns, false, false, 3000, 512, 8,
                          "plain_mini"}),
    [](const ::testing::TestParamInfo<ExternalSortParam>& info) {
      return info.param.name;
    });

TEST(ExternalSort, EmptyInput) {
  Schema schema(2);
  TempFileManager temp;
  ExternalSort sort(&schema, nullptr, &temp, SortConfig());
  ASSERT_TRUE(sort.Finish().ok());
  RowRef ref;
  EXPECT_FALSE(sort.Next(&ref));
}

TEST(ExternalSort, PresortedInputHasMinimalComparisons) {
  // Sorting an already sorted input with OVC: each row loses only against
  // its neighbors; comparisons stay well under N x K even during run
  // generation plus merging.
  Schema schema(4);
  QueryCounters counters;
  TempFileManager temp;
  RowBuffer table = MakeTable(schema, 4000, 3, /*seed=*/2, /*sorted=*/true);
  SortConfig config;
  config.memory_rows = 500;
  ExternalSort sort(&schema, &counters, &temp, config);
  for (size_t i = 0; i < table.size(); ++i) sort.Add(table.row(i));
  ASSERT_TRUE(sort.Finish().ok());
  RowRef ref;
  uint64_t n = 0;
  while (sort.Next(&ref)) ++n;
  EXPECT_EQ(n, 4000u);
  EXPECT_LE(counters.column_comparisons, 2 * 4000u * schema.key_arity());
}

TEST(ReplacementSelection, RunsLongerThanMemory) {
  // Random input: expected run length ~ 2x memory.
  Schema schema(3);
  QueryCounters counters;
  TempFileManager temp;
  ReplacementSelection rs(&schema, &counters, &temp, /*capacity=*/256);
  RowBuffer table = MakeTable(schema, 10000, 50, /*seed=*/77);
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(rs.Add(table.row(i)).ok());
  }
  ASSERT_TRUE(rs.Finish().ok());
  std::vector<SpilledRun> runs = rs.TakeRuns();
  ASSERT_FALSE(runs.empty());
  uint64_t total = 0;
  for (const SpilledRun& run : runs) total += run.rows;
  EXPECT_EQ(total, 10000u);
  const double avg = static_cast<double>(total) / runs.size();
  EXPECT_GT(avg, 256 * 1.5) << "replacement selection should produce runs "
                               "substantially longer than memory";

  // Every run is itself a valid sorted coded stream.
  for (const SpilledRun& run : runs) {
    RunFileReader reader(&schema);
    ASSERT_TRUE(reader.Open(run.path).ok());
    OvcStreamChecker checker(&schema);
    const uint64_t* row = nullptr;
    Ovc code = 0;
    while (reader.Next(&row, &code)) {
      ASSERT_TRUE(checker.Observe(row, code)) << checker.error();
    }
  }
}

TEST(ReplacementSelection, SortedInputYieldsSingleRun) {
  Schema schema(3);
  TempFileManager temp;
  ReplacementSelection rs(&schema, nullptr, &temp, /*capacity=*/64);
  RowBuffer table = MakeTable(schema, 5000, 10, /*seed=*/3, /*sorted=*/true);
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(rs.Add(table.row(i)).ok());
  }
  ASSERT_TRUE(rs.Finish().ok());
  EXPECT_EQ(rs.run_count(), 1u);
}

TEST(ReplacementSelection, BaseTagFallbacksAmortize) {
  // The guarded comparisons (different base tags -> full key comparison)
  // must stay rare: well below one per input row.
  Schema schema(4);
  QueryCounters counters;
  TempFileManager temp;
  ReplacementSelection rs(&schema, &counters, &temp, /*capacity=*/512);
  RowBuffer table = MakeTable(schema, 20000, 8, /*seed=*/5);
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(rs.Add(table.row(i)).ok());
  }
  ASSERT_TRUE(rs.Finish().ok());
  // row_comparisons counts: 1 per input row (run assignment) + fallbacks +
  // re-derivations. Allow 1.5x as the amortized ceiling.
  EXPECT_LE(counters.row_comparisons, 20000u * 3 / 2);
}

struct SegmentedParam {
  uint32_t arity;
  uint32_t prefix;
  uint64_t rows;
  uint64_t distinct;
};

class SegmentedSortTest : public ::testing::TestWithParam<SegmentedParam> {};

TEST_P(SegmentedSortTest, EquivalentToFullSort) {
  const auto p = GetParam();
  Schema schema(p.arity, 1);
  QueryCounters counters;
  TempFileManager temp;
  // Input sorted on the full key of a *different* suffix: emulate "sorted
  // on (A,B), wanted on (A,C)" by sorting on the schema key, then shuffling
  // the suffix within segments. Simplest valid input: sorted on the
  // segmentation prefix only, arbitrary within segments.
  RowBuffer table = MakeTable(schema, p.rows, p.distinct, /*seed=*/p.rows);
  Schema prefix_schema(p.prefix, schema.total_columns() - p.prefix);
  SortRowsForTest(prefix_schema, &table);

  // Build the input stream with codes valid for the prefix: derive codes
  // over the prefix-sorted order using full-key arity but offsets within
  // the prefix where rows disagree there.
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, nullptr);
  InMemoryRun run(schema.total_columns());
  for (size_t i = 0; i < table.size(); ++i) {
    Ovc code;
    if (i == 0) {
      code = codec.MakeInitial(table.row(i));
    } else {
      const uint32_t d =
          cmp.FirstDifference(table.row(i - 1), table.row(i), 0);
      code = codec.MakeFromRow(table.row(i), d);
    }
    run.Append(table.row(i), code);
  }

  InMemoryRunSource source(&run);
  SegmentedSorter sorter(&schema, p.prefix, &counters);
  sorter.SetInput(&source);

  OvcStreamChecker checker(&schema);
  RowVec out;
  RowRef ref;
  while (sorter.Next(&ref)) {
    out.emplace_back(ref.cols, ref.cols + schema.total_columns());
    ASSERT_TRUE(checker.Observe(ref.cols, ref.ovc)) << checker.error();
  }
  RowVec expected = ReferenceSort(schema, table);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
  EXPECT_GT(sorter.segments(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SegmentedSortTest,
    ::testing::Values(SegmentedParam{4, 1, 2000, 4},
                      SegmentedParam{4, 2, 2000, 4},
                      SegmentedParam{4, 3, 2000, 4},
                      SegmentedParam{2, 1, 500, 2},
                      SegmentedParam{6, 2, 3000, 3}),
    [](const ::testing::TestParamInfo<SegmentedParam>& info) {
      return "arity" + std::to_string(info.param.arity) + "_prefix" +
             std::to_string(info.param.prefix);
    });

TEST(SegmentedSorter, SegmentationNeedsNoComparisonsBeyondSegmentSorts) {
  // Boundary detection is code-only: with one row per segment, zero column
  // comparisons happen at all.
  Schema schema(2);
  QueryCounters counters;
  InMemoryRun run(2);
  OvcCodec codec(&schema);
  for (uint64_t i = 0; i < 100; ++i) {
    const uint64_t row[2] = {i, 100 - i};
    run.Append(row, i == 0 ? codec.MakeInitial(row) : codec.Make(0, i));
  }
  InMemoryRunSource source(&run);
  SegmentedSorter sorter(&schema, 1, &counters);
  sorter.SetInput(&source);
  RowRef ref;
  uint64_t n = 0;
  while (sorter.Next(&ref)) ++n;
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(sorter.segments(), 100u);
  EXPECT_EQ(counters.column_comparisons, 0u);
}

// ---------------------------------------------------------------------------
// Golden comparison counts: exact counter values of every tournament and
// merge loop on seeded inputs. The comparison kernel may get faster, but the
// work it does -- and how that work is counted -- must not change.

enum class KeyOrder { kAscending, kMixed };

// `arity` key columns (alternating ascending/descending when mixed) and one
// payload column.
Schema GoldenSchema(uint32_t arity, KeyOrder order) {
  if (order == KeyOrder::kAscending) return Schema(arity, 1);
  std::vector<SortDirection> dirs;
  for (uint32_t c = 0; c < arity; ++c) {
    dirs.push_back(c % 2 == 0 ? SortDirection::kAscending
                              : SortDirection::kDescending);
  }
  return Schema(std::move(dirs), 1);
}

// Sorted runs of a seeded table, coded the reference way (uncounted).
std::vector<InMemoryRun> GoldenRuns(const Schema& schema, uint32_t runs,
                                    uint64_t rows_per_run) {
  std::vector<InMemoryRun> out;
  for (uint32_t r = 0; r < runs; ++r) {
    RowBuffer t = MakeTable(schema, rows_per_run, 4, /*seed=*/40 + r,
                            /*sorted=*/true);
    out.push_back(RunFromSorted(schema, t));
  }
  return out;
}

template <typename Source>
void DrainMerger(const Schema& schema, QueryCounters* counters,
                 std::vector<Source*> sources) {
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, counters);
  OvcMergerT<Source> merger(&codec, &cmp, std::move(sources));
  OvcStreamChecker checker(&schema);
  RowRef ref;
  while (merger.Next(&ref)) {
    ASSERT_TRUE(checker.Observe(ref.cols, ref.ovc)) << checker.error();
  }
}

void GoldenPqSorter(const Schema& schema, QueryCounters* counters) {
  RowBuffer table = MakeTable(schema, 2000, 4, /*seed=*/11);
  std::vector<const uint64_t*> rows;
  for (size_t i = 0; i < table.size(); ++i) rows.push_back(table.row(i));
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, counters);
  PqSorter sorter(&codec, &cmp);
  sorter.Reset(rows.data(), static_cast<uint32_t>(rows.size()));
  OvcStreamChecker checker(&schema);
  RowRef ref;
  while (sorter.Next(&ref)) {
    ASSERT_TRUE(checker.Observe(ref.cols, ref.ovc)) << checker.error();
  }
}

void GoldenMergerInMemory(const Schema& schema, QueryCounters* counters) {
  std::vector<InMemoryRun> runs = GoldenRuns(schema, 6, 300);
  std::vector<std::unique_ptr<InMemoryRunSource>> storage;
  std::vector<InMemoryRunSource*> sources;
  for (const InMemoryRun& run : runs) {
    storage.push_back(std::make_unique<InMemoryRunSource>(&run));
    sources.push_back(storage.back().get());
  }
  DrainMerger(schema, counters, sources);
}

void GoldenMergerRunFile(const Schema& schema, QueryCounters* counters) {
  TempFileManager temp;
  std::vector<InMemoryRun> runs = GoldenRuns(schema, 6, 300);
  std::vector<std::unique_ptr<RunFileReader>> storage;
  std::vector<RunFileReader*> sources;
  for (const InMemoryRun& run : runs) {
    const std::string path = temp.NewPath("golden");
    RunFileWriter writer(&schema, counters);
    ASSERT_TRUE(writer.Open(path).ok());
    for (size_t i = 0; i < run.size(); ++i) {
      ASSERT_TRUE(writer.Append(run.row(i), run.code(i)).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
    storage.push_back(std::make_unique<RunFileReader>(&schema, &temp));
    ASSERT_TRUE(storage.back()->Open(path).ok());
    sources.push_back(storage.back().get());
  }
  DrainMerger(schema, counters, sources);
  EXPECT_TRUE(temp.first_error().ok());
}

void GoldenExternalSort(const Schema& schema, QueryCounters* counters) {
  TempFileManager temp;
  RowBuffer table = MakeTable(schema, 3000, 4, /*seed=*/12);
  SortConfig config;
  config.memory_rows = 256;  // forces 12 spilled runs ...
  config.fan_in = 4;         // ... and an intermediate merge level
  ExternalSort sort(&schema, counters, &temp, config);
  for (size_t i = 0; i < table.size(); ++i) sort.Add(table.row(i));
  ASSERT_TRUE(sort.Finish().ok());
  EXPECT_GT(sort.spilled_runs(), 0u);
  OvcStreamChecker checker(&schema);
  RowRef ref;
  uint64_t n = 0;
  while (sort.Next(&ref)) {
    ++n;
    ASSERT_TRUE(checker.Observe(ref.cols, ref.ovc)) << checker.error();
  }
  EXPECT_EQ(n, table.size());
}

void GoldenReplacementSelection(const Schema& schema,
                                QueryCounters* counters) {
  TempFileManager temp;
  RowBuffer table = MakeTable(schema, 3000, 4, /*seed=*/13);
  ReplacementSelection rs(&schema, counters, &temp, /*capacity=*/128);
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(rs.Add(table.row(i)).ok());
  }
  ASSERT_TRUE(rs.Finish().ok());
  EXPECT_GT(rs.run_count(), 1u);
}

void GoldenMergeJoin(const Schema& schema, QueryCounters* counters) {
  RowBuffer lt = MakeTable(schema, 800, 4, /*seed=*/14, /*sorted=*/true);
  RowBuffer rt = MakeTable(schema, 600, 4, /*seed=*/15, /*sorted=*/true);
  InMemoryRun lrun = RunFromSorted(schema, lt);
  InMemoryRun rrun = RunFromSorted(schema, rt);
  RunScan lscan(&schema, &lrun), rscan(&schema, &rrun);
  MergeJoin join(&lscan, &rscan, JoinType::kFullOuter, counters);
  DrainValidated(&join);
}

void GoldenSetOperation(const Schema& row_schema, QueryCounters* counters) {
  // Set operations compare whole rows: the key columns alone.
  std::vector<SortDirection> dirs;
  for (uint32_t c = 0; c < row_schema.key_arity(); ++c) {
    dirs.push_back(row_schema.direction(c));
  }
  const Schema schema(std::move(dirs), 0);
  RowBuffer lt = MakeTable(schema, 800, 4, /*seed=*/16, /*sorted=*/true);
  RowBuffer rt = MakeTable(schema, 600, 4, /*seed=*/17, /*sorted=*/true);
  InMemoryRun lrun = RunFromSorted(schema, lt);
  InMemoryRun rrun = RunFromSorted(schema, rt);
  RunScan lscan(&schema, &lrun), rscan(&schema, &rrun);
  SetOperation op(&lscan, &rscan, SetOpType::kUnion, /*all=*/false, counters);
  DrainValidated(&op);
}

// COUNT, SUM, MIN and MAX of the payload column per group of the first
// three key columns, checked against a reference aggregation.
void GoldenInSortAggregate(const Schema& schema, QueryCounters* counters,
                           uint64_t memory_rows) {
  TempFileManager temp;
  RowBuffer table = MakeTable(schema, 3000, 4, /*seed=*/18);
  BufferScan scan(&schema, &table);
  SortConfig config;
  config.memory_rows = memory_rows;
  config.fan_in = 4;
  const uint32_t payload = schema.key_arity();
  InSortAggregate agg(&scan, /*group_prefix=*/3,
                      {{AggFn::kCount, 0},
                       {AggFn::kSum, payload},
                       {AggFn::kMin, payload},
                       {AggFn::kMax, payload}},
                      counters, &temp, config);
  const RowVec out = DrainValidated(&agg);
  std::map<std::vector<uint64_t>, std::vector<uint64_t>> reference;
  for (size_t i = 0; i < table.size(); ++i) {
    const uint64_t* row = table.row(i);
    const uint64_t v = row[payload];
    auto [it, fresh] = reference.try_emplace(
        std::vector<uint64_t>(row, row + 3), std::vector<uint64_t>{0, 0, v, v});
    std::vector<uint64_t>& acc = it->second;
    ++acc[0];
    acc[1] += v;
    acc[2] = std::min(acc[2], v);
    acc[3] = std::max(acc[3], v);
  }
  ASSERT_EQ(out.size(), reference.size());
  for (const std::vector<uint64_t>& row : out) {
    const std::vector<uint64_t> key(row.begin(), row.begin() + 3);
    EXPECT_EQ(std::vector<uint64_t>(row.begin() + 3, row.end()),
              reference[key]);
  }
  EXPECT_TRUE(temp.first_error().ok());
}

void GoldenInSortAggregateInMemory(const Schema& schema,
                                   QueryCounters* counters) {
  GoldenInSortAggregate(schema, counters, /*memory_rows=*/1 << 20);
}

// 12 spilled runs at fan-in 4: one intermediate, collapsing merge level.
void GoldenInSortAggregateSpilling(const Schema& schema,
                                   QueryCounters* counters) {
  GoldenInSortAggregate(schema, counters, /*memory_rows=*/256);
}

// Flushes (11 full memtables plus the remainder at the first scan), a scan
// over 12 runs, CompactAll, and a scan over the compacted run.
void GoldenLsm(const Schema& schema, QueryCounters* counters, bool collapse) {
  TempFileManager temp;
  RowBuffer table = MakeTable(schema, 3000, 4, /*seed=*/19);
  LsmForest::Options options;
  options.memtable_rows = 256;
  options.collapse = collapse;
  options.collapse_fns.assign(schema.payload_columns(), StateMergeFn::kSum);
  LsmForest forest(&schema, counters, &temp, options);
  for (size_t i = 0; i < table.size(); ++i) forest.Insert(table.row(i));

  RowVec expected;
  if (collapse) {
    const uint32_t arity = schema.key_arity();
    std::map<std::vector<uint64_t>, uint64_t> sums;
    for (size_t i = 0; i < table.size(); ++i) {
      const uint64_t* row = table.row(i);
      sums[std::vector<uint64_t>(row, row + arity)] += row[arity];
    }
    for (const auto& [key, sum] : sums) {
      expected.push_back(key);
      expected.back().push_back(sum);
    }
  } else {
    expected = ToRowVec(table);
  }
  Canonicalize(&expected);
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) {
      forest.CompactAll();
      EXPECT_EQ(forest.run_count(), 1u);
    }
    std::unique_ptr<Operator> scan = forest.ScanAll();
    RowVec out = DrainValidated(scan.get());
    Canonicalize(&out);
    EXPECT_EQ(out, expected);
  }
}

void GoldenLsmPlain(const Schema& schema, QueryCounters* counters) {
  GoldenLsm(schema, counters, /*collapse=*/false);
}

void GoldenLsmCollapsing(const Schema& schema, QueryCounters* counters) {
  GoldenLsm(schema, counters, /*collapse=*/true);
}

struct GoldenCounts {
  uint64_t code_comparisons;
  uint64_t column_comparisons;
  uint64_t row_comparisons;
  uint64_t merge_bypass_rows;
  uint64_t rows_spilled;
  uint64_t bytes_spilled;
};

struct GoldenCase {
  const char* name;
  uint32_t arity;
  KeyOrder order;
  void (*run)(const Schema&, QueryCounters*);
  GoldenCounts expected;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

class GoldenCountTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenCountTest, CountsMatchRecordedValues) {
  const GoldenCase& c = GetParam();
  const Schema schema = GoldenSchema(c.arity, c.order);
  QueryCounters counters;
  c.run(schema, &counters);
  EXPECT_EQ(counters.code_comparisons, c.expected.code_comparisons);
  EXPECT_EQ(counters.column_comparisons, c.expected.column_comparisons);
  EXPECT_EQ(counters.row_comparisons, c.expected.row_comparisons);
  EXPECT_EQ(counters.merge_bypass_rows, c.expected.merge_bypass_rows);
  EXPECT_EQ(counters.rows_spilled, c.expected.rows_spilled);
  EXPECT_EQ(counters.bytes_spilled, c.expected.bytes_spilled);
}

constexpr KeyOrder kAsc = KeyOrder::kAscending;
constexpr KeyOrder kMixed = KeyOrder::kMixed;

// Expected values, recorded before the compare kernel moved into the header
// (the in-sort aggregation and LSM cases: before both moved onto
// ExternalSort's run steps):
// {code, column, row, merge bypass, rows spilled, bytes spilled}.
INSTANTIATE_TEST_SUITE_P(
    Loops, GoldenCountTest,
    ::testing::Values(
        GoldenCase{"pq_sorter_asc", 4, kAsc, GoldenPqSorter,
                   {24047, 5916, 0, 0, 0, 0}},
        GoldenCase{"pq_sorter_mixed", 4, kMixed, GoldenPqSorter,
                   {24047, 9291, 0, 0, 0, 0}},
        GoldenCase{"merger_memory_asc", 4, kAsc, GoldenMergerInMemory,
                   {3238, 418, 0, 723, 0, 0}},
        GoldenCase{"merger_memory_mixed", 4, kMixed, GoldenMergerInMemory,
                   {3238, 1247, 0, 723, 0, 0}},
        GoldenCase{"merger_run_file_asc", 4, kAsc, GoldenMergerRunFile,
                   {3238, 418, 0, 723, 1800, 30632}},
        GoldenCase{"merger_run_file_mixed", 4, kMixed, GoldenMergerRunFile,
                   {3238, 1247, 0, 723, 1800, 30632}},
        GoldenCase{"external_sort_2keys_asc", 2, kAsc, GoldenExternalSort,
                   {27552, 2996, 0, 5760, 6000, 62400}},
        GoldenCase{"external_sort_2keys_mixed", 2, kMixed, GoldenExternalSort,
                   {27552, 5707, 0, 5760, 6000, 62400}},
        GoldenCase{"external_sort_8keys_asc", 8, kAsc, GoldenExternalSort,
                   {39008, 14866, 0, 32, 6000, 267032}},
        GoldenCase{"external_sort_8keys_mixed", 8, kMixed, GoldenExternalSort,
                   {39008, 20779, 0, 32, 6000, 267032}},
        GoldenCase{"replacement_selection_asc", 4, kAsc,
                   GoldenReplacementSelection,
                   {21127, 11312, 2872, 0, 3000, 52728}},
        GoldenCase{"replacement_selection_mixed", 4, kMixed,
                   GoldenReplacementSelection,
                   {21127, 14829, 2872, 0, 3000, 53008}},
        GoldenCase{"merge_join_asc", 4, kAsc, GoldenMergeJoin,
                   {332, 84, 0, 0, 0, 0}},
        GoldenCase{"merge_join_mixed", 4, kMixed, GoldenMergeJoin,
                   {332, 280, 0, 0, 0, 0}},
        GoldenCase{"set_operation_asc", 4, kAsc, GoldenSetOperation,
                   {254, 84, 0, 0, 0, 0}},
        GoldenCase{"set_operation_mixed", 4, kMixed, GoldenSetOperation,
                   {254, 280, 0, 0, 0, 0}},
        GoldenCase{"in_sort_aggregate_memory_asc", 4, kAsc,
                   GoldenInSortAggregateInMemory, {40095, 5980, 0, 0, 0, 0}},
        GoldenCase{"in_sort_aggregate_memory_mixed", 4, kMixed,
                   GoldenInSortAggregateInMemory, {40095, 8642, 0, 0, 0, 0}},
        GoldenCase{"in_sort_aggregate_spilling_asc", 4, kAsc,
                   GoldenInSortAggregateSpilling, {28946, 5980, 0, 0, 937, 41754}},
        GoldenCase{"in_sort_aggregate_spilling_mixed", 4, kMixed,
                   GoldenInSortAggregateSpilling, {28946, 8642, 0, 0, 937, 41754}},
        GoldenCase{"lsm_plain_asc", 4, kAsc, GoldenLsmPlain,
                   {42338, 9822, 0, 4932, 6000, 85888}},
        GoldenCase{"lsm_plain_mixed", 4, kMixed, GoldenLsmPlain,
                   {42338, 16605, 0, 4932, 6000, 85888}},
        GoldenCase{"lsm_collapsing_asc", 4, kAsc, GoldenLsmCollapsing,
                   {42338, 9822, 0, 0, 2162, 47508}},
        GoldenCase{"lsm_collapsing_mixed", 4, kMixed, GoldenLsmCollapsing,
                   {42338, 16605, 0, 0, 2162, 47508}}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.name;
    });

// --- Output limit ------------------------------------------------------------
//
// A sort with output limit k must serve exactly the first k rows (or, when
// it collapses, the first k groups) of the same sort without a limit: the
// same rows in the same order with the same codes.

struct LimitShape {
  const char* name;
  KeyOrder order;
  uint64_t rows;
  uint64_t memory_rows;
  uint64_t distinct;  // per key column; small values make long tie runs
  bool collapse;
  RunGenMode mode;
  bool replacement_selection;
  bool use_ovc;
};

enum class LimitK { kOne, kTen, kMemoryMinusOne, kMemory, kPastInput };

struct LimitCase {
  LimitShape shape;
  LimitK k;
};

void PrintTo(const LimitCase& c, std::ostream* os) {
  *os << c.shape.name << "/" << static_cast<int>(c.k);
}

uint64_t LimitValue(const LimitCase& c) {
  switch (c.k) {
    case LimitK::kOne:
      return 1;
    case LimitK::kTen:
      return 10;
    case LimitK::kMemoryMinusOne:
      return c.shape.memory_rows - 1;
    case LimitK::kMemory:
      return c.shape.memory_rows;
    case LimitK::kPastInput:
      return c.shape.rows + 1;
  }
  return 0;
}

struct SortOutput {
  RowVec rows;
  std::vector<Ovc> codes;
  uint64_t spilled_runs = 0;
};

// Sorts `table` with output limit `limit` and drains it block by block
// through small blocks, checking the stream as it goes.
SortOutput RunLimitedSort(const Schema& schema, const LimitShape& shape,
                          const RowBuffer& table, uint64_t limit,
                          QueryCounters* counters) {
  TempFileManager temp;
  SortConfig config;
  config.memory_rows = shape.memory_rows;
  config.fan_in = 4;
  config.run_gen = shape.mode;
  config.mini_run_rows = 64;
  config.replacement_selection = shape.replacement_selection;
  config.use_ovc = shape.use_ovc;
  config.naive_output_codes = !shape.use_ovc;
  const std::vector<StateMergeFn> sum = {StateMergeFn::kSum};
  ExternalSort sort(&schema, counters, &temp, config,
                    shape.collapse ? &sum : nullptr, limit);
  RowBlock in(schema.total_columns(), 100);
  for (size_t i = 0; i < table.size(); i += 100) {
    // Mix block intake with row-at-a-time intake.
    const size_t end = std::min(table.size(), i + 100);
    if ((i / 100) % 2 == 0) {
      in.Clear();
      in.AppendContiguous(table.row(i), nullptr,
                          static_cast<uint32_t>(end - i));
      sort.AddBlock(in);
    } else {
      for (size_t r = i; r < end; ++r) sort.Add(table.row(r));
    }
  }
  EXPECT_TRUE(sort.Finish().ok());
  SortOutput out;
  OvcStreamChecker checker(&schema);
  RowBlock block(schema.total_columns(), 7);
  while (sort.NextBlock(&block) > 0) {
    for (uint32_t i = 0; i < block.size(); ++i) {
      out.rows.emplace_back(block.row(i),
                            block.row(i) + schema.total_columns());
      out.codes.push_back(block.code(i));
      EXPECT_TRUE(checker.Observe(block.row(i), block.code(i)))
          << checker.error();
    }
  }
  EXPECT_TRUE(temp.first_error().ok()) << temp.first_error().ToString();
  out.spilled_runs = sort.spilled_runs();
  return out;
}

class LimitedSortTest : public ::testing::TestWithParam<LimitCase> {};

TEST_P(LimitedSortTest, ServesThePrefixOfTheUnlimitedSort) {
  const LimitCase& c = GetParam();
  const Schema schema = GoldenSchema(3, c.shape.order);
  RowBuffer table = MakeTable(schema, c.shape.rows, c.shape.distinct,
                              /*seed=*/c.shape.rows + c.shape.distinct);
  // Collapse sums the payload: make it the count of input rows per group.
  if (c.shape.collapse) {
    for (size_t i = 0; i < table.size(); ++i) {
      table.mutable_row(i)[schema.key_arity()] = 1;
    }
  }
  const uint64_t k = LimitValue(c);
  const SortOutput full =
      RunLimitedSort(schema, c.shape, table, /*limit=*/0, nullptr);
  QueryCounters counters;
  const SortOutput top = RunLimitedSort(schema, c.shape, table, k, &counters);

  const size_t want = std::min<size_t>(k, full.rows.size());
  ASSERT_EQ(top.rows.size(), want);
  EXPECT_TRUE(std::equal(top.rows.begin(), top.rows.end(), full.rows.begin()));
  EXPECT_TRUE(
      std::equal(top.codes.begin(), top.codes.end(), full.codes.begin()));
  EXPECT_LE(top.spilled_runs, full.spilled_runs);
}

constexpr RunGenMode kPq = RunGenMode::kPqSingleRowRuns;
constexpr RunGenMode kMini = RunGenMode::kPqMiniRuns;
constexpr RunGenMode kStd = RunGenMode::kStdSort;

// In memory and spilling (4000 rows over a 256-row budget: 16 runs, one
// intermediate merge level at fan-in 4), ascending and mixed directions,
// plain and collapsing, every run-generation mode, and inputs where
// thousands of rows tie the cutoff (2 values per column, 3 columns: 8 keys
// of ~2000 rows each in 16000 rows over a 1024-row budget).
const LimitShape kLimitShapes[] = {
    {"memory_asc", kAsc, 200, 256, 1000, false, kPq, false, true},
    {"spill_asc", kAsc, 4000, 256, 1000, false, kPq, false, true},
    {"spill_mixed", kMixed, 4000, 256, 1000, false, kPq, false, true},
    {"spill_mini", kMixed, 4000, 256, 1000, false, kMini, false, true},
    {"spill_std", kAsc, 4000, 256, 1000, false, kStd, false, true},
    {"spill_plain", kMixed, 4000, 256, 1000, false, kPq, false, false},
    {"spill_replacement", kAsc, 4000, 256, 1000, false, kPq, true, true},
    {"spill_ties", kAsc, 16000, 1024, 2, false, kPq, false, true},
    {"spill_ties_mixed", kMixed, 16000, 1024, 2, false, kMini, false, true},
    {"memory_collapse", kAsc, 200, 256, 8, true, kPq, false, true},
    {"spill_collapse", kMixed, 4000, 256, 1000, true, kPq, false, true},
    {"spill_collapse_ties", kAsc, 16000, 1024, 2, true, kPq, false, true},
    {"spill_collapse_ties_mixed", kMixed, 16000, 1024, 2, true, kMini, false,
     true},
    {"spill_collapse_ties_std", kAsc, 16000, 1024, 2, true, kStd, false,
     true},
};

std::vector<LimitCase> LimitCases() {
  std::vector<LimitCase> cases;
  for (const LimitShape& shape : kLimitShapes) {
    for (LimitK k : {LimitK::kOne, LimitK::kTen, LimitK::kMemoryMinusOne,
                     LimitK::kMemory, LimitK::kPastInput}) {
      cases.push_back({shape, k});
    }
  }
  return cases;
}

std::string LimitCaseName(const ::testing::TestParamInfo<LimitCase>& info) {
  static const char* const kNames[] = {"k1", "k10", "k_memory_minus_1",
                                       "k_memory", "k_past_input"};
  return std::string(info.param.shape.name) + "_" +
         kNames[static_cast<int>(info.param.k)];
}

INSTANTIATE_TEST_SUITE_P(Limits, LimitedSortTest,
                         ::testing::ValuesIn(LimitCases()), LimitCaseName);

TEST(LimitedSort, CutRunsStopIntake) {
  // With a cut run behind it, a random input's later rows mostly sort
  // after the cutoff: 2 runs spill (the first buffer and the few survivors)
  // instead of 16, and each later row costs one key comparison.
  const Schema schema(3, 1);
  RowBuffer table = MakeTable(schema, 4096, 1000, /*seed=*/5);
  const LimitShape shape = {"cut", kAsc, 4096, 256, 1000, false, kPq, false,
                            true};
  QueryCounters unlimited;
  const SortOutput full = RunLimitedSort(schema, shape, table, 0, &unlimited);
  QueryCounters limited;
  const SortOutput top = RunLimitedSort(schema, shape, table, 10, &limited);
  EXPECT_EQ(full.spilled_runs, 16u);
  EXPECT_EQ(top.spilled_runs, 2u);
  EXPECT_LT(limited.code_comparisons, unlimited.code_comparisons / 4);
  EXPECT_LT(limited.rows_spilled, 256u);
  EXPECT_GE(limited.row_comparisons, table.size() - 256);
}

TEST(LimitedSort, CollapsingSortKeepsTheKthGroupWhole) {
  // Every input row of the first k groups must reach the output, even when
  // thousands of them tie the cutoff after the first cut run: each group's
  // count is its input row count.
  const Schema schema(2, 1);
  RowBuffer table = MakeTable(schema, 18000, 3, /*seed=*/9);  // 9 groups
  std::map<std::vector<uint64_t>, uint64_t> count;
  for (size_t i = 0; i < table.size(); ++i) {
    table.mutable_row(i)[2] = 1;
    ++count[{table.row(i)[0], table.row(i)[1]}];
  }
  const LimitShape shape = {"groups", kAsc, 18000, 512, 3, true, kPq, false,
                            true};
  const SortOutput top = RunLimitedSort(schema, shape, table, 2, nullptr);
  ASSERT_EQ(top.rows.size(), 2u);
  auto it = count.begin();
  for (const std::vector<uint64_t>& row : top.rows) {
    EXPECT_EQ(row[0], it->first[0]);
    EXPECT_EQ(row[1], it->first[1]);
    EXPECT_EQ(row[2], it->second);
    ++it;
  }
}

}  // namespace
}  // namespace ovc
