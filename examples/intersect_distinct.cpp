// Figure 5's query
//
//   SELECT a, b FROM t1 INTERSECT SELECT a, b FROM t2
//
// through the SQL front end, against the hash-based alternative built by
// hand. The SQL session plans the paper's sort-based shape -- two
// planner-inserted sorts feeding the merge-style set operation, with
// duplicate handling done on codes alone -- while the hand-built hash
// plan (two hash aggregations + hash join, three blocking operators)
// shows the spill/compare profile Figure 6 discusses.
//
//   ./build/examples/intersect_distinct [rows]

#include <cstdio>
#include <cstdlib>

#include "common/counters.h"
#include "common/temp_file.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/scan.h"
#include "row/generator.h"
#include "sql/catalog.h"
#include "sql/session.h"

using namespace ovc;

int main(int argc, char** argv) {
  const uint64_t rows =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000000;
  const uint64_t memory_rows = rows / 10;  // the paper's 10:1 ratio

  // Generate the tables once and register the buffers with the catalog,
  // so the SQL plan and the hand-built baseline below share one copy.
  Schema schema(/*key_arity=*/2, /*payload_columns=*/0);
  RowBuffer t1(schema.total_columns()), t2(schema.total_columns());
  GeneratorConfig config;
  config.rows = rows;
  config.distinct_per_column = 2048;
  config.seed = 1;
  GenerateRows(schema, config, &t1);
  config.seed = 2;
  GenerateRows(schema, config, &t2);

  sql::Catalog catalog;
  OVC_CHECK_OK(
      catalog.Register(plan::BufferSource("t1", &schema, &t1), {"a", "b"}));
  OVC_CHECK_OK(
      catalog.Register(plan::BufferSource("t2", &schema, &t2), {"a", "b"}));

  std::printf("T1 = T2 = %lu rows, operator memory = %lu rows\n\n",
              static_cast<unsigned long>(rows),
              static_cast<unsigned long>(memory_rows));

  // --- The SQL plan (sort-based: 2 blocking operators). --------------------
  {
    sql::SqlSession::Options options;
    options.planner.sort_config.memory_rows = memory_rows;
    sql::SqlSession session(&catalog, options);
    const char kQuery[] =
        "SELECT a, b FROM t1 INTERSECT SELECT a, b FROM t2";

    auto explain = session.Explain(kQuery);
    OVC_CHECK(explain.ok());
    std::printf("physical plan:\n%s\n", explain.value().c_str());

    auto result = session.Run(kQuery);
    OVC_CHECK(result.ok());
    const QueryCounters& counters = *session.counters();
    std::printf("sql sort-based:    %8lu result rows\n",
                static_cast<unsigned long>(result.value().result.row_count()));
    std::printf("  rows spilled:    %8lu (each input row spilled at most "
                "once)\n",
                static_cast<unsigned long>(counters.rows_spilled));
    std::printf("  column compares: %8lu\n",
                static_cast<unsigned long>(counters.column_comparisons));
    std::printf("  code compares:   %8lu\n\n",
                static_cast<unsigned long>(counters.code_comparisons));
  }

  // --- Hash-based plan (3 blocking operators), built by hand. --------------
  {
    QueryCounters counters;
    TempFileManager temp;
    BufferScan scan1(&schema, &t1), scan2(&schema, &t2);
    // Classic grace partitioning: the spill cost this plan is known for.
    HashAggregate dedup1(&scan1, 2, {}, memory_rows, &counters, &temp,
                         FallbackPolicy::kPartition);
    HashAggregate dedup2(&scan2, 2, {}, memory_rows, &counters, &temp,
                         FallbackPolicy::kPartition);
    GraceHashJoin intersect(&dedup1, &dedup2, 2, JoinTypeHash::kLeftSemi,
                            memory_rows, &counters, &temp,
                            FallbackPolicy::kPartition);
    const uint64_t result = DrainAndCount(&intersect);
    std::printf("hash-based plan:   %8lu result rows\n",
                static_cast<unsigned long>(result));
    std::printf("  rows spilled:    %8lu (many rows spilled twice)\n",
                static_cast<unsigned long>(counters.rows_spilled));
    std::printf("  hash functions:  %8lu (N x K column accesses)\n",
                static_cast<unsigned long>(counters.hash_computations));
    std::printf("  column compares: %8lu\n",
                static_cast<unsigned long>(counters.column_comparisons));
  }
  return 0;
}
