// Shared declarations of ovcbench, the repo benchmark program (perfbench/README.md).
//
// A Workload owns the generated tables' definitions, the seeded statement
// stream the closed-loop clients replay, and every statement's correct
// answer, computed once from the generated rows by plain std evaluation.
// main.cc serves the workload through an in-process ovc::server::Server
// over loopback; layers.cc produces the per-layer breakdown.

#ifndef OVC_PERFBENCH_BENCH_H_
#define OVC_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "row/row_buffer.h"
#include "row/schema.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/catalog.h"

namespace ovcbench {

using Rows = std::vector<std::vector<uint64_t>>;

/// One table, registered through Catalog::RegisterGenerated.
struct TableDef {
  std::string name;
  std::vector<std::string> columns;
  uint32_t key_arity = 1;
  uint64_t rows = 0;
  uint64_t distinct = 16;
  bool sorted = false;
  uint64_t seed = 0;

  ovc::Schema schema() const;
  ovc::sql::Catalog::GeneratedSpec spec() const;
  /// The rows exactly as RegisterGenerated materializes them (same
  /// generator, same seed, same order).
  ovc::RowBuffer Generate() const;
};

/// A statement's correct answer.
struct Expected {
  Rows rows;
  /// Leading output columns the statement's ORDER BY fixes; the answer
  /// must arrive non-decreasing on them. 0 = any order.
  uint32_t order_prefix = 0;
};

struct Statement {
  std::string sql;
  /// Statement class: one latency mode of the workload.
  std::string cls;
  /// >= 0: sent as EXECUTE of Workload::prepared_texts()[prepared] through
  /// the handle the connection prepared at warm-up; -1: sent as QUERY.
  int prepared = -1;
  /// Rows of the tables the statement reads.
  uint64_t input_rows = 0;
  std::shared_ptr<const Expected> expected;
};

/// How the workload is served.
struct ServingConfig {
  uint32_t connections = 1;
  uint32_t max_queries = 1;
  uint32_t workers_per_query = 1;
  /// Machine-wide sort budget in rows; the server slices it per query.
  uint64_t sort_memory_rows = uint64_t{1} << 20;
  /// The time-bounded loop stops only at multiples of this, after at
  /// least one, so a run holds whole rounds of the template mix.
  uint64_t round_length = 1;
  /// Untimed statements run before any measurement, until the process
  /// heap has grown to its working size.
  uint64_t warmup_statements = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  const std::vector<TableDef>& tables() const { return tables_; }
  const ServingConfig& serving() const { return serving_; }
  /// Texts each connection PREPAREs at warm-up (Statement::prepared).
  const std::vector<std::string>& prepared_texts() const {
    return prepared_texts_;
  }
  /// Texts bound into the plan cache at warm-up, so QUERY repeats hit.
  const std::vector<std::string>& warm_texts() const { return warm_texts_; }
  /// Tables (indexes into tables()) whose rows the traced run feeds
  /// through ExternalSort to split sort time by phase.
  const std::vector<size_t>& sort_replay_tables() const {
    return sort_replay_tables_;
  }

  /// Generates the tables and computes every fixed statement's answer.
  virtual void Prepare() = 0;
  /// Statement `index` of the seeded stream; thread safe after Prepare.
  virtual Statement At(uint64_t index) const = 0;
  /// The fixed statement set the traced run executes once each in
  /// process: the exact counts come from it.
  virtual std::vector<Statement> Templates() const = 0;

 protected:
  std::string name_;
  std::vector<TableDef> tables_;
  ServingConfig serving_;
  std::vector<std::string> prepared_texts_;
  std::vector<std::string> warm_texts_;
  std::vector<size_t> sort_replay_tables_;
};

/// `scale` multiplies table sizes (1 = the benchmark's sizes; the smoke
/// test uses a small fraction). nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double scale);

/// Compares served rows with the expected answer; on mismatch returns
/// false and says why.
bool CheckRows(const Expected& expected, const Rows& rows, std::string* why);

/// Converts an engine result buffer to Rows.
Rows ToRows(const ovc::RowBuffer& buffer);

// -- Serving harness (main.cc) ----------------------------------------------

/// One served instance of a workload: catalog, server, and the clients'
/// connections with their prepared handles. Members are declared in
/// reverse teardown order: clients disconnect, then the server stops,
/// then the catalog goes.
struct Served {
  std::unique_ptr<ovc::sql::Catalog> catalog;
  std::unique_ptr<ovc::server::Server> server;
  std::vector<ovc::server::Client> clients;
  /// handles[c][i]: connection c's handle for prepared_texts()[i].
  std::vector<std::vector<uint64_t>> handles;
};

struct Sample {
  uint64_t index = 0;
  double latency_ms = 0;
  bool ok = false;
  uint64_t input_rows = 0;
  std::string cls;
};

struct LoopStats {
  std::vector<Sample> samples;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The first statement index not handed out; every index below it (from
  /// `first`) was handed out and run.
  uint64_t end_index = 0;
};

/// Closed loop over the workload's stream from statement `first`: each
/// connection sends its next statement when its previous reply is in.
/// Stops issuing at the first round boundary after `seconds` (once a
/// round ran), or at `end_index` when `seconds` is negative.
/// Every reply is checked against the statement's answer.
LoopStats RunLoop(Served* served, const Workload& workload, double seconds,
                  uint64_t first, uint64_t end_index);

/// Records a failure message (the first few are printed).
void NoteFailure(const std::string& what);

double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// -- Per-layer breakdown (layers.cc) ----------------------------------------

struct LayerRun {
  Served* served = nullptr;
  const Workload* workload = nullptr;
  double seconds = 0;
  /// Median time of Catalog::RegisterGenerated over the set-ups.
  double generate_s = 0;
  /// Directory for the sort replay's temp files.
  std::string temp_dir;
};

/// The traced run: replays the seeded stream untraced and traced, times
/// each layer's public entry points from outside, and folds the program's
/// own exports (counter deltas, metrics, profiles, sort spans) into the
/// per_layer metrics of BENCHMARK.json. Statements it runs count toward
/// `attempted`/`failed`.
std::vector<Metric> MeasureLayers(const LayerRun& run, uint64_t* attempted,
                                  uint64_t* failed);

}  // namespace ovcbench

#endif  // OVC_PERFBENCH_BENCH_H_
