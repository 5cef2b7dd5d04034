// The traced run: per-layer metrics measured from outside the program.
//
// The program gets no new spans or counters for this. Times come from
// clocks around the calls into each layer's public functions, made here;
// counts come from what the program already exports -- QueryCounters
// deltas, the metrics registry, the per-operator profile, and the
// existing sort.* trace spans. The layer -> metric -> end-to-end metric
// table is in perfbench/README.md.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "common/profile.h"
#include "common/temp_file.h"
#include "common/trace.h"
#include "row/row_block.h"
#include "server/plan_cache.h"
#include "sort/external_sort.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/session.h"

namespace ovcbench {

namespace {

using Clock = std::chrono::steady_clock;
using ovc::metrics::Histogram;
using ovc::metrics::MetricRegistry;

double Us(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// Median microseconds of `reps` calls of `fn`.
template <typename Fn>
double TimeUs(int reps, Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(Us(t0, Clock::now()));
  }
  return Median(us);
}

using Buckets = std::array<uint64_t, Histogram::kBuckets>;

/// The registry values the breakdown reads, at one instant.
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  Buckets latency{}, admission{};
};

const char* const kCounters[] = {
    "server.queries",         "server.admission_waits", "server.plan_cache.hits",
    "server.plan_cache.misses", "server.bytes_sent",    "server.rows_sent",
    "sort.runs_spilled",      "sort.merge_levels",      "tempfile.files",
    "tempfile.retries"};

Snapshot Snap() {
  MetricRegistry& reg = MetricRegistry::Instance();
  Snapshot s;
  for (const char* name : kCounters) s.counters[name] = reg.GetCounter(name, "").value();
  const Histogram& lat = reg.GetHistogram("server.query_latency_us", "");
  const Histogram& adm = reg.GetHistogram("server.admission_wait_us", "");
  for (uint32_t i = 0; i < Histogram::kBuckets; ++i) {
    s.latency[i] = lat.bucket_count(i);
    s.admission[i] = adm.bucket_count(i);
  }
  return s;
}

uint64_t Delta(const Snapshot& a, const Snapshot& b, const char* name) {
  return b.counters.at(name) - a.counters.at(name);
}

/// Percentile of the samples recorded between two bucket snapshots, with
/// the registry's own in-bucket interpolation (Histogram::Percentile).
double HistogramPercentile(const Buckets& before, const Buckets& after, double p) {
  uint64_t counts[Histogram::kBuckets];
  double total = 0;
  for (uint32_t i = 0; i < Histogram::kBuckets; ++i) {
    counts[i] = after[i] - before[i];
    total += static_cast<double>(counts[i]);
  }
  if (total == 0) return 0;
  const double target = p * total;
  double cumulative = 0;
  for (uint32_t i = 0; i < Histogram::kBuckets; ++i) {
    if (counts[i] == 0) continue;
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= target) {
      if (i == 0) return 0;
      const double lo = i == 1 ? 1.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(i));
      return lo + (target - cumulative) / static_cast<double>(counts[i]) * (hi - lo);
    }
    cumulative = next;
  }
  return 0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

bool StartsWith(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

/// The exec.* operator class a profile line's self time is charged to;
/// nullptr for the classes not broken out (project, limit, elided sorts,
/// hash joins). In-sort aggregation and distinct are sorts: the grouping
/// is folded into run generation and merge.
const char* OperatorClass(const std::string& label) {
  if (StartsWith(label, "scan")) return "scan";
  if (StartsWith(label, "filter")) return "filter";
  if (StartsWith(label, "sort") || StartsWith(label, "in-sort-")) return "sort";
  if (StartsWith(label, "merge-join")) return "merge_join";
  if (StartsWith(label, "in-stream-aggregate") || StartsWith(label, "hash-aggregate") ||
      StartsWith(label, "hash-distinct") || StartsWith(label, "dedup")) {
    return "aggregate";
  }
  if (StartsWith(label, "set-operation")) return "set_op";
  if (StartsWith(label, "merge-exchange") || StartsWith(label, "split-exchange")) {
    return "exchange";
  }
  return nullptr;
}

/// Durations (us) of the exported trace spans named `name`.
std::vector<double> SpanUs(const std::string& json, const std::string& name) {
  const std::string key = "{\"name\":\"" + name + "\"";
  std::vector<double> out;
  for (size_t at = json.find(key); at != std::string::npos; at = json.find(key, at + 1)) {
    const size_t dur = json.find("\"dur\":", at);
    if (dur == std::string::npos) break;
    out.push_back(std::strtod(json.c_str() + dur + 6, nullptr));
  }
  return out;
}

double SpanMs(const std::string& json, const std::string& name) {
  double total_us = 0;
  for (double us : SpanUs(json, name)) total_us += us;
  return total_us / 1e3;
}

struct SortPhases {
  double run_generation_ms = 0, spill_ms = 0, merge_ms = 0;
};

/// Feeds one table's rows through ExternalSort under the served sort
/// budget. AddBlock and Finish interleave run generation, spilling and
/// intermediate merges, so those are split by the sort.* spans; the final
/// merge is the NextBlock drain, timed from here. Returns false if the output
/// is not the input in order.
bool ReplaySort(const TableDef& def, const ovc::SortConfig& config,
                const std::string& temp_dir, SortPhases* out) {
  const ovc::RowBuffer rows = def.Generate();
  const ovc::Schema schema = def.schema();
  const uint32_t width = schema.total_columns();
  ovc::QueryCounters counters;
  ovc::TempFileManager temp(temp_dir);
  double drain_us = 0;
  uint64_t served = 0;
  bool ordered = true;
  ovc::trace::Enable();
  {
    ovc::ExternalSort sort(&schema, &counters, &temp, config);
    ovc::RowBlock block(width);
    for (size_t begin = 0; begin < rows.size(); begin += block.capacity()) {
      block.Clear();
      const size_t end = std::min(rows.size(), begin + block.capacity());
      for (size_t r = begin; r < end; ++r) block.Append(rows.row(r), 0);
      sort.AddBlock(block);
    }
    const ovc::Status finished = sort.Finish();
    if (!finished.ok()) {
      NoteFailure("sort replay of " + def.name + ": " + finished.ToString());
      ovc::trace::Disable();
      return false;
    }
    ovc::RowBlock result(width);
    std::vector<uint64_t> last;
    for (;;) {
      const Clock::time_point d0 = Clock::now();
      const uint32_t n = sort.NextBlock(&result);
      drain_us += Us(d0, Clock::now());
      if (n == 0) break;
      for (uint32_t i = 0; i < n; ++i) {
        const uint64_t* row = result.row(i);
        if (!last.empty() && std::lexicographical_compare(
                                 row, row + schema.key_arity(), last.begin(), last.end())) {
          ordered = false;
        }
        last.assign(row, row + schema.key_arity());
      }
      served += n;
    }
  }
  ovc::trace::Disable();
  const std::string json = ovc::trace::ExportJson();
  const double run_gen = SpanMs(json, "sort.run_generation");
  const double spill = SpanMs(json, "sort.spill_run");
  const double merge_levels = SpanMs(json, "sort.merge_level");
  // Spilled runs are generated inside their sort.spill_run span; the
  // in-memory case generates its one run outside any spill.
  out->run_generation_ms += run_gen;
  out->spill_ms += spill > 0 ? spill - run_gen : 0;
  out->merge_ms += merge_levels + drain_us / 1e3;
  if (!ordered || served != rows.size()) {
    NoteFailure("sort replay of " + def.name + " returned " + std::to_string(served) +
                " rows" + (ordered ? "" : " out of order"));
    return false;
  }
  return true;
}

/// What one pass over the workload's fixed templates produced.
struct TemplatePass {
  ovc::QueryCounters counts;
  double execute_ms = 0;
  double input_rows = 0;
  /// Rows the scan operators emitted, from the profile.
  double scanned_rows = 0;
  double result_rows = 0;
  std::map<std::string, uint64_t> plan_nodes;
  std::map<std::string, double> self_ns;
};

/// Prepares and runs every template once through an in-process SqlSession
/// with `options`, checking each answer.
TemplatePass RunTemplates(const Served& served, const std::vector<Statement>& templates,
                          const ovc::plan::PlanExecutor::Options& options,
                          uint64_t* attempted, uint64_t* failed) {
  TemplatePass pass;
  ovc::sql::SqlSession session(served.catalog.get(), options, served.server->temp_root());
  for (const Statement& st : templates) {
    ++*attempted;
    auto prepared = session.Prepare(st.sql);
    if (!prepared.ok()) {
      NoteFailure("prepare [" + st.sql + "]: " + prepared.error().message);
      ++*failed;
      continue;
    }
    ovc::sql::PreparedQuery* query = prepared.value().get();
    const Clock::time_point t0 = Clock::now();
    const ovc::sql::QueryResult result = session.Run(query);
    pass.execute_ms += Us(t0, Clock::now()) / 1e3;
    std::string why;
    if (!result.result.status.ok()) {
      why = result.result.status.ToString();
    } else if (CheckRows(*st.expected, ToRows(result.result.rows), &why)) {
      why.clear();
    }
    if (!why.empty()) {
      NoteFailure("in-process [" + st.sql + "]: " + why);
      ++*failed;
    }
    pass.counts.Merge(result.counters_delta);
    pass.input_rows += static_cast<double>(st.input_rows);
    pass.result_rows += static_cast<double>(result.result.rows.size());

    const std::string explain = query->explain_text();
    for (size_t at = 0; at < explain.size();) {
      size_t end = explain.find('\n', at);
      if (end == std::string::npos) end = explain.size();
      std::string line = explain.substr(at, end - at);
      line.erase(0, line.find_first_not_of(' '));
      if (StartsWith(line, "elided-sort")) {
        ++pass.plan_nodes["elided"];
      } else if (StartsWith(line, "sort") || StartsWith(line, "in-sort-")) {
        ++pass.plan_nodes["sort"];
      } else if (StartsWith(line, "hash-")) {
        ++pass.plan_nodes["hash"];
      } else if (StartsWith(line, "merge-exchange") || StartsWith(line, "split-exchange")) {
        ++pass.plan_nodes["exchange"];
      }
      at = end + 1;
    }
    if (const ovc::QueryProfile* profile = query->physical->profile()) {
      const auto& nodes = profile->nodes();
      for (size_t i = 0; i < nodes.size(); ++i) {
        const char* cls = OperatorClass(nodes[i].label);
        if (cls == nullptr) continue;
        if (std::strcmp(cls, "scan") == 0) {
          pass.scanned_rows += static_cast<double>(profile->ActualRows(static_cast<int>(i)));
        }
        double self = static_cast<double>(profile->ActualNs(static_cast<int>(i)));
        for (int child : nodes[i].children) {
          self -= static_cast<double>(profile->ActualNs(child));
        }
        // The profile times a sample of calls and scales it up, so a
        // parent can read slightly less than its children.
        pass.self_ns[cls] += std::max(0.0, self);
      }
    }
  }
  return pass;
}

}  // namespace

std::vector<Metric> MeasureLayers(const LayerRun& run, uint64_t* attempted,
                                  uint64_t* failed) {
  Served* served = run.served;
  const Workload& w = *run.workload;
  ovc::server::Server& server = *served->server;
  std::vector<Metric> m;

  // -- server / bench: half the run untraced, then the same statements
  // with the program's tracing on. Stopping the server afterwards joins
  // its connection threads, which flushes their spans for export.
  const Snapshot s0 = Snap();
  const LoopStats untraced = RunLoop(served, w, run.seconds / 2, 0, UINT64_MAX);
  const Snapshot s1 = Snap();
  ovc::trace::Enable();
  const LoopStats traced = RunLoop(served, w, -1, 0, untraced.end_index);
  served->clients.clear();
  server.Stop();
  ovc::trace::Disable();
  const std::string served_trace = ovc::trace::ExportJson();
  *attempted += untraced.attempted + traced.attempted;
  *failed += untraced.failed + traced.failed;

  std::vector<double> client_ms;
  for (const Sample& s : traced.samples) client_ms.push_back(s.latency_ms);
  const double handler_ms = Median(SpanUs(served_trace, "server.query")) / 1e3;
  const double hits = static_cast<double>(Delta(s0, s1, "server.plan_cache.hits"));
  const double misses = static_cast<double>(Delta(s0, s1, "server.plan_cache.misses"));
  m.push_back({"server.transport_p50_ms", Median(client_ms) - handler_ms, "ms"});
  m.push_back({"server.handler_p50_ms", handler_ms, "ms"});
  m.push_back({"server.admission_wait_p99_ms",
               HistogramPercentile(s0.admission, s1.admission, 0.99) / 1e3, "ms"});
  m.push_back({"server.admission_wait_share",
               Ratio(static_cast<double>(Delta(s0, s1, "server.admission_waits")),
                     static_cast<double>(Delta(s0, s1, "server.queries"))),
               "share"});
  m.push_back({"server.plan_cache_hit_share", Ratio(hits, hits + misses), "share"});

  // -- sql / plan / plan cache: each distinct text's front-end calls -----
  std::set<std::string> texts;
  for (uint64_t i = 0; i < untraced.end_index && texts.size() < 200; ++i) {
    texts.insert(w.At(i).sql);
  }
  const ovc::plan::PlanExecutor::Options& options = server.session_options();
  ovc::sql::SqlSession planner(served->catalog.get(), options, server.temp_root());
  const ovc::sql::Binder binder(served->catalog.get());
  double tokenize = 0, parse = 0, bind = 0, plan = 0, cache_hit = 0, cache_miss = 0;
  for (const std::string& sql : texts) {
    tokenize += TimeUs(5, [&] { (void)ovc::sql::Tokenize(sql); });
    parse += TimeUs(5, [&] { (void)ovc::sql::ParseStatement(sql); });
    ovc::sql::SqlResult<ovc::sql::Statement> stmt = ovc::sql::ParseStatement(sql);
    if (!stmt.ok()) continue;  // the served run already failed it
    bind += TimeUs(5, [&] { (void)binder.Bind(stmt.value().select); });
    ovc::sql::SqlResult<ovc::sql::BoundQuery> bound = binder.Bind(stmt.value().select);
    if (bound.ok()) plan += TimeUs(5, [&] { (void)planner.Instantiate(&bound.value()); });
    ovc::server::PlanCache cache(16, ovc::server::OptionsFingerprint(options));
    cache_miss += TimeUs(1, [&] { (void)cache.GetOrBind(sql, served->catalog.get()); });
    cache_hit += TimeUs(5, [&] { (void)cache.GetOrBind(sql, served->catalog.get()); });
  }
  const double nt = static_cast<double>(std::max<size_t>(texts.size(), 1));
  m.push_back({"server.plan_cache_hit_us", cache_hit / nt, "us"});
  m.push_back({"server.plan_cache_miss_us", cache_miss / nt, "us"});
  m.push_back({"server.bytes_sent_per_row",
               Ratio(static_cast<double>(Delta(s0, s1, "server.bytes_sent")),
                     static_cast<double>(Delta(s0, s1, "server.rows_sent"))),
               "B/row"});
  m.push_back({"sql.tokenize_us", tokenize / nt, "us"});
  m.push_back({"sql.parse_us", parse / nt, "us"});
  m.push_back({"sql.bind_us", bind / nt, "us"});
  m.push_back({"plan.plan_us", plan / nt, "us"});

  // -- plan / exec / core / pq / sort: each template once, profiled, with
  // exchange workers pulled inline on one thread. That makes the counts
  // exact (threaded producers run ahead of a LIMIT by a timing-dependent
  // amount) and keeps waits on other threads out of operator self times.
  // exec.execute_ms comes from a second pass with the served options.
  const std::vector<Statement> templates = w.Templates();
  ovc::plan::PlanExecutor::Options profiled = options;
  profiled.planner.profile = true;
  profiled.planner.exchange.threaded = false;
  const Snapshot t0 = Snap();
  const TemplatePass exact = RunTemplates(*served, templates, profiled, attempted, failed);
  const Snapshot t1 = Snap();
  const TemplatePass served_pass =
      RunTemplates(*served, templates, options, attempted, failed);
  const ovc::QueryCounters& c = exact.counts;
  const double ntpl = static_cast<double>(std::max<size_t>(templates.size(), 1));
  const double in = exact.input_rows;
  auto nodes = [&](const char* kind) {
    auto it = exact.plan_nodes.find(kind);
    return it == exact.plan_nodes.end() ? 0.0 : static_cast<double>(it->second);
  };
  m.push_back({"plan.sort_nodes", nodes("sort"), "count"});
  m.push_back({"plan.elided_sorts", nodes("elided"), "count"});
  m.push_back({"plan.exchange_nodes", nodes("exchange"), "count"});
  m.push_back({"plan.hash_nodes", nodes("hash"), "count"});
  m.push_back({"exec.execute_ms", served_pass.execute_ms / ntpl, "ms"});
  for (const char* cls : {"scan", "filter", "sort", "merge_join", "aggregate", "set_op",
                          "exchange"}) {
    auto it = exact.self_ns.find(cls);
    const double ns = it == exact.self_ns.end() ? 0.0 : it->second;
    m.push_back({std::string("exec.") + cls + "_self_ms", ns / 1e6 / ntpl, "ms"});
  }
  m.push_back({"exec.rows_scanned_per_result_row", Ratio(exact.scanned_rows, exact.result_rows),
               "rows/row"});
  m.push_back({"exec.hash_per_row", Ratio(static_cast<double>(c.hash_computations), in),
               "1/row"});
  m.push_back({"exec.fallbacks",
               static_cast<double>(c.hash_join_fallbacks + c.hash_agg_fallbacks), "count"});

  // -- sort: the workload's rows through ExternalSort, phase by phase -----
  SortPhases phases;
  for (size_t t : w.sort_replay_tables()) {
    ++*attempted;
    if (!ReplaySort(w.tables()[t], options.planner.sort_config, run.temp_dir, &phases)) {
      ++*failed;
    }
  }
  m.push_back({"sort.run_generation_ms", phases.run_generation_ms, "ms"});
  m.push_back({"sort.spill_ms", phases.spill_ms, "ms"});
  m.push_back({"sort.merge_ms", phases.merge_ms, "ms"});
  m.push_back({"sort.runs_spilled", static_cast<double>(Delta(t0, t1, "sort.runs_spilled")),
               "count"});
  m.push_back({"sort.merge_levels", static_cast<double>(Delta(t0, t1, "sort.merge_levels")),
               "count"});
  m.push_back({"sort.bytes_spilled_per_row", Ratio(static_cast<double>(c.bytes_spilled), in),
               "B/row"});
  m.push_back({"core.column_cmp_per_row",
               Ratio(static_cast<double>(c.column_comparisons), in), "1/row"});
  m.push_back({"core.code_cmp_per_row", Ratio(static_cast<double>(c.code_comparisons), in),
               "1/row"});
  m.push_back({"core.row_cmp_per_row", Ratio(static_cast<double>(c.row_comparisons), in),
               "1/row"});
  m.push_back({"pq.merge_bypass_share", Ratio(static_cast<double>(c.merge_bypass_rows), in),
               "share"});
  m.push_back({"common.tempfile_files", static_cast<double>(Delta(t0, t1, "tempfile.files")),
               "count"});
  m.push_back({"common.tempfile_retries",
               static_cast<double>(Delta(t0, t1, "tempfile.retries")), "count"});
  m.push_back({"row.generate_s", run.generate_s, "s"});
  m.push_back({"bench.trace_overhead_share",
               Ratio(traced.wall_s - untraced.wall_s, untraced.wall_s), "share"});
  return m;
}

}  // namespace ovcbench
