#include "common/profile.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace ovc {

namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Ticks per nanosecond, calibrated once against steady_clock over a short
/// busy-wait. rdtsc on any machine this targets is invariant (constant rate,
/// synchronized across cores), so one process-wide ratio is exact enough
/// for millisecond-rendered profiles.
double TicksPerNs() {
  static const double ratio = [] {
    const uint64_t ns0 = SteadyNowNs();
    const uint64_t t0 = ProfileTicks();
    // ~2ms busy-wait: long enough that clock-read latency is noise.
    while (SteadyNowNs() - ns0 < 2'000'000) {
    }
    const uint64_t ns1 = SteadyNowNs();
    const uint64_t t1 = ProfileTicks();
    const double r = static_cast<double>(t1 - t0) /
                     static_cast<double>(ns1 - ns0);
    return r > 0 ? r : 1.0;
  }();
  return ratio;
}

uint64_t RoundU64(double v) {
  if (v < 0.0) v = 0.0;
  if (v > 1e18) v = 1e18;
  return static_cast<uint64_t>(std::llround(v));
}

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FormatQ(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", q);
  return buf;
}

/// Clamped q-error: perfect when both sides round to the same >= 1 value.
double QErrorOf(double est, double actual) {
  const double e = est < 1.0 ? 1.0 : est;
  const double a = actual < 1.0 ? 1.0 : actual;
  return e > a ? e / a : a / e;
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonMs(const char* key, uint64_t ns, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.3f", key,
                static_cast<double>(ns) / 1e6);
  *out += buf;
}

}  // namespace

uint64_t TicksToNs(uint64_t ticks) {
  return static_cast<uint64_t>(static_cast<double>(ticks) / TicksPerNs());
}

int QueryProfile::AddNode(std::string label, double est_rows,
                          double est_cost, std::vector<int> children,
                          std::string table) {
  for (int c : children) {
    OVC_CHECK(c >= 0 && c < static_cast<int>(nodes_.size()));
  }
  Node n;
  n.label = std::move(label);
  n.table = std::move(table);
  n.est_rows = est_rows;
  n.est_cost = est_cost;
  n.children = std::move(children);
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

OperatorStats* QueryProfile::AddSlice(int node) {
  OVC_CHECK(node >= 0 && node < static_cast<int>(nodes_.size()));
  nodes_[node].slices.push_back(std::make_unique<OperatorStats>());
  return nodes_[node].slices.back().get();
}

QueryCounters QueryProfile::FinishRun(QueryCounters* into, uint64_t wall_ns) {
  QueryCounters rolled;
  for (Node& n : nodes_) {
    n.total.Reset();
    n.has_actuals = !n.slices.empty();
    for (std::unique_ptr<OperatorStats>& slice : n.slices) {
      slice->ClampToLiveSpan();
      n.total.Merge(*slice);
      rolled.Merge(slice->counters);
      slice->Reset();
    }
  }
  if (into != nullptr) into->Merge(rolled);
  wall_ns_ = wall_ns;
  ++runs_;
  return rolled;
}

QueryCounters QueryProfile::TreeCounterTotals() const {
  QueryCounters sum;
  if (root_ < 0) return sum;
  std::vector<int> stack = {root_};
  std::vector<bool> seen(nodes_.size(), false);
  while (!stack.empty()) {
    const int i = stack.back();
    stack.pop_back();
    OVC_CHECK(!seen[i]);  // each plan node reachable exactly once
    seen[i] = true;
    sum.Merge(nodes_[i].total.counters);
    for (int c : nodes_[i].children) stack.push_back(c);
  }
  return sum;
}

uint64_t QueryProfile::ActualRows(int node) const {
  const Node& n = nodes_[node];
  if (n.has_actuals) return n.total.rows_out;
  // A slice-less line (elided sort) passes its child's stream through
  // untouched.
  if (n.children.size() == 1) return ActualRows(n.children[0]);
  return 0;
}

uint64_t QueryProfile::ActualNs(int node) const {
  const Node& n = nodes_[node];
  if (n.has_actuals) return TicksToNs(n.total.total_ticks());
  if (n.children.size() == 1) return ActualNs(n.children[0]);
  return 0;
}

double QueryProfile::QError(int node) const {
  return QErrorOf(nodes_[node].est_rows,
                  static_cast<double>(ActualRows(node)));
}

double QueryProfile::WorstQError() const {
  double worst = 1;
  if (runs_ == 0) return worst;
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    const double q = QError(i);
    if (q > worst) worst = q;
  }
  return worst;
}

void QueryProfile::RenderNode(int node, int depth, double worst_q,
                              std::string* out) const {
  const Node& n = nodes_[node];
  const QueryCounters& c = n.total.counters;
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += n.label;
  *out += " {rows=" + std::to_string(RoundU64(n.est_rows)) + "/" +
          std::to_string(ActualRows(node)) +
          " cost=" + std::to_string(RoundU64(n.est_cost)) +
          " time=" + FormatMs(ActualNs(node)) +
          " cmp=" + std::to_string(c.column_comparisons) + "/" +
          std::to_string(c.code_comparisons) +
          " spill=" + std::to_string(c.rows_spilled) + "}";
  if (c.hash_join_fallbacks + c.hash_agg_fallbacks > 0) {
    *out += " !fallback(hash->sort)";
  }
  const double q = QError(node);
  if (q >= 2.0 && q == worst_q) {
    *out += " !worst-q-error(q=" + FormatQ(q) + ")";
  }
  *out += "\n";
  for (int child : n.children) RenderNode(child, depth + 1, worst_q, out);
}

std::string QueryProfile::Render() const {
  std::string out;
  if (root_ < 0) return out;
  RenderNode(root_, 0, WorstQError(), &out);
  out += "-- wall=" + FormatMs(wall_ns_) +
         " worst-q-error=" + FormatQ(WorstQError()) + "\n";
  return out;
}

void QueryProfile::JsonNode(int node, std::string* out) const {
  const Node& n = nodes_[node];
  const QueryCounters& c = n.total.counters;
  *out += "{\"op\":";
  AppendJsonString(n.label, out);
  if (!n.table.empty()) {
    *out += ",\"table\":";
    AppendJsonString(n.table, out);
  }
  *out += ",\"est_rows\":" + std::to_string(RoundU64(n.est_rows)) +
          ",\"est_cost\":" + std::to_string(RoundU64(n.est_cost)) +
          ",\"actual_rows\":" + std::to_string(ActualRows(node)) +
          ",\"batches\":" + std::to_string(n.total.batches_out) + ",";
  AppendJsonMs("time_ms", ActualNs(node), out);
  *out += ",";
  AppendJsonMs("open_ms", TicksToNs(n.total.open_ticks), out);
  *out += ",";
  AppendJsonMs("next_ms", TicksToNs(n.total.scaled_next_ticks()), out);
  *out += ",";
  AppendJsonMs("close_ms", TicksToNs(n.total.close_ticks), out);
  char qbuf[64];
  std::snprintf(qbuf, sizeof(qbuf), ",\"q_error\":%.3f", QError(node));
  *out += qbuf;
  *out += ",\"counters\":{";
  const char* sep = "";
#define OVC_JSON_COUNTER(field, label, help)                          \
  *out += sep + std::string("\"" #field "\":") + std::to_string(c.field); \
  sep = ",";
  OVC_QUERY_COUNTERS(OVC_JSON_COUNTER)
#undef OVC_JSON_COUNTER
  *out += "}";
  *out += ",\"children\":[";
  for (size_t i = 0; i < n.children.size(); ++i) {
    if (i > 0) *out += ",";
    JsonNode(n.children[i], out);
  }
  *out += "]}";
}

std::string QueryProfile::ToJson() const {
  std::string out = "{";
  AppendJsonMs("wall_ms", wall_ns_, &out);
  out += ",\"runs\":" + std::to_string(runs_);
  char qbuf[64];
  std::snprintf(qbuf, sizeof(qbuf), ",\"worst_q_error\":%.3f", WorstQError());
  out += qbuf;
  out += ",\"plan\":";
  if (root_ >= 0) {
    JsonNode(root_, &out);
  } else {
    out += "null";
  }
  out += "}";
  return out;
}

std::vector<QueryProfile::CardFeedback> QueryProfile::ScanFeedback() const {
  std::vector<CardFeedback> out;
  if (runs_ == 0) return out;
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    const Node& n = nodes_[i];
    if (n.table.empty()) continue;
    // Only a scan that reached its end saw the whole table: one cut short
    // (under a LIMIT, or a merge join that stopped early) never got the
    // empty batch that ends a stream.
    if (n.total.next_calls == n.total.batches_out) continue;
    CardFeedback fb;
    fb.table = n.table;
    fb.est_rows = n.est_rows;
    fb.actual_rows = static_cast<double>(ActualRows(i));
    fb.q_error = QErrorOf(fb.est_rows, fb.actual_rows);
    out.push_back(std::move(fb));
  }
  return out;
}

}  // namespace ovc
