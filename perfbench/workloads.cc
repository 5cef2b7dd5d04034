// The three benchmark workloads: tables, statement streams, and answers.
//
// Every answer is computed here, once per run, by plain std evaluation
// over the generated rows -- never by the engine under test. See
// perfbench/README.md for why each workload exists.

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "row/generator.h"

namespace ovcbench {

namespace {

/// Independent 64-bit value for (a, b): the stream's source of randomness,
/// so statement i is a pure function of (seed, i) however many run.
uint64_t Mix(uint64_t a, uint64_t b) {
  ovc::Rng rng(a * 0x9e3779b97f4a7c15ULL + b);
  rng.Next();
  return rng.Next();
}

uint64_t Scaled(uint64_t rows, double scale) {
  return std::max<uint64_t>(
      64, static_cast<uint64_t>(std::llround(static_cast<double>(rows) * scale)));
}

/// Key of up to eight columns, ordered lexicographically.
struct Key {
  std::array<uint64_t, 8> v{};
  uint32_t n = 0;
  bool operator<(const Key& o) const {
    return std::lexicographical_compare(v.begin(), v.begin() + n, o.v.begin(),
                                        o.v.begin() + o.n);
  }
};

Key KeyOf(const uint64_t* row, const std::vector<uint32_t>& cols) {
  Key k;
  k.n = static_cast<uint32_t>(cols.size());
  for (uint32_t i = 0; i < k.n; ++i) k.v[i] = row[cols[i]];
  return k;
}

/// The `limit` smallest distinct values of `cols` with their row counts,
/// ascending: the answer of GROUP BY/DISTINCT/ORDER BY ... LIMIT.
std::vector<std::pair<Key, uint64_t>> SmallestGroups(
    const ovc::RowBuffer& rows, const std::vector<uint32_t>& cols,
    size_t limit) {
  std::map<Key, uint64_t> best;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Key k = KeyOf(rows.row(i), cols);
    if (best.size() >= limit && best.rbegin()->first < k) continue;
    ++best[k];
    if (best.size() > limit) best.erase(std::prev(best.end()));
  }
  return {best.begin(), best.end()};
}

std::vector<uint64_t> KeyRow(const Key& k) {
  return std::vector<uint64_t>(k.v.begin(), k.v.begin() + k.n);
}

std::shared_ptr<const Expected> Answer(Rows rows, uint32_t order_prefix) {
  auto e = std::make_shared<Expected>();
  e->rows = std::move(rows);
  e->order_prefix = order_prefix;
  return e;
}

/// Rounds of a fixed template list, each round in its own seeded order:
/// the mix of every whole round is identical, so a run's figures do not
/// drift with how many statements it managed.
Statement RoundRobin(const std::vector<Statement>& templates, uint64_t seed,
                     uint64_t index) {
  const uint64_t n = templates.size();
  std::vector<uint64_t> order(n);
  for (uint64_t i = 0; i < n; ++i) order[i] = i;
  ovc::Rng rng(Mix(seed, index / n));
  for (uint64_t i = n - 1; i > 0; --i) std::swap(order[i], order[rng.Uniform(i + 1)]);
  return templates[order[index % n]];
}

// ---------------------------------------------------------------------------
// serve_point: the fixed cost of a statement.
// ---------------------------------------------------------------------------

class ServePoint : public Workload {
 public:
  ServePoint(uint64_t seed, double scale) : seed_(seed) {
    name_ = "serve_point";
    // orders(custkey, orderkey, amount) sorted on (custkey, orderkey);
    // amount is the generator's row number, so every row is distinct.
    tables_.push_back({"orders", {"custkey", "orderkey", "amount"}, 2,
                       Scaled(100000, scale), kDomain, true, Mix(seed, 1001)});
    tables_.push_back({"customer", {"custkey", "nation"}, 1, kDomain, kDomain,
                       true, Mix(seed, 1002)});
    serving_.connections = 4;
    serving_.max_queries = 4;
    serving_.workers_per_query = 1;
    serving_.warmup_statements = 48;
    sort_replay_tables_ = {0};
  }

  void Prepare() override {
    orders_ = tables_[0].Generate();
    customer_ = tables_[1].Generate();
    // 48 hot texts: 12 literal sets of each of the four classes; half of
    // each class is prepared (EXECUTE), the other half goes through QUERY.
    for (uint64_t h = 0; h < kHot; ++h) {
      Statement st = Make(h % 4, Mix(seed_, 2000 + h));
      if ((h / 4) % 2 == 0) {
        st.prepared = static_cast<int>(prepared_texts_.size());
        prepared_texts_.push_back(st.sql);
      } else {
        warm_texts_.push_back(st.sql);
      }
      hot_.push_back(std::move(st));
    }
  }

  // 88% hot texts, 12% ad hoc texts with fresh literals (plan-cache
  // misses). Not 90/10: if the ad hoc mode is the slowest, p90 would sit
  // exactly on the border between it and the hot modes.
  Statement At(uint64_t index) const override {
    const uint64_t h = Mix(seed_, index);
    if (h % 100 < 88) return hot_[(h >> 8) % kHot];
    return Make((h >> 8) % 4, Mix(h, 3));
  }

  std::vector<Statement> Templates() const override {
    std::vector<Statement> out = hot_;
    for (uint64_t k = 0; k < 12; ++k) out.push_back(Make(k % 4, Mix(seed_, 9000 + k)));
    return out;
  }

 private:
  static constexpr uint64_t kDomain = 1000;
  static constexpr uint64_t kHot = 48;

  /// [begin, end) of orders rows with custkey == c (and orderkey in
  /// [lo, hi) when given).
  std::pair<size_t, size_t> OrdersRange(uint64_t c, uint64_t lo,
                                        uint64_t hi) const {
    auto at = [&](uint64_t ck, uint64_t ok) {
      size_t l = 0, r = orders_.size();
      while (l < r) {
        const size_t m = (l + r) / 2;
        const uint64_t* row = orders_.row(m);
        if (row[0] < ck || (row[0] == ck && row[1] < ok)) l = m + 1; else r = m;
      }
      return l;
    };
    return {at(c, lo), at(c, hi)};
  }

  uint64_t OrdersRow(uint64_t r, int col) const {
    return orders_.row(r % orders_.size())[col];
  }

  Statement Make(uint64_t cls, uint64_t r) const {
    Statement st;
    st.input_rows = orders_.size();
    Rows rows;
    switch (cls) {
      case 0: {  // point lookup of an existing (custkey, orderkey)
        const uint64_t c = OrdersRow(r, 0), k = OrdersRow(r, 1);
        st.cls = "point";
        st.sql = "SELECT custkey, orderkey, amount FROM orders WHERE custkey = " +
                 std::to_string(c) + " AND orderkey = " + std::to_string(k);
        const auto [b, e] = OrdersRange(c, k, k + 1);
        for (size_t i = b; i < e; ++i) {
          rows.push_back({c, k, orders_.row(i)[2]});
        }
        st.expected = Answer(std::move(rows), 0);
        break;
      }
      case 1: {  // range on the sort prefix, ordered, LIMIT 20
        const uint64_t c = OrdersRow(r, 0), lo = (r >> 20) % (kDomain - 100);
        st.cls = "range";
        st.sql = "SELECT custkey, orderkey FROM orders WHERE custkey = " +
                 std::to_string(c) + " AND orderkey >= " + std::to_string(lo) +
                 " AND orderkey < " + std::to_string(lo + 100) +
                 " ORDER BY custkey, orderkey LIMIT 20";
        const auto [b, e] = OrdersRange(c, lo, lo + 100);
        for (size_t i = b; i < e && rows.size() < 20; ++i) rows.push_back({c, orders_.row(i)[1]});
        st.expected = Answer(std::move(rows), 2);
        break;
      }
      case 2: {  // dimension join on the shared sort key, LIMIT 100
        st.cls = "join";
        st.input_rows += customer_.size();
        // Redraw until the whole answer fits the LIMIT, so any correct
        // plan returns exactly it.
        for (uint64_t attempt = 0;; ++attempt) {
          const uint64_t c = customer_.row(Mix(r, attempt) % customer_.size())[0];
          const uint64_t hi = attempt < 16 ? 50 + (Mix(r, attempt) >> 24) % 250 : 1;
          rows.clear();
          const auto [b, e] = OrdersRange(c, 0, hi);
          for (size_t j = 0; j < customer_.size(); ++j) {
            if (customer_.row(j)[0] != c) continue;
            for (size_t i = b; i < e; ++i) rows.push_back({c, customer_.row(j)[1], orders_.row(i)[1]});
          }
          if (rows.size() > 100) continue;
          st.sql = "SELECT c.custkey, c.nation, o.orderkey FROM customer c "
                   "JOIN orders o ON c.custkey = o.custkey WHERE c.custkey = " +
                   std::to_string(c) + " AND o.orderkey < " + std::to_string(hi) +
                   " LIMIT 100";
          break;
        }
        st.expected = Answer(std::move(rows), 0);
        break;
      }
      default: {  // prefix GROUP BY over 20 customers
        const uint64_t lo = r % (kDomain - 20);
        st.cls = "group";
        st.sql = "SELECT custkey, COUNT(*) AS n, SUM(amount) AS s FROM orders "
                 "WHERE custkey >= " + std::to_string(lo) + " AND custkey < " +
                 std::to_string(lo + 20) + " GROUP BY custkey ORDER BY custkey";
        for (uint64_t c = lo; c < lo + 20; ++c) {
          const auto [b, e] = OrdersRange(c, 0, kDomain);
          if (b == e) continue;
          uint64_t sum = 0;
          for (size_t i = b; i < e; ++i) sum += orders_.row(i)[2];
          rows.push_back({c, e - b, sum});
        }
        st.expected = Answer(std::move(rows), 1);
        break;
      }
    }
    return st;
  }

  const uint64_t seed_;
  ovc::RowBuffer orders_{3};
  ovc::RowBuffer customer_{2};
  std::vector<Statement> hot_;
};

// ---------------------------------------------------------------------------
// sort_spill: run generation, spill, merge, and the compare loop.
// ---------------------------------------------------------------------------

class SortSpill : public Workload {
 public:
  SortSpill(uint64_t seed, double scale) : seed_(seed) {
    name_ = "sort_spill";
    const uint64_t rows = Scaled(1000000, scale);
    // w2: two keys with ~rows distinct values each -- neighbours in sort
    // order share short prefixes. w8: eight keys with 4 values each --
    // long shared prefixes, where offset-value codes pay off.
    tables_.push_back({"w2", {"a", "b", "p"}, 2, rows, rows, false, Mix(seed, 1001)});
    tables_.push_back({"w8", {"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "p"},
                       8, rows, 4, false, Mix(seed, 1002)});
    serving_.connections = 1;
    serving_.max_queries = 1;
    serving_.workers_per_query = 1;
    serving_.sort_memory_rows = std::max<uint64_t>(64, rows / 16);
    serving_.round_length = 7;
    serving_.warmup_statements = 7;
    sort_replay_tables_ = {0, 1};
  }

  void Prepare() override {
    const ovc::RowBuffer w2 = tables_[0].Generate();
    const ovc::RowBuffer w8 = tables_[1].Generate();
    const uint64_t n = w2.size();
    const std::string k8 = "k1, k2, k3, k4, k5, k6, k7, k8";
    const std::string k6 = "k1, k2, k3, k4, k5, k6";
    auto add = [&](std::string cls, std::string sql, const ovc::RowBuffer& rows,
                   std::vector<uint32_t> cols, size_t limit, bool count) {
      Rows answer;
      for (const auto& [key, c] : SmallestGroups(rows, cols, limit)) {
        answer.push_back(KeyRow(key));
        if (count) answer.back().push_back(c);
      }
      Statement st;
      st.cls = std::move(cls);
      st.sql = std::move(sql);
      st.input_rows = n;
      st.expected = Answer(std::move(answer), static_cast<uint32_t>(cols.size()));
      warm_texts_.push_back(st.sql);
      templates_.push_back(std::move(st));
    };
    add("order_w2", "SELECT a, b FROM w2 ORDER BY a, b LIMIT 1", w2, {0, 1}, 1, false);
    add("group_w2", "SELECT a, COUNT(*) AS n FROM w2 GROUP BY a ORDER BY a LIMIT 10",
        w2, {0}, 10, true);
    add("group_w2_b", "SELECT b, COUNT(*) AS n FROM w2 GROUP BY b ORDER BY b LIMIT 10",
        w2, {1}, 10, true);
    add("distinct_w2", "SELECT DISTINCT a, b FROM w2 ORDER BY a, b LIMIT 10", w2,
        {0, 1}, 10, false);
    add("order_w8", "SELECT " + k8 + " FROM w8 ORDER BY " + k8 + " LIMIT 1", w8,
        {0, 1, 2, 3, 4, 5, 6, 7}, 1, false);
    add("group_w8", "SELECT " + k6 + ", COUNT(*) AS n FROM w8 GROUP BY " + k6 +
        " ORDER BY " + k6 + " LIMIT 10", w8, {0, 1, 2, 3, 4, 5}, 10, true);
    add("distinct_w8", "SELECT DISTINCT " + k8 + " FROM w8 ORDER BY " + k8 +
        " LIMIT 10", w8, {0, 1, 2, 3, 4, 5, 6, 7}, 10, false);
  }

  Statement At(uint64_t index) const override {
    return RoundRobin(templates_, seed_, index);
  }
  std::vector<Statement> Templates() const override { return templates_; }

 private:
  const uint64_t seed_;
  std::vector<Statement> templates_;
};

// ---------------------------------------------------------------------------
// join_agg: the operators that consume and produce codes.
// ---------------------------------------------------------------------------

class JoinAgg : public Workload {
 public:
  JoinAgg(uint64_t seed, double scale) : seed_(seed) {
    name_ = "join_agg";
    const uint64_t orders = Scaled(125000, scale);
    tables_.push_back({"lineitem", {"orderkey", "partkey", "qty"}, 1,
                       Scaled(500000, scale), orders, false, Mix(seed, 1001)});
    tables_.push_back({"orders", {"orderkey", "custkey"}, 1, orders, orders, true,
                       Mix(seed, 1002)});
    tables_.push_back({"ta", {"x", "y", "p"}, 2, Scaled(250000, scale), 2000, false,
                       Mix(seed, 1003)});
    tables_.push_back({"tb", {"x", "y", "p"}, 2, Scaled(250000, scale), 2000, false,
                       Mix(seed, 1004)});
    serving_.connections = 3;
    serving_.max_queries = 2;
    serving_.workers_per_query = 2;
    // Whole-machine budget: each of the 2 slots gets twice lineitem, so
    // no sort spills.
    serving_.sort_memory_rows = 4 * tables_[0].rows;
    serving_.round_length = 7;
    serving_.warmup_statements = 21;
    sort_replay_tables_ = {0};
  }

  void Prepare() override {
    const ovc::RowBuffer lineitem = tables_[0].Generate();
    const ovc::RowBuffer orders = tables_[1].Generate();
    const ovc::RowBuffer ta = tables_[2].Generate();
    const ovc::RowBuffer tb = tables_[3].Generate();
    const uint64_t domain = tables_[0].distinct;
    std::vector<uint64_t> l_count(domain, 0), l_sum(domain, 0), o_count(domain, 0);
    for (size_t i = 0; i < lineitem.size(); ++i) {
      ++l_count[lineitem.row(i)[0]];
      l_sum[lineitem.row(i)[0]] += lineitem.row(i)[2];
    }
    for (size_t i = 0; i < orders.size(); ++i) ++o_count[orders.row(i)[0]];
    auto add = [&](std::string cls, std::string sql, uint64_t input, Rows rows,
                   uint32_t order_prefix) {
      Statement st;
      st.cls = std::move(cls);
      st.sql = std::move(sql);
      st.input_rows = input;
      st.expected = Answer(std::move(rows), order_prefix);
      warm_texts_.push_back(st.sql);
      templates_.push_back(std::move(st));
    };
    const uint64_t join_input = lineitem.size() + orders.size();

    Rows by_order;
    for (uint64_t k = 0; k < domain && by_order.size() < 100; ++k) {
      if (o_count[k] > 0 && l_count[k] > 0) {
        by_order.push_back({k, o_count[k] * l_count[k], o_count[k] * l_sum[k]});
      }
    }
    add("join_group", "SELECT o.orderkey, COUNT(*) AS n, SUM(l.qty) AS q FROM orders o "
        "JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.orderkey "
        "ORDER BY o.orderkey LIMIT 100", join_input, std::move(by_order), 3);

    Rows by_cust;  // custkey is unique per orders row
    for (size_t i = 0; i < orders.size(); ++i) {
      const uint64_t k = orders.row(i)[0];
      if (l_count[k] > 0) by_cust.push_back({orders.row(i)[1], l_count[k]});
    }
    std::sort(by_cust.begin(), by_cust.end());
    if (by_cust.size() > 100) by_cust.resize(100);
    add("join_group_cust", "SELECT o.custkey, COUNT(*) AS n FROM orders o "
        "JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.custkey "
        "ORDER BY o.custkey LIMIT 100", join_input, std::move(by_cust), 2);

    auto pairs = [](const ovc::RowBuffer& t) {
      std::vector<std::pair<uint64_t, uint64_t>> out;
      out.reserve(t.size());
      for (size_t i = 0; i < t.size(); ++i) out.emplace_back(t.row(i)[0], t.row(i)[1]);
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    };
    const auto pa = pairs(ta), pb = pairs(tb);
    auto first100 = [](const std::vector<std::pair<uint64_t, uint64_t>>& v) {
      Rows rows;
      for (size_t i = 0; i < v.size() && i < 100; ++i) rows.push_back({v[i].first, v[i].second});
      return rows;
    };
    const uint64_t set_input = ta.size() + tb.size();
    std::vector<std::pair<uint64_t, uint64_t>> tmp;
    std::set_intersection(pa.begin(), pa.end(), pb.begin(), pb.end(), std::back_inserter(tmp));
    add("intersect", "SELECT x, y FROM ta INTERSECT SELECT x, y FROM tb "
        "ORDER BY x, y LIMIT 100", set_input, first100(tmp), 2);
    tmp.clear();
    std::set_difference(pa.begin(), pa.end(), pb.begin(), pb.end(), std::back_inserter(tmp));
    add("except", "SELECT x, y FROM ta EXCEPT SELECT x, y FROM tb "
        "ORDER BY x, y LIMIT 100", set_input, first100(tmp), 2);
    tmp.clear();
    std::set_union(pa.begin(), pa.end(), pb.begin(), pb.end(), std::back_inserter(tmp));
    add("union", "SELECT x, y FROM ta UNION SELECT x, y FROM tb "
        "ORDER BY x, y LIMIT 100", set_input, first100(tmp), 2);

    Rows distinct_y;
    for (size_t i = 0; i < pa.size() && distinct_y.size() <= 100; ++i) {
      if (distinct_y.empty() || distinct_y.back()[0] != pa[i].first) {
        distinct_y.push_back({pa[i].first, 0});
      }
      ++distinct_y.back()[1];
    }
    if (distinct_y.size() > 100) distinct_y.resize(100);
    add("count_distinct", "SELECT x, COUNT(DISTINCT y) AS d FROM ta GROUP BY x "
        "ORDER BY x LIMIT 100", ta.size(), std::move(distinct_y), 1);

    // The elided sort: orders streams to the client in storage order.
    add("stream_orders", "SELECT orderkey, custkey FROM orders ORDER BY orderkey",
        orders.size(), ToRows(orders), 1);
  }

  Statement At(uint64_t index) const override {
    return RoundRobin(templates_, seed_, index);
  }
  std::vector<Statement> Templates() const override { return templates_; }

 private:
  const uint64_t seed_;
  std::vector<Statement> templates_;
};

}  // namespace

ovc::Schema TableDef::schema() const {
  return ovc::Schema(key_arity,
                     static_cast<uint32_t>(columns.size()) - key_arity);
}

ovc::sql::Catalog::GeneratedSpec TableDef::spec() const {
  ovc::sql::Catalog::GeneratedSpec s;
  s.distinct_per_column = distinct;
  s.seed = seed;
  s.sorted = sorted;
  return s;
}

ovc::RowBuffer TableDef::Generate() const {
  const ovc::Schema s = schema();
  ovc::GeneratorConfig config;
  config.rows = rows;
  config.distinct_per_column = distinct;
  config.seed = seed;
  config.sorted = sorted;
  ovc::RowBuffer out(s.total_columns());
  ovc::GenerateRows(s, config, &out);
  return out;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double scale) {
  if (name == "serve_point") return std::make_unique<ServePoint>(seed, scale);
  if (name == "sort_spill") return std::make_unique<SortSpill>(seed, scale);
  if (name == "join_agg") return std::make_unique<JoinAgg>(seed, scale);
  return nullptr;
}

Rows ToRows(const ovc::RowBuffer& buffer) {
  Rows rows(buffer.size());
  for (size_t i = 0; i < buffer.size(); ++i) {
    rows[i].assign(buffer.row(i), buffer.row(i) + buffer.width());
  }
  return rows;
}

bool CheckRows(const Expected& expected, const Rows& rows, std::string* why) {
  if (rows.size() != expected.rows.size()) {
    *why = "returned " + std::to_string(rows.size()) + " rows, expected " +
           std::to_string(expected.rows.size());
    return false;
  }
  if (rows == expected.rows) return true;
  const uint32_t p = expected.order_prefix;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() < p ||
        std::lexicographical_compare(rows[i].begin(), rows[i].begin() + p,
                                     rows[i - 1].begin(), rows[i - 1].begin() + p)) {
      *why = "row " + std::to_string(i) + " breaks the ORDER BY";
      return false;
    }
  }
  // Ties on the ordered prefix (or no ORDER BY) may come in any order.
  Rows got = rows, want = expected.rows;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got != want) {
    *why = "rows differ from the reference answer";
    return false;
  }
  return true;
}

}  // namespace ovcbench
