// Instrumentation counters.
//
// The paper's cost model is stated in terms of *column value comparisons*
// (bounded by N x K, with no log N factor) and *code comparisons* (folded
// into other work, effectively free). Every comparator and operator in this
// library counts its work through a QueryCounters instance so that tests can
// assert the paper's bounds and benchmarks can report comparison counts next
// to wall-clock time.

#ifndef OVC_COMMON_COUNTERS_H_
#define OVC_COMMON_COUNTERS_H_

#include <cstdint>
#include <string>

namespace ovc {

/// The one list of QueryCounters fields, as X(field, label, help) entries.
/// Every per-field rendering expands it: the struct members below, Merge,
/// Delta, ==, ToString, the wire encoding (server/wire.cc, in this order),
/// the profile JSON (key `field`), the `query.<field>` metrics and their
/// help texts (sql/session.cc), and ovcsql's `.counters` (`label`). A new
/// counter is one line here.
#define OVC_QUERY_COUNTERS(X)                                                \
  /* Individual column-value comparisons (the expensive kind the paper    \
     bounds by N x K). */                                                    \
  X(column_comparisons, "column comparisons",                                \
    "Column value comparisons across all statements")                        \
  /* Integer comparisons of whole offset-value codes (the cheap kind;     \
     "practically free" when folded into validity tests). */                 \
  X(code_comparisons, "code comparisons",                                    \
    "Offset-value code comparisons across all statements")                   \
  /* Full row comparisons requested (each may cost several column         \
     comparisons). */                                                        \
  X(row_comparisons, "row comparisons",                                      \
    "Row comparisons across all statements")                                 \
  /* Hash computations over key columns (hash-based baselines). */           \
  X(hash_computations, "hash computations",                                  \
    "Key hash computations across all statements")                           \
  /* Rows written to temporary storage (spill volume, Figure 6            \
     discussion). */                                                         \
  X(rows_spilled, "rows spilled", "Rows written to temporary storage")       \
  /* Bytes written to temporary storage. */                                  \
  X(bytes_spilled, "bytes spilled", "Bytes written to temporary storage")    \
  /* Rows that bypassed merge logic because their code marked them as     \
     duplicates of the previous winner (Section 5). */                       \
  X(merge_bypass_rows, "merge bypass rows",                                  \
    "Rows that bypassed merge logic as coded duplicates")                    \
  /* Grace hash joins whose build side overflowed its memory budget and   \
     degraded to the sort+merge continuation mid-query. */                   \
  X(hash_join_fallbacks, "hash join fallbacks",                              \
    "Grace hash joins degraded to sort+merge mid-query")                     \
  /* Hash aggregations whose group table overflowed and degraded to       \
     in-sort aggregation mid-query. */                                       \
  X(hash_agg_fallbacks, "hash agg fallbacks",                                \
    "Hash aggregations degraded to in-sort mid-query")                       \
  /* Transient temp-file I/O failures recovered by retry-with-backoff. */    \
  X(io_retries, "io retries",                                                \
    "Transient temp-file I/O failures recovered by retry")

/// Work counters threaded through comparators, operators, and storage.
/// Not thread-safe; each execution thread owns its own instance and parallel
/// operators (exchange) aggregate at the end.
struct QueryCounters {
#define OVC_COUNTER_MEMBER(field, label, help) uint64_t field = 0;
  OVC_QUERY_COUNTERS(OVC_COUNTER_MEMBER)
#undef OVC_COUNTER_MEMBER

  /// Adds all counts from `other` into this instance.
  void Merge(const QueryCounters& other) {
#define OVC_COUNTER_ADD(field, label, help) field += other.field;
    OVC_QUERY_COUNTERS(OVC_COUNTER_ADD)
#undef OVC_COUNTER_ADD
  }

  /// Resets all counts to zero.
  void Reset() { *this = QueryCounters(); }

  /// Per-field difference `after - before`. Counters are monotone within a
  /// session, so snapshotting before a run and diffing after yields that
  /// run's exact resource slice (QueryResult::counters_delta).
  static QueryCounters Delta(const QueryCounters& before,
                             const QueryCounters& after) {
    QueryCounters d;
#define OVC_COUNTER_SUB(field, label, help) \
  d.field = after.field - before.field;
    OVC_QUERY_COUNTERS(OVC_COUNTER_SUB)
#undef OVC_COUNTER_SUB
    return d;
  }

  /// One-line human-readable summary (`field=value` pairs) for examples,
  /// benchmarks, and test diagnostics.
  std::string ToString() const {
    std::string out;
    const char* sep = "";
#define OVC_COUNTER_TEXT(field, label, help)                   \
  out += sep + std::string(#field "=") + std::to_string(field); \
  sep = " ";
    OVC_QUERY_COUNTERS(OVC_COUNTER_TEXT)
#undef OVC_COUNTER_TEXT
    return out;
  }

  friend bool operator==(const QueryCounters& a, const QueryCounters& b) {
#define OVC_COUNTER_EQ(field, label, help) a.field == b.field &&
    return OVC_QUERY_COUNTERS(OVC_COUNTER_EQ) true;
#undef OVC_COUNTER_EQ
  }
  friend bool operator!=(const QueryCounters& a, const QueryCounters& b) {
    return !(a == b);
  }
};

}  // namespace ovc

#endif  // OVC_COMMON_COUNTERS_H_
