// The ovcd serving layer: wire-protocol round trips (happy path, malformed
// frames, oversized frames, mid-frame disconnects), shared-plan-cache
// semantics (hit / miss / eviction / normalization / disabled), prepared
// statements over the wire, concurrent execution of one cached plan
// checked row-for-row against a serial oracle, and the single-owner
// regressions PR 10 fixed: per-session temp-file sub-managers (first-error
// isolation) and per-query admission slicing of the machine budgets.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/temp_file.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/plan_cache.h"
#include "server/server.h"
#include "server/wire.h"
#include "sql/gen_spec.h"
#include "sql/session.h"
#include "test_util.h"

namespace ovc::server {
namespace {

using ::ovc::testing::RowVec;
using ::ovc::testing::ToRowVec;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(sql::RegisterGeneratedFromSpec(
                    &catalog_, "t(a,b) rows=200 keys=1 distinct=40 seed=7")
                    .ok());
    ASSERT_TRUE(sql::RegisterGeneratedFromSpec(
                    &catalog_, "dim(a,p) rows=40 keys=1 distinct=40 seed=9")
                    .ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  void StartServer(ServerOptions options = ServerOptions()) {
    server_ = std::make_unique<Server>(&catalog_, options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  Client Connect() {
    Client client;
    const Status status = client.Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(status.ok()) << status.ToString();
    return client;
  }

  /// Serial oracle: the same statement through a direct SqlSession with
  /// the same per-query options every served session runs under.
  RowVec Oracle(const std::string& sql) {
    sql::SqlSession session(&catalog_, server_->session_options());
    sql::SqlResult<sql::QueryResult> result = session.Run(sql);
    EXPECT_TRUE(result.ok());
    if (!result.ok()) return {};
    return ToRowVec(result.value().result.rows);
  }

  sql::Catalog catalog_;
  std::unique_ptr<Server> server_;
};

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

TEST(WireCodec, PayloadRoundTrip) {
  // Every counter field gets a distinct value that uses both 32-bit halves.
  QueryCounters counters;
  uint64_t v = 0;
#define OVC_DISTINCT_COUNTER(field, label, help) \
  ++v;                                           \
  counters.field = v << 33 | v;
  OVC_QUERY_COUNTERS(OVC_DISTINCT_COUNTER)
#undef OVC_DISTINCT_COUNTER
  PayloadWriter writer;
  writer.PutU8(3);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(uint64_t{1} << 40);
  writer.PutString("hello");
  writer.PutString("");
  writer.PutCounters(counters);

  PayloadReader reader(writer.str());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s1, s2;
  QueryCounters decoded;
  ASSERT_TRUE(reader.GetU8(&u8));
  ASSERT_TRUE(reader.GetU32(&u32));
  ASSERT_TRUE(reader.GetU64(&u64));
  ASSERT_TRUE(reader.GetString(&s1));
  ASSERT_TRUE(reader.GetString(&s2));
  ASSERT_TRUE(reader.GetCounters(&decoded));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(u8, 3);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, uint64_t{1} << 40);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_TRUE(decoded == counters);

  // The counters' wire order is pinned field by field.
  PayloadWriter pinned;
  pinned.PutCounters(counters);
  PayloadReader raw(pinned.str());
  for (uint64_t expected :
       {counters.column_comparisons, counters.code_comparisons,
        counters.row_comparisons, counters.hash_computations,
        counters.rows_spilled, counters.bytes_spilled,
        counters.merge_bypass_rows, counters.hash_join_fallbacks,
        counters.hash_agg_fallbacks, counters.io_retries}) {
    uint64_t got = 0;
    ASSERT_TRUE(raw.GetU64(&got));
    EXPECT_EQ(got, expected);
  }
  EXPECT_TRUE(raw.AtEnd());
}

TEST(WireCodec, TruncatedPayloadPoisonsReader) {
  PayloadWriter writer;
  writer.PutU64(42);
  // Chop mid-value: every later getter must fail instead of reading junk.
  PayloadReader reader(std::string_view(writer.str()).substr(0, 5));
  uint64_t v = 0;
  EXPECT_FALSE(reader.GetU64(&v));
  EXPECT_FALSE(reader.ok());
  uint32_t w = 0;
  EXPECT_FALSE(reader.GetU32(&w));
  EXPECT_FALSE(reader.AtEnd());
}

TEST(WireCodec, StringLengthPastPayloadEndFails) {
  PayloadWriter writer;
  writer.PutU32(1000);  // claims 1000 bytes, provides none
  PayloadReader reader(writer.str());
  std::string s;
  EXPECT_FALSE(reader.GetString(&s));
  EXPECT_FALSE(reader.ok());
}

// ---------------------------------------------------------------------------
// SQL normalization (cache keys)
// ---------------------------------------------------------------------------

TEST(NormalizeSql, CollapsesSpellingDifferences) {
  std::string a, b;
  ASSERT_TRUE(NormalizeSql("SELECT a, b FROM t ORDER BY a", &a));
  ASSERT_TRUE(NormalizeSql("select  A ,\n B from T -- trailing\n order by a",
                           &b));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, "SELECT a , b FROM t ORDER BY a");
}

TEST(NormalizeSql, DistinctStatementsStayDistinct) {
  std::string a, b;
  ASSERT_TRUE(NormalizeSql("SELECT a FROM t", &a));
  ASSERT_TRUE(NormalizeSql("SELECT b FROM t", &b));
  EXPECT_NE(a, b);
}

TEST(NormalizeSql, RejectsUnlexableText) {
  std::string out;
  EXPECT_FALSE(NormalizeSql("SELECT $ FROM t", &out));
}

// ---------------------------------------------------------------------------
// Wire round trips against a live server
// ---------------------------------------------------------------------------

TEST_F(ServerTest, QueryRoundTripMatchesOracle) {
  StartServer();
  const std::string sql = "SELECT a, b FROM t ORDER BY a, b";
  const RowVec expected = Oracle(sql);
  ASSERT_FALSE(expected.empty());

  Client client = Connect();
  Client::Result result;
  ASSERT_TRUE(client.Query(sql, &result).ok());
  ASSERT_TRUE(result.ok) << result.error_message;
  EXPECT_EQ(result.columns, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(result.total_rows, expected.size());
  EXPECT_EQ(result.rows, expected);
}

TEST_F(ServerTest, ExplainTravelsAsText) {
  StartServer();
  Client client = Connect();
  Client::Result result;
  ASSERT_TRUE(client.Query("EXPLAIN SELECT a FROM t ORDER BY a", &result).ok());
  ASSERT_TRUE(result.ok) << result.error_message;
  EXPECT_NE(result.explain_text.find("scan(t)"), std::string::npos)
      << result.explain_text;
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(ServerTest, SqlErrorKeepsConnectionUsable) {
  StartServer();
  Client client = Connect();
  Client::Result result;
  ASSERT_TRUE(client.Query("SELECT bogus FROM t", &result).ok());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error_message.find("bogus"), std::string::npos);
  EXPECT_EQ(result.error_line, 1u);
  EXPECT_GT(result.error_column, 0u);

  // The stream stayed in sync: the same connection still serves.
  ASSERT_TRUE(client.Query("SELECT a FROM t ORDER BY a", &result).ok());
  EXPECT_TRUE(result.ok);
}

TEST_F(ServerTest, UnknownFrameTypeGetsErrorThenClose) {
  StartServer();
  Client client = Connect();
  ASSERT_TRUE(client.SendFrame(static_cast<FrameType>(9), "junk").ok());
  Frame frame;
  ASSERT_TRUE(client.ReadOneFrame(&frame).ok());
  EXPECT_EQ(frame.type, FrameType::kError);
  // The server hangs up after a protocol violation.
  EXPECT_FALSE(client.ReadOneFrame(&frame).ok());
}

TEST_F(ServerTest, OversizedFrameGetsErrorThenClose) {
  StartServer();
  Client client = Connect();
  // Header claiming a payload over the 16 MiB ceiling; no payload needed,
  // the server must reject on the header alone.
  const uint32_t huge = kMaxFrameBytes + 1;
  char header[5];
  header[0] = static_cast<char>(huge & 0xff);
  header[1] = static_cast<char>((huge >> 8) & 0xff);
  header[2] = static_cast<char>((huge >> 16) & 0xff);
  header[3] = static_cast<char>((huge >> 24) & 0xff);
  header[4] = 1;  // QUERY
  ASSERT_TRUE(client.SendBytes(header, sizeof(header)).ok());
  Frame frame;
  ASSERT_TRUE(client.ReadOneFrame(&frame).ok());
  EXPECT_EQ(frame.type, FrameType::kError);
  PayloadReader reader(frame.payload);
  uint32_t line = 0, column = 0;
  std::string message;
  ASSERT_TRUE(reader.GetU32(&line) && reader.GetU32(&column) &&
              reader.GetString(&message));
  EXPECT_NE(message.find("frame"), std::string::npos) << message;
  EXPECT_FALSE(client.ReadOneFrame(&frame).ok());
}

TEST_F(ServerTest, MidFrameDisconnectLeavesServerServing) {
  StartServer();
  {
    Client dropper = Connect();
    // A header promising 100 bytes, then only 3, then gone.
    const char partial[8] = {100, 0, 0, 0, 1, 'S', 'E', 'L'};
    ASSERT_TRUE(dropper.SendBytes(partial, sizeof(partial)).ok());
    dropper.Disconnect();
  }
  // The dropped connection must not take the server (or any shared state)
  // with it.
  Client client = Connect();
  Client::Result result;
  ASSERT_TRUE(client.Query("SELECT a FROM t ORDER BY a", &result).ok());
  EXPECT_TRUE(result.ok);
}

TEST_F(ServerTest, MetricsSnapshotOverWire) {
  StartServer();
  Client client = Connect();
  std::string json;
  ASSERT_TRUE(client.Metrics(&json).ok());
  EXPECT_NE(json.find("\"server.connections\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

TEST_F(ServerTest, PlanCacheHitMissEviction) {
  ServerOptions options;
  options.plan_cache_capacity = 1;
  StartServer(options);
  PlanCache* cache = server_->plan_cache();
  Client client = Connect();
  Client::Result result;

  ASSERT_TRUE(client.Query("SELECT a FROM t ORDER BY a", &result).ok());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(cache->misses(), 1u);
  EXPECT_EQ(cache->hits(), 0u);

  // A different spelling of the same statement hits.
  ASSERT_TRUE(client.Query("select  A from T order by a", &result).ok());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(cache->misses(), 1u);
  EXPECT_EQ(cache->hits(), 1u);
  EXPECT_EQ(cache->size(), 1u);

  // A second statement evicts the first at capacity 1...
  ASSERT_TRUE(client.Query("SELECT b FROM t ORDER BY b", &result).ok());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(cache->misses(), 2u);
  EXPECT_EQ(cache->evictions(), 1u);
  EXPECT_EQ(cache->size(), 1u);

  // ...so the first statement misses again.
  ASSERT_TRUE(client.Query("SELECT a FROM t ORDER BY a", &result).ok());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(cache->misses(), 3u);
}

TEST_F(ServerTest, PlanCacheCapacityZeroDisablesCaching) {
  ServerOptions options;
  options.plan_cache_capacity = 0;
  StartServer(options);
  Client client = Connect();
  Client::Result result;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.Query("SELECT a FROM t ORDER BY a", &result).ok());
    ASSERT_TRUE(result.ok);
  }
  EXPECT_EQ(server_->plan_cache()->hits(), 0u);
  EXPECT_EQ(server_->plan_cache()->misses(), 2u);
  EXPECT_EQ(server_->plan_cache()->size(), 0u);
}

TEST_F(ServerTest, ExplainBypassesCache) {
  StartServer();
  Client client = Connect();
  Client::Result result;
  ASSERT_TRUE(client.Query("EXPLAIN SELECT a FROM t", &result).ok());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(server_->plan_cache()->size(), 0u);
  EXPECT_EQ(server_->plan_cache()->misses(), 0u);
}

TEST_F(ServerTest, CachedResultMatchesUncached) {
  const std::string sql =
      "SELECT t.a, COUNT(*) AS n FROM t INNER JOIN dim ON t.a = dim.a "
      "GROUP BY t.a ORDER BY t.a";
  ServerOptions cold;
  cold.plan_cache_capacity = 0;
  StartServer(cold);
  Client client = Connect();
  Client::Result uncached;
  ASSERT_TRUE(client.Query(sql, &uncached).ok());
  ASSERT_TRUE(uncached.ok);
  server_->Stop();

  StartServer();  // cache on
  Client warm_client = Connect();
  Client::Result first, second;
  ASSERT_TRUE(warm_client.Query(sql, &first).ok());
  ASSERT_TRUE(warm_client.Query(sql, &second).ok());
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_GE(server_->plan_cache()->hits(), 1u);
  EXPECT_EQ(first.rows, uncached.rows);
  EXPECT_EQ(second.rows, uncached.rows);
}

// ---------------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------------

TEST_F(ServerTest, PrepareExecuteCloseFlow) {
  StartServer();
  const std::string sql = "SELECT a, b FROM t ORDER BY a, b";
  const RowVec expected = Oracle(sql);

  Client first = Connect();
  Client::PreparedInfo info;
  ASSERT_TRUE(first.Prepare(sql, &info).ok());
  ASSERT_TRUE(info.ok) << info.error_message;
  EXPECT_FALSE(info.cache_hit);
  EXPECT_EQ(info.columns, (std::vector<std::string>{"a", "b"}));

  // Re-executable: same handle, same rows, twice.
  for (int run = 0; run < 2; ++run) {
    Client::Result result;
    ASSERT_TRUE(first.Execute(info.handle, &result).ok());
    ASSERT_TRUE(result.ok) << result.error_message;
    EXPECT_EQ(result.rows, expected);
  }

  // A second connection preparing the same text hits the shared cache.
  Client second = Connect();
  Client::PreparedInfo info2;
  ASSERT_TRUE(second.Prepare(sql, &info2).ok());
  ASSERT_TRUE(info2.ok);
  EXPECT_TRUE(info2.cache_hit);
  Client::Result result;
  ASSERT_TRUE(second.Execute(info2.handle, &result).ok());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.rows, expected);

  ASSERT_TRUE(first.CloseStatement(info.handle).ok());
  // Executing a closed (now unknown) handle errors but keeps the
  // connection alive.
  ASSERT_TRUE(first.Execute(info.handle, &result).ok());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error_message.find("unknown statement handle"),
            std::string::npos);
  ASSERT_TRUE(first.Query("SELECT a FROM t ORDER BY a", &result).ok());
  EXPECT_TRUE(result.ok);
}

TEST_F(ServerTest, PrepareReportsSqlErrors) {
  StartServer();
  Client client = Connect();
  Client::PreparedInfo info;
  ASSERT_TRUE(client.Prepare("SELECT nope FROM t", &info).ok());
  EXPECT_FALSE(info.ok);
  EXPECT_NE(info.error_message.find("nope"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrent execution of one cached plan
// ---------------------------------------------------------------------------

TEST_F(ServerTest, ConcurrentClientsShareOneCachedPlan) {
  ServerOptions options;
  options.max_queries = 8;
  StartServer(options);
  const std::string sql =
      "SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY a";
  const RowVec expected = Oracle(sql);
  ASSERT_FALSE(expected.empty());

  // Warm the cache so every concurrent execution instantiates the same
  // shared entry.
  {
    Client warmer = Connect();
    Client::Result result;
    ASSERT_TRUE(warmer.Query(sql, &result).ok());
    ASSERT_TRUE(result.ok);
  }

  constexpr int kClients = 4;
  constexpr int kIterations = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int j = 0; j < kIterations; ++j) {
        Client::Result result;
        if (!client.Query(sql, &result).ok() || !result.ok ||
            result.rows != expected) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->plan_cache()->hits(),
            static_cast<uint64_t>(kClients * kIterations));
  EXPECT_EQ(server_->plan_cache()->misses(), 1u);
}

// ---------------------------------------------------------------------------
// Shutdown behavior
// ---------------------------------------------------------------------------

TEST_F(ServerTest, StopDisconnectsIdleClients) {
  StartServer();
  Client client = Connect();
  server_->Stop();
  Client::Result result;
  // Either the send or the response read fails; it must not hang.
  const Status status = client.Query("SELECT a FROM t", &result);
  EXPECT_FALSE(status.ok() && result.ok);
}

// ---------------------------------------------------------------------------
// Single-owner regressions: temp-file sub-managers
// ---------------------------------------------------------------------------

TEST(TempSubManager, NestsDisjointScratchDirs) {
  TempFileManager root;
  TempFileManager sub1(&root);
  TempFileManager sub2(&root);
  EXPECT_NE(sub1.dir(), sub2.dir());
  EXPECT_EQ(sub1.dir().find(root.dir()), 0u)
      << sub1.dir() << " not under " << root.dir();
  EXPECT_EQ(sub2.dir().find(root.dir()), 0u);
  EXPECT_TRUE(std::filesystem::is_directory(sub1.dir()));
  // Paths from different sub-managers never collide even with identical
  // tags and ids.
  EXPECT_NE(sub1.NewPath("run"), sub2.NewPath("run"));
}

TEST(TempSubManager, FirstErrorSlotIsPerSubManager) {
  TempFileManager root;
  TempFileManager session_a(&root);
  TempFileManager session_b(&root);

  // Query A's spill failure lands in A's slot only: B's concurrent query
  // and the server's root manager stay clean (the pre-PR-10 process-wide
  // manager bled this across sessions).
  session_a.RecordError(Status::IoError("disk full under session a"));
  EXPECT_FALSE(session_a.first_error().ok());
  EXPECT_TRUE(session_b.first_error().ok());
  EXPECT_TRUE(root.first_error().ok());

  // B's per-run ClearError must not wipe A's pending error either.
  session_b.ClearError();
  EXPECT_FALSE(session_a.first_error().ok());
  EXPECT_EQ(session_a.first_error().message(), "disk full under session a");
}

TEST(TempSubManager, DestructionRemovesOnlyOwnTree) {
  TempFileManager root;
  std::string sub_dir;
  {
    TempFileManager sub(&root);
    sub_dir = sub.dir();
    ASSERT_TRUE(std::filesystem::is_directory(sub_dir));
  }
  EXPECT_FALSE(std::filesystem::exists(sub_dir));
  EXPECT_TRUE(std::filesystem::is_directory(root.dir()));
}

// ---------------------------------------------------------------------------
// Single-owner regressions: admission slicing
// ---------------------------------------------------------------------------

TEST(AdmissionSlice, DividesMachineBudgetsAcrossSlots) {
  plan::PlanExecutor::Options machine;
  machine.planner.parallelism = 16;  // overwritten by the per-query value
  machine.planner.hash_memory_rows = uint64_t{1} << 20;
  machine.planner.sort_config.memory_rows = uint64_t{1} << 20;

  const plan::PlanExecutor::Options sliced =
      AdmissionController::Slice(machine, /*slots=*/4, /*workers_per_query=*/2);
  EXPECT_EQ(sliced.planner.parallelism, 2u);
  EXPECT_EQ(sliced.planner.hash_memory_rows, uint64_t{1} << 18);
  EXPECT_EQ(sliced.planner.sort_config.memory_rows, uint64_t{1} << 18);
}

TEST(AdmissionSlice, FloorsDegenerateBudgets) {
  plan::PlanExecutor::Options machine;
  machine.planner.hash_memory_rows = 100;
  machine.planner.sort_config.memory_rows = 100;
  const plan::PlanExecutor::Options sliced =
      AdmissionController::Slice(machine, /*slots=*/1000,
                                 /*workers_per_query=*/0);
  EXPECT_EQ(sliced.planner.parallelism, 1u);
  EXPECT_EQ(sliced.planner.hash_memory_rows,
            AdmissionController::kMinHashMemoryRows);
  EXPECT_EQ(sliced.planner.sort_config.memory_rows,
            AdmissionController::kMinSortMemoryRows);
}

TEST(Admission, GateBlocksAtCapacityAndReleases) {
  AdmissionController gate(2);
  ASSERT_TRUE(gate.Acquire());
  ASSERT_TRUE(gate.Acquire());
  EXPECT_EQ(gate.active(), 2u);

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    if (gate.Acquire()) {
      admitted.store(true);
      gate.Release();
    }
  });
  // The third acquire must block while both slots are held.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  EXPECT_EQ(gate.active(), 2u);

  gate.Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  gate.Release();
  EXPECT_EQ(gate.active(), 0u);
  EXPECT_EQ(gate.high_water(), 2u);
}

TEST(Admission, ShutdownUnblocksWaiters) {
  AdmissionController gate(1);
  ASSERT_TRUE(gate.Acquire());
  std::thread waiter([&] { EXPECT_FALSE(gate.Acquire()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Shutdown();
  waiter.join();
  EXPECT_FALSE(gate.Acquire());
  gate.Release();
}

}  // namespace
}  // namespace ovc::server
