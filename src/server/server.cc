#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <utility>

#include "common/metrics.h"
#include "common/profile.h"
#include "common/trace.h"
#include "server/wire.h"
#include "sql/session.h"

namespace ovc::server {

namespace {

metrics::Counter& BytesSent() {
  return OVC_METRIC_COUNTER("server.bytes_sent",
                            "Frame bytes written to clients");
}

metrics::Counter& BytesReceived() {
  return OVC_METRIC_COUNTER("server.bytes_received",
                            "Frame bytes read from clients");
}

metrics::Counter& QueryErrors() {
  return OVC_METRIC_COUNTER("server.query_errors",
                            "Statements answered with an ERROR frame");
}

/// Frame-header bytes, for the bytes_sent/received accounting.
constexpr uint64_t kHeaderBytes = 5;

/// One connection's protocol loop: reads request frames off `fd` and
/// serves them through a private SqlSession over the server's shared
/// catalog, plan cache, and admission gate.
class ServerSession {
 public:
  ServerSession(Server* server, int fd)
      : server_(server),
        fd_(fd),
        session_(server->catalog(), server->session_options(),
                 server->temp_root()) {}

  void Serve() {
    for (;;) {
      Frame frame;
      const Status read = ReadFrame(fd_, &frame);
      if (read.code() == StatusCode::kNotFound) return;  // clean close
      if (read.code() == StatusCode::kResourceExhausted) {
        // Oversized frame: the stream offset is unrecoverable. Tell the
        // client why, then drop the connection.
        (void)SendErrorMessage(read.message());
        return;
      }
      if (!read.ok()) return;  // disconnect mid-frame / socket error
      BytesReceived().Add(kHeaderBytes + frame.payload.size());
      if (!HandleFrame(frame)) return;
    }
  }

 private:
  struct PreparedSlot {
    /// Keeps a cached entry alive (and its logical tree valid) while this
    /// statement handle references plans pointing into it. Null for
    /// uncacheable statements (EXPLAIN).
    std::shared_ptr<PlanCache::Entry> cache_entry;
    std::unique_ptr<sql::PreparedQuery> prepared;
  };

  /// Dispatches one request frame. False closes the connection.
  bool HandleFrame(const Frame& frame) {
    switch (frame.type) {
      case FrameType::kQuery:
        return HandleQuery(frame.payload);
      case FrameType::kPrepare:
        return HandlePrepare(frame.payload);
      case FrameType::kExecute:
        return HandleExecute(frame.payload);
      case FrameType::kClose:
        return HandleClose(frame.payload);
      case FrameType::kMetrics:
        return HandleMetrics();
      default:
        // Unknown request type: protocol violation, close after telling
        // the client (tests/server_test.cc, malformed-frame case).
        (void)SendErrorMessage(
            "unknown frame type " +
            std::to_string(static_cast<unsigned>(frame.type)));
        return false;
    }
  }

  bool HandleQuery(const std::string& sql) {
    OVC_TRACE_SPAN_VAR(query_span, "server.query");
    trace::ScopedQueryId query_scope(query_span.id());
    OVC_METRIC_COUNTER("server.queries",
                       "Statements received over QUERY or EXECUTE frames")
        .Increment();
    const uint64_t start_ticks = ProfileTicks();

    PlanCache::Lookup lookup =
        server_->plan_cache()->GetOrBind(sql, server_->catalog());
    if (lookup.has_error) {
      QueryErrors().Increment();
      return SendError(lookup.error);
    }

    AdmissionController::Grant grant(admission());
    if (!grant.ok()) {
      (void)SendErrorMessage("server is shutting down");
      return false;
    }

    std::unique_ptr<sql::PreparedQuery> prepared;
    if (lookup.entry != nullptr) {
      // Physical planning annotates the shared logical tree; serialize it
      // per entry. Execution below runs lock-free against other sessions.
      MutexLock plan_lock(lookup.entry->plan_mu);
      prepared = session_.Instantiate(&lookup.entry->bound);
    } else {
      sql::SqlResult<std::unique_ptr<sql::PreparedQuery>> result =
          session_.Prepare(sql);
      if (!result.ok()) {
        QueryErrors().Increment();
        return SendError(result.error());
      }
      prepared = std::move(result).value();
    }

    const bool sent = RunAndSend(prepared.get());
    RecordLatency(start_ticks);
    return sent;
  }

  bool HandlePrepare(const std::string& sql) {
    PlanCache::Lookup lookup =
        server_->plan_cache()->GetOrBind(sql, server_->catalog());
    if (lookup.has_error) {
      QueryErrors().Increment();
      return SendError(lookup.error);
    }
    PreparedSlot slot;
    if (lookup.entry != nullptr) {
      MutexLock plan_lock(lookup.entry->plan_mu);
      slot.prepared = session_.Instantiate(&lookup.entry->bound);
      slot.cache_entry = std::move(lookup.entry);
    } else {
      sql::SqlResult<std::unique_ptr<sql::PreparedQuery>> result =
          session_.Prepare(sql);
      if (!result.ok()) {
        QueryErrors().Increment();
        return SendError(result.error());
      }
      slot.prepared = std::move(result).value();
    }

    const uint64_t handle = next_handle_++;
    PayloadWriter reply;
    reply.PutU64(handle);
    reply.PutU8(lookup.hit ? 1 : 0);
    const std::vector<std::string>& columns = slot.prepared->columns;
    reply.PutU32(static_cast<uint32_t>(columns.size()));
    for (const std::string& column : columns) reply.PutString(column);
    statements_[handle] = std::move(slot);
    return SendFrame(FrameType::kPrepared, reply.str());
  }

  bool HandleExecute(const std::string& payload) {
    PayloadReader reader(payload);
    uint64_t handle = 0;
    if (!reader.GetU64(&handle) || !reader.AtEnd()) {
      (void)SendErrorMessage("malformed EXECUTE payload");
      return false;
    }
    auto it = statements_.find(handle);
    if (it == statements_.end()) {
      // Client bug, but the stream is still in sync: answer and carry on.
      return SendErrorMessage("unknown statement handle " +
                              std::to_string(handle));
    }
    OVC_TRACE_SPAN_VAR(query_span, "server.query");
    trace::ScopedQueryId query_scope(query_span.id());
    OVC_METRIC_COUNTER("server.queries",
                       "Statements received over QUERY or EXECUTE frames")
        .Increment();
    const uint64_t start_ticks = ProfileTicks();

    AdmissionController::Grant grant(admission());
    if (!grant.ok()) {
      (void)SendErrorMessage("server is shutting down");
      return false;
    }
    const bool sent = RunAndSend(it->second.prepared.get());
    RecordLatency(start_ticks);
    return sent;
  }

  bool HandleClose(const std::string& payload) {
    PayloadReader reader(payload);
    uint64_t handle = 0;
    if (!reader.GetU64(&handle) || !reader.AtEnd()) {
      (void)SendErrorMessage("malformed CLOSE payload");
      return false;
    }
    statements_.erase(handle);  // idempotent by design
    return SendFrame(FrameType::kClosed, "");
  }

  bool HandleMetrics() {
    PayloadWriter reply;
    reply.PutString(metrics::MetricRegistry::Instance().JsonSnapshot());
    return SendFrame(FrameType::kText, reply.str());
  }

  /// Executes a prepared statement and streams the result frames.
  bool RunAndSend(sql::PreparedQuery* prepared) {
    sql::QueryResult result = session_.Run(prepared);
    if (!result.result.status.ok()) {
      QueryErrors().Increment();
      sql::SqlError error;
      error.message =
          "execution failed: " + result.result.status.message();
      return SendError(error);
    }
    if (result.is_explain) {
      PayloadWriter text;
      text.PutString(result.explain_text);
      if (!SendFrame(FrameType::kText, text.str())) return false;
      PayloadWriter done;
      done.PutU64(0);
      done.PutCounters(result.counters_delta);
      return SendFrame(FrameType::kResultDone, done.str());
    }

    PayloadWriter header;
    header.PutU32(static_cast<uint32_t>(result.columns.size()));
    for (const std::string& column : result.columns) {
      header.PutString(column);
    }
    if (!SendFrame(FrameType::kResultHeader, header.str())) return false;

    const RowBuffer& rows = result.result.rows;
    const uint32_t width = rows.width();
    for (size_t begin = 0; begin < rows.size();
         begin += kRowsPerBatchFrame) {
      const uint32_t count = static_cast<uint32_t>(
          std::min<size_t>(kRowsPerBatchFrame, rows.size() - begin));
      PayloadWriter batch;
      batch.PutU32(count);
      batch.PutU32(width);
      for (uint32_t i = 0; i < count; ++i) {
        const uint64_t* row = rows.row(begin + i);
        for (uint32_t c = 0; c < width; ++c) batch.PutU64(row[c]);
      }
      if (!SendFrame(FrameType::kRowBatch, batch.str())) return false;
    }
    OVC_METRIC_COUNTER("server.rows_sent", "Result rows streamed to clients")
        .Add(rows.size());

    PayloadWriter done;
    done.PutU64(rows.size());
    done.PutCounters(result.counters_delta);
    return SendFrame(FrameType::kResultDone, done.str());
  }

  bool SendFrame(FrameType type, std::string_view payload) {
    const Status status = WriteFrame(fd_, type, payload);
    if (!status.ok()) return false;  // peer gone; drop the connection
    BytesSent().Add(kHeaderBytes + payload.size());
    return true;
  }

  bool SendError(const sql::SqlError& error) {
    PayloadWriter payload;
    payload.PutU32(error.line);
    payload.PutU32(error.column);
    payload.PutString(error.message);
    return SendFrame(FrameType::kError, payload.str());
  }

  bool SendErrorMessage(const std::string& message) {
    sql::SqlError error;
    error.message = message;
    return SendError(error);
  }

  void RecordLatency(uint64_t start_ticks) {
    OVC_METRIC_HISTOGRAM("server.query_latency_us",
                         "Served-statement latency, admission wait included")
        .Record(TicksToNs(ProfileTicks() - start_ticks) / 1000);
  }

  AdmissionController* admission() { return server_->admission(); }

  Server* server_;
  int fd_;
  sql::SqlSession session_;
  uint64_t next_handle_ = 1;
  std::map<uint64_t, PreparedSlot> statements_;
};

}  // namespace

std::string OptionsFingerprint(const plan::PlanExecutor::Options& options) {
  const plan::PlannerOptions& p = options.planner;
  std::string out;
  out += "cost=" + std::to_string(static_cast<int>(p.cost_policy));
  out += " sort_based=" + std::to_string(p.prefer_sort_based ? 1 : 0);
  out += " build_fits=" + std::to_string(p.assume_build_fits_memory ? 1 : 0);
  out += " hash_rows=" + std::to_string(p.hash_memory_rows);
  out += " fallback=" + std::to_string(static_cast<int>(p.fallback));
  out += " parallelism=" + std::to_string(p.parallelism);
  out += " sort_rows=" + std::to_string(p.sort_config.memory_rows);
  out += " fan_in=" + std::to_string(p.sort_config.fan_in);
  out += " ovc=" + std::to_string(p.sort_config.use_ovc ? 1 : 0);
  out += " profile=" + std::to_string(p.profile ? 1 : 0);
  return out;
}

Server::Server(const sql::Catalog* catalog, ServerOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      session_options_(AdmissionController::Slice(options_.executor,
                                                  options_.max_queries,
                                                  options_.workers_per_query)),
      temp_root_(options_.temp_dir),
      cache_(options_.plan_cache_capacity,
             OptionsFingerprint(session_options_)),
      admission_(options_.max_queries) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listen socket shut down (Stop) or unrecoverable
    }
    MutexLock lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    connections_.push_back(std::make_unique<Connection>());
    Connection* conn = connections_.back().get();
    conn->fd = fd;
    conn->thread = std::thread([this, conn] { ServeConnection(conn); });
  }
}

void Server::ServeConnection(Connection* conn) {
  OVC_TRACE_SPAN("server.connection");
  OVC_METRIC_COUNTER("server.connections", "Client connections accepted")
      .Increment();
  metrics::Gauge& active = OVC_METRIC_GAUGE(
      "server.active_connections", "Client connections currently open");
  active.Add(1);
  {
    ServerSession session(this, conn->fd);
    session.Serve();
  }
  {
    // Mark done before closing: Stop() only shutdown()s sockets of
    // connections not yet done, so the fd cannot be recycled under it.
    MutexLock lock(mu_);
    conn->done = true;
  }
  ::close(conn->fd);
  active.Sub(1);
}

void Server::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  admission_.Shutdown();
  if (started_) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    accept_thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // The accept loop is gone and stopping_ is set, so connections_ is
  // frozen now. Kick every still-serving socket, then join outside the
  // lock (serving threads take mu_ on their way out).
  std::vector<Connection*> conns;
  {
    MutexLock lock(mu_);
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (!conn->done) ::shutdown(conn->fd, SHUT_RDWR);
      conns.push_back(conn.get());
    }
  }
  for (Connection* conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

}  // namespace ovc::server
