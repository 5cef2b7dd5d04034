#include "common/temp_file.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace ovc {

namespace fs = std::filesystem;

namespace {

/// Bounded retry for transient temp-file I/O: spills race other processes
/// for file descriptors and can be interrupted, so EINTR/EAGAIN (and
/// injected failpoint failures, which model exactly those) get a few
/// exponentially backed-off attempts before the error is reported.
constexpr int kMaxIoRetries = 3;

void BackoffBeforeRetry(int attempt) {
  // The span makes retry stalls visible in traces: a pipeline that looks
  // idle is often sitting in exactly this backoff.
  OVC_TRACE_SPAN("tempfile.retry");
  OVC_METRIC_COUNTER("tempfile.retries",
                     "Transient temp-file I/O failures retried with backoff")
      .Increment();
  std::this_thread::sleep_for(std::chrono::microseconds(100) * (1 << attempt));
}

bool TransientErrno(int err) { return err == EINTR || err == EAGAIN; }

// Record I/O skips stdio's per-call stream lock. Every FileReader and
// FileWriter is used by one thread at a time -- the operator that owns the
// run -- so the lock only costs time on the per-row path. The *_unlocked
// calls are glibc's; elsewhere the locked calls do the same job.
size_t FwriteUnlocked(const void* data, size_t len, FILE* f) {
#if defined(__GLIBC__)
  return fwrite_unlocked(data, 1, len, f);
#else
  return std::fwrite(data, 1, len, f);
#endif
}

size_t FreadUnlocked(void* data, size_t len, FILE* f) {
#if defined(__GLIBC__)
  return fread_unlocked(data, 1, len, f);
#else
  return std::fread(data, 1, len, f);
#endif
}

}  // namespace

TempFileManager::TempFileManager(const std::string& base_dir) {
  fs::path base =
      base_dir.empty() ? fs::temp_directory_path() : fs::path(base_dir);
  // std::filesystem has no mkdtemp equivalent; pid + per-process counter is
  // unique enough for a scratch directory.
  static std::atomic<uint64_t> instance_counter{0};
  uint64_t id = instance_counter.fetch_add(1);
  fs::path dir = base / ("ovc-scratch-" + std::to_string(::getpid()) + "-" +
                         std::to_string(id));
  std::error_code ec;
  fs::create_directories(dir, ec);
  OVC_CHECK(!ec);
  dir_ = dir.string();
}

TempFileManager::TempFileManager(TempFileManager* parent) {
  OVC_CHECK(parent != nullptr);
  // Sub-directory ids come off the parent's path counter: NewPath ids and
  // sub-manager ids share the sequence, which keeps both unique within the
  // parent without a second counter.
  fs::path dir = fs::path(parent->dir()) /
                 ("sub-" + std::to_string(parent->next_id_.fetch_add(
                               1, std::memory_order_relaxed)));
  std::error_code ec;
  fs::create_directories(dir, ec);
  OVC_CHECK(!ec);
  dir_ = dir.string();
}

TempFileManager::~TempFileManager() {
  std::error_code ec;
  fs::remove_all(dir_, ec);
  // Best effort; nothing to do on failure in a destructor.
}

std::string TempFileManager::NewPath(const std::string& tag) {
  return dir_ + "/" + tag + "-" +
         std::to_string(next_id_.fetch_add(1, std::memory_order_relaxed));
}

void TempFileManager::RecordError(const Status& status) {
  if (status.ok()) return;
  MutexLock lock(error_mu_);
  if (first_error_.ok()) first_error_ = status;
}

Status TempFileManager::first_error() const {
  MutexLock lock(error_mu_);
  return first_error_;
}

void TempFileManager::ClearError() {
  MutexLock lock(error_mu_);
  first_error_ = Status::Ok();
}

FileWriter::~FileWriter() {
  if (file_ != nullptr) {
    std::fclose(static_cast<FILE*>(file_));
  }
}

Status FileWriter::Open(const std::string& path) {
  OVC_CHECK(file_ == nullptr);
  for (int attempt = 0;; ++attempt) {
    bool injected = OVC_FAILPOINT("tempfile.open");
    FILE* f = injected ? nullptr : std::fopen(path.c_str(), "wb");
    if (f != nullptr) {
      file_ = f;
      path_ = path;
      bytes_written_ = 0;
      OVC_METRIC_COUNTER("tempfile.files",
                         "Temporary files opened for writing")
          .Increment();
      return Status::Ok();
    }
    const bool transient = injected || TransientErrno(errno);
    if (!transient || attempt >= kMaxIoRetries) {
      return Status::IoError("open for write failed: " + path + ": " +
                             (injected ? "injected failure"
                                       : std::strerror(errno)));
    }
    ++retries_;
    BackoffBeforeRetry(attempt);
  }
}

Status FileWriter::Write(const void* data, size_t len) {
  OVC_DCHECK(file_ != nullptr);
  for (int attempt = 0;; ++attempt) {
    bool injected = OVC_FAILPOINT("tempfile.write");
    const size_t wrote =
        injected ? 0 : FwriteUnlocked(data, len, static_cast<FILE*>(file_));
    if (!injected && wrote == len) {
      bytes_written_ += len;
      return Status::Ok();
    }
    // Retry only when nothing reached the stream -- re-writing after a
    // partial fwrite would duplicate bytes in the run file.
    const bool transient = injected || (wrote == 0 && TransientErrno(errno));
    if (!transient || attempt >= kMaxIoRetries) {
      return Status::IoError("write failed: " + path_ +
                             (injected ? ": injected failure" : ""));
    }
    if (!injected) std::clearerr(static_cast<FILE*>(file_));
    ++retries_;
    BackoffBeforeRetry(attempt);
  }
}

Status FileWriter::Close() {
  if (file_ == nullptr) {
    return Status::Ok();
  }
  int rc = std::fclose(static_cast<FILE*>(file_));
  file_ = nullptr;
  if (rc != 0) {
    return Status::IoError("close failed: " + path_);
  }
  return Status::Ok();
}

FileReader::~FileReader() {
  if (file_ != nullptr) {
    std::fclose(static_cast<FILE*>(file_));
  }
}

Status FileReader::Open(const std::string& path) {
  OVC_CHECK(file_ == nullptr);
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("open for read failed: " + path + ": " +
                           std::strerror(errno));
  }
  file_ = f;
  path_ = path;
  return Status::Ok();
}

Status FileReader::Read(void* data, size_t len) {
  bool eof = false;
  OVC_RETURN_IF_ERROR(ReadOrEof(data, len, &eof));
  if (eof) return Status::IoError("short read: " + path_);
  return Status::Ok();
}

Status FileReader::ReadOrEof(void* data, size_t len, bool* eof) {
  OVC_DCHECK(file_ != nullptr);
  FILE* f = static_cast<FILE*>(file_);
  const size_t got = FreadUnlocked(data, len, f);
  *eof = got == 0 && len > 0 && std::feof(f) != 0;
  if (got != len && !*eof) {
    return Status::IoError("short read: " + path_);
  }
  return Status::Ok();
}

Status FileReader::Close() {
  if (file_ == nullptr) {
    return Status::Ok();
  }
  int rc = std::fclose(static_cast<FILE*>(file_));
  file_ = nullptr;
  if (rc != 0) {
    return Status::IoError("close failed: " + path_);
  }
  return Status::Ok();
}

}  // namespace ovc
