#include "server/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ovc::server {

namespace {

/// Frame header: u32 LE payload length + u8 type.
constexpr size_t kHeaderBytes = 5;

Status SendAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Reads exactly `len` bytes. `*clean_eof` is set when zero bytes arrive
/// before anything else was read (the peer hung up between frames).
Status RecvAll(int fd, char* data, size_t len, bool* clean_eof) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (clean_eof != nullptr && got == 0) {
        *clean_eof = true;
        return Status::Ok();
      }
      return Status::IoError("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

void PutU32At(char* out, uint32_t v) {
  out[0] = static_cast<char>(v & 0xff);
  out[1] = static_cast<char>((v >> 8) & 0xff);
  out[2] = static_cast<char>((v >> 16) & 0xff);
  out[3] = static_cast<char>((v >> 24) & 0xff);
}

uint32_t GetU32At(const char* in) {
  return static_cast<uint32_t>(static_cast<unsigned char>(in[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(in[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[3])) << 24;
}

}  // namespace

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  char header[kHeaderBytes];
  PutU32At(header, static_cast<uint32_t>(payload.size()));
  header[4] = static_cast<char>(type);
  // Header and payload go out in one buffer so small frames are one
  // segment on the wire instead of two.
  std::string buf;
  buf.reserve(kHeaderBytes + payload.size());
  buf.append(header, kHeaderBytes);
  buf.append(payload);
  return SendAll(fd, buf.data(), buf.size());
}

Status ReadFrame(int fd, Frame* out) {
  char header[kHeaderBytes];
  bool clean_eof = false;
  OVC_RETURN_IF_ERROR(RecvAll(fd, header, kHeaderBytes, &clean_eof));
  if (clean_eof) return Status::NotFound("end of stream");
  const uint32_t len = GetU32At(header);
  if (len > kMaxFrameBytes) {
    return Status::ResourceExhausted("frame payload of " + std::to_string(len) +
                                     " bytes exceeds the " +
                                     std::to_string(kMaxFrameBytes) +
                                     "-byte frame limit");
  }
  out->type = static_cast<FrameType>(static_cast<unsigned char>(header[4]));
  out->payload.resize(len);
  if (len > 0) {
    OVC_RETURN_IF_ERROR(RecvAll(fd, out->payload.data(), len, nullptr));
  }
  return Status::Ok();
}

void PayloadWriter::PutU32(uint32_t v) {
  char tmp[4];
  PutU32At(tmp, v);
  buf_.append(tmp, sizeof(tmp));
}

void PayloadWriter::PutU64(uint64_t v) {
  PutU32(static_cast<uint32_t>(v & 0xffffffffu));
  PutU32(static_cast<uint32_t>(v >> 32));
}

void PayloadWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void PayloadWriter::PutCounters(const QueryCounters& c) {
#define OVC_PUT_COUNTER(field, label, help) PutU64(c.field);
  OVC_QUERY_COUNTERS(OVC_PUT_COUNTER)
#undef OVC_PUT_COUNTER
}

bool PayloadReader::Take(void* out, size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool PayloadReader::GetU32(uint32_t* v) {
  char tmp[4];
  if (!Take(tmp, sizeof(tmp))) return false;
  *v = GetU32At(tmp);
  return true;
}

bool PayloadReader::GetU64(uint64_t* v) {
  uint32_t lo = 0;
  uint32_t hi = 0;
  if (!GetU32(&lo) || !GetU32(&hi)) return false;
  *v = static_cast<uint64_t>(hi) << 32 | lo;
  return true;
}

bool PayloadReader::GetU8(uint8_t* v) { return Take(v, 1); }

bool PayloadReader::GetString(std::string* s) {
  uint32_t len = 0;
  if (!GetU32(&len)) return false;
  if (data_.size() - pos_ < len) {
    ok_ = false;
    return false;
  }
  s->assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

bool PayloadReader::GetCounters(QueryCounters* c) {
#define OVC_GET_COUNTER(field, label, help) GetU64(&c->field) &&
  return OVC_QUERY_COUNTERS(OVC_GET_COUNTER) true;
#undef OVC_GET_COUNTER
}

}  // namespace ovc::server
