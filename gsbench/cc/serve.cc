#include "serve.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>

namespace gsbench {

using gsopt::Status;
using gsopt::StatusOr;
using gsopt::server::Frame;
using gsopt::server::FrameType;
using gsopt::server::WireResult;

StatusOr<Connection> Connect(uint16_t port, const std::string& tenant,
                             const Workload& w) {
  Connection c;
  GSOPT_ASSIGN_OR_RETURN(
      c.client, gsopt::server::Client::Connect("127.0.0.1", port, tenant));
  for (const std::string& sql : w.templates()) {
    GSOPT_ASSIGN_OR_RETURN(uint64_t id, c.client.Prepare(sql));
    c.stmt_ids.push_back(id);
  }
  return c;
}

StatusOr<WireResult> RoundTrip(Connection* c, const Request& r) {
  if (r.kind == Request::Kind::kQuery) return c->client.Query(r.sql);
  return c->client.Execute(c->stmt_ids[static_cast<size_t>(r.stmt)],
                           r.params);
}

namespace {

// The Status an ERROR frame carries.
Status ErrorOf(const Frame& f) {
  gsopt::ErrorClass cls;
  std::string message;
  Status s = gsopt::server::DecodeError(f.payload, &cls, &message);
  return s.ok() ? gsopt::server::StatusFromWire(cls, message) : s;
}

}  // namespace

StatusOr<std::unique_ptr<LoopConnection>> LoopConnection::Open(
    uint16_t port, const std::string& tenant, const Workload& w) {
  std::unique_ptr<LoopConnection> c(new LoopConnection());
  c->fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (c->fd_ < 0) return Status::Unavailable("socket failed");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(c->fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Unavailable(std::string("connect: ") +
                               std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(c->fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  GSOPT_RETURN_IF_ERROR(c->SendFrame(
      FrameType::kHello,
      gsopt::server::EncodeHello(gsopt::server::kProtocolVersion, tenant)));
  GSOPT_ASSIGN_OR_RETURN(Frame hello, c->Next());
  if (hello.type == FrameType::kError) return ErrorOf(hello);
  if (hello.type != FrameType::kHelloOk) {
    return Status::Internal("handshake: unexpected frame type");
  }
  for (const std::string& sql : w.templates()) {
    GSOPT_RETURN_IF_ERROR(
        c->SendFrame(FrameType::kPrepare, gsopt::server::EncodeSql(sql)));
    GSOPT_ASSIGN_OR_RETURN(Frame f, c->Next());
    if (f.type == FrameType::kError) return ErrorOf(f);
    uint64_t id = 0;
    uint32_t num_params = 0;
    if (f.type != FrameType::kPrepared) {
      return Status::Internal("PREPARE answered with another frame type");
    }
    GSOPT_RETURN_IF_ERROR(
        gsopt::server::DecodePrepared(f.payload, &id, &num_params));
    c->stmt_ids_.push_back(id);
  }
  return c;
}

LoopConnection::~LoopConnection() {
  if (fd_ >= 0) ::close(fd_);
}

Status LoopConnection::SendFrame(FrameType type, const std::string& payload) {
  return gsopt::server::WriteFrame(fd_, type, payload);
}

Status LoopConnection::Send(const Request& r) {
  if (r.kind == Request::Kind::kQuery) {
    return SendFrame(FrameType::kQuery, gsopt::server::EncodeSql(r.sql));
  }
  return SendFrame(FrameType::kExecute,
                   gsopt::server::EncodeExecute(
                       stmt_ids_[static_cast<size_t>(r.stmt)], r.params));
}

int LoopConnection::TryNext(Frame* f) {
  int got = gsopt::server::ExtractFrame(&in_, f);
  if (got != 0) return got;
  char buf[64 * 1024];
  const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
  if (n > 0) {
    in_.append(buf, static_cast<size_t>(n));
    return gsopt::server::ExtractFrame(&in_, f);
  }
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return 0;
  }
  return -1;  // closed by the server, or a socket error
}

StatusOr<Frame> LoopConnection::Next(std::chrono::milliseconds timeout) {
  const Clock::time_point give_up = Clock::now() + timeout;
  Frame f;
  while (true) {
    const int got = TryNext(&f);
    if (got > 0) return f;
    if (got < 0) return Status::Unavailable("connection closed");
    if (Clock::now() > give_up) return Status::Unavailable("no reply");
    pollfd pfd{fd_, POLLIN, 0};
    ::poll(&pfd, 1, 100);
  }
}

Status Pipeline(LoopConnections* conns, const Workload& w, uint64_t count) {
  const size_t n = conns->size();
  for (uint64_t i = 0; i < count; ++i) {
    GSOPT_RETURN_IF_ERROR((*conns)[i % n]->Send(w.At(i)));
  }
  for (uint64_t i = 0; i < count; ++i) {
    GSOPT_ASSIGN_OR_RETURN(Frame f, (*conns)[i % n]->Next());
    if (f.type == FrameType::kError) return ErrorOf(f);
  }
  return Status::OK();
}

namespace {

struct Pending {
  uint64_t index = 0;
  Clock::time_point due;
};

// One connection's requests in flight and the replies taken from it.
struct Lane {
  std::deque<Pending> fifo;  // sent, not yet answered, in send order
  bool broken = false;       // closed: nothing more will be answered
  // (request index, latency in ms) of each ROWS reply, and its payload,
  // which is decoded after the loop.
  std::vector<std::pair<uint64_t, double>> replies;
  std::vector<std::string> payloads;
};

}  // namespace

OpenLoopResult RunOpenLoop(LoopConnections* conns, const Workload& w,
                           double rate_per_s, double seconds, uint64_t first) {
  const size_t n = conns->size();
  const auto interval = std::chrono::duration<double>(1.0 / rate_per_s);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto due_at = [&](uint64_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       interval * static_cast<double>(k));
  };
  // The schedule is fixed, so every vector is sized up front and none
  // grows inside the timed loop.
  uint64_t total = 0;
  while (due_at(total) < end) ++total;
  std::vector<Lane> lanes(n);
  for (Lane& lane : lanes) {
    lane.replies.reserve(total / n + 1);
    lane.payloads.reserve(total / n + 1);
  }

  OpenLoopResult out;
  out.lag_ms.reserve(total);
  Clock::time_point last = start;
  Frame f;
  std::vector<pollfd> pfds;
  for (const auto& c : *conns) pfds.push_back(pollfd{c->fd(), POLLIN, 0});
  // Takes every reply that has arrived; returns the requests still out.
  // One poll() covers every socket, and only those with bytes waiting are
  // read: a read takes the socket's lock, which the server's reply would
  // then wait for.
  auto collect = [&]() {
    ::poll(pfds.data(), pfds.size(), 0);
    size_t outstanding = 0;
    for (size_t i = 0; i < n; ++i) {
      Lane& lane = lanes[i];
      if (pfds[i].revents == 0) {
        outstanding += lane.fifo.size();
        continue;
      }
      while (!lane.broken && !lane.fifo.empty()) {
        const int got = (*conns)[i]->TryNext(&f);
        if (got == 0) break;
        if (got < 0) {
          // Every request queued on a closed connection, and every one
          // still to be sent on it, will never be answered.
          lane.broken = true;
          out.failed += lane.fifo.size();
          lane.fifo.clear();
          break;
        }
        const Clock::time_point now = Clock::now();
        const Pending p = lane.fifo.front();
        lane.fifo.pop_front();
        last = std::max(last, now);
        if (f.type != FrameType::kRows) {
          ++out.failed;
          continue;
        }
        lane.replies.emplace_back(
            p.index,
            std::chrono::duration<double, std::milli>(now - p.due).count());
        lane.payloads.push_back(std::move(f.payload));
      }
      outstanding += lane.fifo.size();
    }
    return outstanding;
  };

  for (uint64_t k = 0; k < total; ++k) {
    const Clock::time_point due = due_at(k);
    while (Clock::now() < due) collect();
    Lane& lane = lanes[k % n];
    ++out.sent;
    const Clock::time_point sent = Clock::now();
    out.lag_ms.push_back(
        std::chrono::duration<double, std::milli>(sent - due).count());
    if (lane.broken) {
      ++out.failed;
      continue;
    }
    lane.fifo.push_back(Pending{first + k, due});
    // A failed send leaves the entry queued: the broken socket fails a
    // later read, which accounts for it.
    (void)(*conns)[k % n]->Send(w.At(first + k));
  }
  // Replies still missing after a grace period count as failed.
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
  while (collect() > 0) {
    if (Clock::now() > give_up) {
      for (Lane& lane : lanes) out.failed += lane.fifo.size();
      break;
    }
  }

  std::vector<std::pair<uint64_t, double>> by_due;  // (request, latency)
  for (Lane& lane : lanes) {
    for (size_t j = 0; j < lane.replies.size(); ++j) {
      const auto [index, ms] = lane.replies[j];
      WireResult result;
      if (!gsopt::server::DecodeRows(lane.payloads[j], &result).ok()) {
        ++out.failed;
        continue;
      }
      ++out.completed;
      by_due.emplace_back(index, ms);
      out.results.emplace_back(index, FingerprintOf(result));
    }
  }
  std::sort(by_due.begin(), by_due.end());
  for (const auto& [index, ms] : by_due) out.latency_ms.push_back(ms);
  out.window_s = out.completed > 0 ? Seconds(last - start) : seconds;
  return out;
}

}  // namespace gsbench
