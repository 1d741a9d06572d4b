// Client side of serve_mixed: Client connections that prepare the
// workload's templates and make single round trips (the traced run's
// server leg), and the open-loop load generator with its own
// connections.
#ifndef GSBENCH_SERVE_H_
#define GSBENCH_SERVE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace gsbench {

// A connection with the workload's templates prepared on it (statement
// ids are per connection on the server).
struct Connection {
  gsopt::server::Client client;
  std::vector<uint64_t> stmt_ids;
};

gsopt::StatusOr<Connection> Connect(uint16_t port, const std::string& tenant,
                                    const Workload& w);

// Sends `r` and waits for its reply. Sheds and errors come back as Status.
gsopt::StatusOr<gsopt::server::WireResult> RoundTrip(Connection* c,
                                                     const Request& r);

// The open loop's connection: the wire protocol over a socket the
// benchmark owns, so that one thread can send on every connection and
// collect replies from all of them without blocking on any.
class LoopConnection {
 public:
  // Connects, says HELLO as `tenant` and prepares the workload's
  // templates (statement ids are per connection on the server).
  static gsopt::StatusOr<std::unique_ptr<LoopConnection>> Open(
      uint16_t port, const std::string& tenant, const Workload& w);
  ~LoopConnection();
  LoopConnection(const LoopConnection&) = delete;
  LoopConnection& operator=(const LoopConnection&) = delete;

  gsopt::Status Send(const Request& r);
  // Takes the next reply if it has fully arrived: 1 = `*f` holds it,
  // 0 = not yet, -1 = the connection is closed or broken.
  int TryNext(gsopt::server::Frame* f);
  int fd() const { return fd_; }
  // Waits up to `timeout` for the next reply.
  gsopt::StatusOr<gsopt::server::Frame> Next(
      std::chrono::milliseconds timeout = std::chrono::seconds(30));

 private:
  LoopConnection() = default;
  gsopt::Status SendFrame(gsopt::server::FrameType type,
                          const std::string& payload);

  int fd_ = -1;
  std::vector<uint64_t> stmt_ids_;
  std::string in_;  // received bytes not yet taken as a frame
};

using LoopConnections = std::vector<std::unique_ptr<LoopConnection>>;

// Sends requests 0..count-1 of `w` on the connections in turn, all before
// reading any reply, then reads every reply. Errors and sheds come back as
// Status.
gsopt::Status Pipeline(LoopConnections* conns, const Workload& w,
                       uint64_t count);

struct OpenLoopResult {
  uint64_t sent = 0;
  uint64_t completed = 0;  // replies with rows
  uint64_t failed = 0;     // shed, errored, or never answered
  std::vector<double> latency_ms;  // from each request's due time, in
                                   // due-time order
  std::vector<double> lag_ms;      // send time minus due time
  double window_s = 0.0;           // first due time to last reply
  // (request index, fingerprint) of every reply with rows.
  std::vector<std::pair<uint64_t, Fingerprint>> results;
};

// Open loop at a fixed `rate_per_s` for `seconds`: request first+k is due
// at start + k / rate and goes out on connection k % conns->size(),
// whatever the replies are doing. One thread does it all without
// sleeping: until the next request is due it takes every reply that has
// arrived on any connection (replies come in request order per
// connection) and stamps it. A blocked thread would add its own wake-up,
// which on a loaded host costs as much as the server's work, to every
// latency.
OpenLoopResult RunOpenLoop(LoopConnections* conns, const Workload& w,
                           double rate_per_s, double seconds, uint64_t first);

}  // namespace gsbench

#endif  // GSBENCH_SERVE_H_
