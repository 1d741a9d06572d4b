// gsopt_loadgen: open-loop load generator for gsopt_server, emitting a
// machine-readable BENCH_server.json (latency percentiles, achieved QPS,
// shed rate) next to its console summary -- the serving-layer counterpart
// of the GSOPT_BENCH_MAIN baselines (bench/report.h, EXPERIMENTS.md §N1).
//
// Open loop means send times are scheduled on a fixed cadence (the
// aggregate --qps spread across --connections), NOT gated on responses:
// if the server slows down, requests pile up in flight and latency --
// not offered load -- absorbs the pressure, which is what exposes
// admission-control behaviour. A sender that falls behind its schedule
// fires immediately until it catches up.
//
// Each connection runs a sender thread and a receiver thread; responses
// arrive in request order (protocol.h), so a per-connection FIFO of
// scheduled send times pairs every response with its request without
// tagging. Latency runs from the scheduled time, not the moment the send
// happened, so time a request spent waiting behind a late sender counts
// too (no coordinated omission).
//
// Traffic mix: --warm-ratio of requests EXECUTE a prepared statement with
// a varying parameter (the plan-cache-hit hot path: no parse, no plan
// search); the remainder are one-shot QUERY texts drawn from a pool of
// structurally distinct shapes (distinct fingerprints -- the first
// arrival of each shape is a genuine optimize, repeats exercise the
// statement-text memo + plan cache). Tenants t0..tN-1 are assigned to
// connections round-robin.
//
//   gsopt_loadgen --self-serve --qps=6000 --duration-sec=5   # CI smoke
//   gsopt_loadgen --port=7433 --connections=16 --qps=20000
//
// Exit codes: 0 ok (assertions passed); 1 assertion failed; 2 bad usage;
// 3 setup failure (connect/prepare).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "relational/datagen.h"
#include "server/client.h"
#include "server/server.h"

namespace {

using Clock = std::chrono::steady_clock;
using gsopt::Status;
using gsopt::Value;
using gsopt::server::Client;
using gsopt::server::Response;

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

int Usage() {
  std::cerr <<
      "usage: gsopt_loadgen [options]\n"
      "  --host=ADDR           server address (default 127.0.0.1)\n"
      "  --port=N              server port (required unless --self-serve)\n"
      "  --self-serve          run an in-process server on loopback\n"
      "  --connections=N       client connections (default 8)\n"
      "  --qps=N               aggregate offered load (default 6000)\n"
      "  --duration-sec=N      timed window (default 5)\n"
      "  --warm-ratio=P        fraction EXECUTE-prepared (default 0.9)\n"
      "  --tenants=N           distinct tenants, round-robin (default 2)\n"
      "  --out=FILE            JSON report (default BENCH_server.json)\n"
      "  --assert-min-qps=N    fail if achieved QPS below N\n"
      "  --assert-p99-ms=N     fail if p99 latency above N ms\n"
      "  --assert-no-errors    fail on any error/protocol error (sheds ok)\n"
      "  [self-serve shape] --workers=N --tables=N --rows=N --domain=N\n"
      "                     --max-queue=N --deadline-ms=N\n";
  return 2;
}

struct ConnStats {
  std::vector<double> latencies_ms;
  uint64_t sent = 0;
  uint64_t rows = 0;
  uint64_t sheds = 0;
  uint64_t errors = 0;
  uint64_t protocol_errors = 0;
  uint64_t cache_hits = 0;
  uint64_t degraded = 0;
  uint64_t send_failures = 0;
};

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted->size() - 1));
  return (*sorted)[idx];
}

// One connection's open-loop run: pace sends on the shared cadence,
// receive in order, pair latencies through the timestamp FIFO.
void RunConnection(const std::string& host, uint16_t port,
                   const std::string& tenant, int conn_index,
                   std::chrono::nanoseconds interval, Clock::time_point start,
                   Clock::time_point stop_at, double warm_ratio,
                   const std::vector<std::string>& cold_pool,
                   ConnStats* stats, std::atomic<bool>* setup_failed) {
  auto client = Client::Connect(host, port, tenant);
  if (!client.ok()) {
    std::cerr << "conn " << conn_index
              << ": connect failed: " << client.status().ToString() << "\n";
    setup_failed->store(true);
    return;
  }
  Client c = std::move(client).value();

  // The warm statement: a parameterized point lookup, EXECUTEd with a
  // varying value -- after the first round this is the pure cache-hit
  // serving path.
  auto stmt = c.Prepare("SELECT * FROM r1 WHERE r1.a = $1");
  if (!stmt.ok()) {
    std::cerr << "conn " << conn_index
              << ": prepare failed: " << stmt.status().ToString() << "\n";
    setup_failed->store(true);
    return;
  }
  uint64_t stmt_id = stmt.value();
  // Prime the template outside the timed window.
  (void)c.Execute(stmt_id, {Value::Int(0)});

  std::mutex fifo_mu;
  std::deque<Clock::time_point> fifo;
  std::atomic<uint64_t> sent{0};
  std::atomic<bool> sender_done{false};

  std::thread receiver([&] {
    uint64_t received = 0;
    while (true) {
      // Only block in a read when a response is actually outstanding
      // (received < sent): the socket is blocking, so a read with nothing
      // in flight would strand this thread forever.
      if (received >= sent.load(std::memory_order_acquire)) {
        if (sender_done.load(std::memory_order_acquire) &&
            received >= sent.load(std::memory_order_acquire)) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      auto resp = c.RecvResponse();
      Clock::time_point sent_at;
      {
        std::lock_guard<std::mutex> lock(fifo_mu);
        if (fifo.empty()) {
          // Response without a request: protocol desync; stop reading.
          if (resp.ok()) ++stats->protocol_errors;
          break;
        }
        sent_at = fifo.front();
        fifo.pop_front();
      }
      ++received;
      if (!resp.ok()) {
        // Read failure (EOF / timeout): the connection is gone; every
        // request still in the FIFO will never be answered.
        ++stats->protocol_errors;
        break;
      }
      double ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            sent_at)
                      .count();
      const Response& r = resp.value();
      if (r.is_error()) {
        if (r.shed()) {
          ++stats->sheds;
          stats->latencies_ms.push_back(ms);  // sheds answer fast; count them
        } else {
          ++stats->errors;
        }
      } else {
        ++stats->rows;
        stats->latencies_ms.push_back(ms);
        if (r.result.cache_hit) ++stats->cache_hits;
        if (r.result.degraded) ++stats->degraded;
      }
    }
  });

  // Deterministic warm/cold interleave: request i is cold when
  // i * (1 - warm_ratio) crosses an integer (no RNG needed, exact ratio).
  gsopt::Rng rng(static_cast<uint64_t>(conn_index) * 7919 + 1);
  double cold_accum = 0.0;
  const double cold_per_req = 1.0 - warm_ratio;
  Clock::time_point next = start;  // caller staggers per-connection starts
  uint64_t i = 0;
  while (true) {
    Clock::time_point now = Clock::now();
    if (now >= stop_at) break;
    if (next > now) {
      std::this_thread::sleep_until(std::min(next, stop_at));
      if (Clock::now() >= stop_at) break;
    }
    const Clock::time_point due = next;
    next += interval;

    bool cold = false;
    cold_accum += cold_per_req;
    if (cold_accum >= 1.0) {
      cold_accum -= 1.0;
      cold = true;
    }

    {
      std::lock_guard<std::mutex> lock(fifo_mu);
      fifo.push_back(due);
    }
    Status s = cold ? c.SendQuery(cold_pool[i % cold_pool.size()])
                    : c.SendExecute(
                          stmt_id,
                          {Value::Int(static_cast<int64_t>(rng.Next64() % 64))});
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(fifo_mu);
      fifo.pop_back();
      ++stats->send_failures;
      break;
    }
    sent.fetch_add(1, std::memory_order_release);
    ++i;
  }
  stats->sent = sent.load();
  sender_done.store(true, std::memory_order_release);
  receiver.join();
}

// Structurally distinct one-shot shapes (distinct plan-cache
// fingerprints): scans, two-way and three-way joins over varying tables
// and columns. Literal values are irrelevant to shape identity -- the
// session parameterizes them away.
std::vector<std::string> BuildColdPool(int tables) {
  std::vector<std::string> pool;
  const char* cols[] = {"a", "b", "c"};
  for (int t = 1; t <= tables; ++t) {
    for (const char* col : cols) {
      pool.push_back("SELECT * FROM r" + std::to_string(t) + " WHERE r" +
                     std::to_string(t) + "." + col + " = 3");
    }
  }
  for (int t = 1; t + 1 <= tables; ++t) {
    std::string a = "r" + std::to_string(t);
    std::string b = "r" + std::to_string(t + 1);
    pool.push_back("SELECT * FROM " + a + " JOIN " + b + " ON " + a + ".a = " +
                   b + ".a WHERE " + a + ".b = 1");
  }
  return pool;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = -1;
  bool self_serve = false;
  int connections = 8;
  double qps = 6000;
  int duration_sec = 5;
  double warm_ratio = 0.9;
  int tenants = 2;
  std::string out_path = "BENCH_server.json";
  double assert_min_qps = 0;
  double assert_p99_ms = 0;
  bool assert_no_errors = false;

  gsopt::server::ServerOptions sopt;
  int tables = 4;
  gsopt::RandomRelationOptions data;
  data.num_rows = 128;
  data.domain = 64;
  int deadline_ms = 0;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "host", &v)) {
      host = v;
    } else if (ParseFlag(argv[i], "port", &v)) {
      port = std::atoi(v.c_str());
    } else if (std::string(argv[i]) == "--self-serve") {
      self_serve = true;
    } else if (ParseFlag(argv[i], "connections", &v)) {
      connections = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "qps", &v)) {
      qps = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "duration-sec", &v)) {
      duration_sec = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "warm-ratio", &v)) {
      warm_ratio = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "tenants", &v)) {
      tenants = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "out", &v)) {
      out_path = v;
    } else if (ParseFlag(argv[i], "assert-min-qps", &v)) {
      assert_min_qps = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "assert-p99-ms", &v)) {
      assert_p99_ms = std::atof(v.c_str());
    } else if (std::string(argv[i]) == "--assert-no-errors") {
      assert_no_errors = true;
    } else if (ParseFlag(argv[i], "workers", &v)) {
      sopt.num_workers = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "tables", &v)) {
      tables = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "rows", &v)) {
      data.num_rows = std::atoll(v.c_str());
    } else if (ParseFlag(argv[i], "domain", &v)) {
      data.domain = std::atoll(v.c_str());
    } else if (ParseFlag(argv[i], "max-queue", &v)) {
      sopt.max_queue = static_cast<size_t>(std::atoll(v.c_str()));
    } else if (ParseFlag(argv[i], "deadline-ms", &v)) {
      deadline_ms = std::atoi(v.c_str());
    } else {
      std::cerr << "unknown flag: " << argv[i] << "\n";
      return Usage();
    }
  }
  if (connections < 1 || qps <= 0 || duration_sec < 1 || warm_ratio < 0 ||
      warm_ratio > 1 || tenants < 1) {
    return Usage();
  }
  if (!self_serve && port < 0) {
    std::cerr << "--port is required without --self-serve\n";
    return Usage();
  }

  // Optional in-process server (CI smoke: one binary, loopback, no port
  // coordination).
  gsopt::Catalog catalog;
  std::unique_ptr<gsopt::server::GsoptServer> server;
  if (self_serve) {
    gsopt::Rng rng(42);
    gsopt::AddRandomTables(tables, data, &rng, &catalog);
    if (deadline_ms > 0) {
      sopt.default_quota.deadline =
          std::chrono::microseconds(static_cast<int64_t>(deadline_ms) * 1000);
    }
    sopt.port = 0;
    server = std::make_unique<gsopt::server::GsoptServer>(catalog, sopt);
    gsopt::Status started = server->Start();
    if (!started.ok()) {
      std::cerr << "self-serve start failed: " << started.ToString() << "\n";
      return 3;
    }
    port = server->port();
  }

  std::vector<std::string> cold_pool = BuildColdPool(self_serve ? tables : 4);
  auto interval = std::chrono::nanoseconds(static_cast<int64_t>(
      1e9 * static_cast<double>(connections) / qps));

  std::vector<ConnStats> stats(static_cast<size_t>(connections));
  std::atomic<bool> setup_failed{false};
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  Clock::time_point stop_at = start + std::chrono::seconds(duration_sec);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  for (int i = 0; i < connections; ++i) {
    std::string tenant = "t" + std::to_string(i % tenants);
    // Stagger connection starts across one cadence interval so sends
    // don't arrive in lockstep bursts.
    Clock::time_point conn_start = start + (interval * i) / connections;
    threads.emplace_back(RunConnection, host, static_cast<uint16_t>(port),
                         tenant, i, interval, conn_start, stop_at, warm_ratio,
                         std::cref(cold_pool), &stats[static_cast<size_t>(i)],
                         &setup_failed);
  }
  for (auto& t : threads) t.join();
  if (setup_failed.load()) return 3;

  // Aggregate.
  ConnStats total;
  for (const ConnStats& s : stats) {
    total.sent += s.sent;
    total.rows += s.rows;
    total.sheds += s.sheds;
    total.errors += s.errors;
    total.protocol_errors += s.protocol_errors;
    total.cache_hits += s.cache_hits;
    total.degraded += s.degraded;
    total.send_failures += s.send_failures;
    total.latencies_ms.insert(total.latencies_ms.end(), s.latencies_ms.begin(),
                              s.latencies_ms.end());
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  double p50 = Percentile(&total.latencies_ms, 0.50);
  double p95 = Percentile(&total.latencies_ms, 0.95);
  double p99 = Percentile(&total.latencies_ms, 0.99);
  double lat_max =
      total.latencies_ms.empty() ? 0.0 : total.latencies_ms.back();
  double mean = 0.0;
  for (double ms : total.latencies_ms) mean += ms;
  if (!total.latencies_ms.empty()) {
    mean /= static_cast<double>(total.latencies_ms.size());
  }
  uint64_t answered = total.rows + total.sheds + total.errors;
  double achieved_qps =
      static_cast<double>(total.rows) / static_cast<double>(duration_sec);
  double shed_rate =
      answered > 0
          ? static_cast<double>(total.sheds) / static_cast<double>(answered)
          : 0.0;
  double hit_rate = total.rows > 0 ? static_cast<double>(total.cache_hits) /
                                         static_cast<double>(total.rows)
                                   : 0.0;

  std::printf(
      "sent=%llu rows=%llu shed=%llu errors=%llu proto_errors=%llu\n"
      "achieved_qps=%.0f (target %.0f)  cache_hit_rate=%.3f  degraded=%llu\n"
      "latency_ms p50=%.3f p95=%.3f p99=%.3f mean=%.3f max=%.3f\n",
      static_cast<unsigned long long>(total.sent),
      static_cast<unsigned long long>(total.rows),
      static_cast<unsigned long long>(total.sheds),
      static_cast<unsigned long long>(total.errors),
      static_cast<unsigned long long>(total.protocol_errors), achieved_qps,
      qps, hit_rate, static_cast<unsigned long long>(total.degraded), p50,
      p95, p99, mean, lat_max);

  std::string server_stats;
  if (server) {
    server->Stop();
    server_stats = server->stats().ToString();
    std::printf("server %s\n", server_stats.c_str());
  }

  {
    std::ofstream out(out_path);
    out << "{\n"
        << "  \"bench_name\": \"server\",\n"
        << "  \"config\": {\n"
        << "    \"connections\": " << connections << ",\n"
        << "    \"target_qps\": " << qps << ",\n"
        << "    \"duration_sec\": " << duration_sec << ",\n"
        << "    \"warm_ratio\": " << warm_ratio << ",\n"
        << "    \"tenants\": " << tenants << ",\n"
        << "    \"self_serve\": " << (self_serve ? "true" : "false") << "\n"
        << "  },\n"
        << "  \"results\": {\n"
        << "    \"requests_sent\": " << total.sent << ",\n"
        << "    \"responses_rows\": " << total.rows << ",\n"
        << "    \"responses_shed\": " << total.sheds << ",\n"
        << "    \"responses_error\": " << total.errors << ",\n"
        << "    \"protocol_errors\": " << total.protocol_errors << ",\n"
        << "    \"send_failures\": " << total.send_failures << ",\n"
        << "    \"achieved_qps\": " << achieved_qps << ",\n"
        << "    \"shed_rate\": " << shed_rate << ",\n"
        << "    \"cache_hit_rate\": " << hit_rate << ",\n"
        << "    \"degraded_served\": " << total.degraded << ",\n"
        << "    \"latency_ms\": {\n"
        << "      \"p50\": " << p50 << ",\n"
        << "      \"p95\": " << p95 << ",\n"
        << "      \"p99\": " << p99 << ",\n"
        << "      \"mean\": " << mean << ",\n"
        << "      \"max\": " << lat_max << "\n"
        << "    },\n"
        << "    \"server_stats\": \"" << JsonEscape(server_stats) << "\"\n"
        << "  }\n"
        << "}\n";
  }
  std::printf("wrote %s\n", out_path.c_str());

  int rc = 0;
  if (assert_min_qps > 0 && achieved_qps < assert_min_qps) {
    std::fprintf(stderr, "ASSERT FAILED: achieved_qps %.0f < %.0f\n",
                 achieved_qps, assert_min_qps);
    rc = 1;
  }
  if (assert_p99_ms > 0 && p99 > assert_p99_ms) {
    std::fprintf(stderr, "ASSERT FAILED: p99 %.3fms > %.3fms\n", p99,
                 assert_p99_ms);
    rc = 1;
  }
  if (assert_no_errors &&
      (total.errors > 0 || total.protocol_errors > 0 ||
       total.send_failures > 0)) {
    std::fprintf(stderr,
                 "ASSERT FAILED: errors=%llu proto=%llu send_failures=%llu\n",
                 static_cast<unsigned long long>(total.errors),
                 static_cast<unsigned long long>(total.protocol_errors),
                 static_cast<unsigned long long>(total.send_failures));
    rc = 1;
  }
  return rc;
}
