// gsbench: the gsopt benchmark.
//
//   gsbench --workload analytic_warm|adhoc_cold|serve_mixed --seed N
//           --seconds S --trace 0|1 [--git-rev REV] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// replays a deterministic sample stage by stage and reports the per-layer
// metrics. Both check every result against a reference and exit 1 on a
// mismatch. The last stdout line is the JSON result; README.md documents
// the workloads and metrics.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "serve.h"
#include "trace.h"
#include "workloads.h"

namespace gsbench {
namespace {

// The offered rate of serve_mixed, fixed once at about half the
// closed-loop capacity of its mix (see README.md, "Calibration").
constexpr double kServeRatePerS = 600.0;
// Server workers: the shipped ServerOptions apart from this count.
constexpr int kServerWorkers = 2;
// Set-ups per run; setup_s is their median. Only the first comes before
// the timed window: each later one frees the previous instance's
// relation-sized buffers, which raises glibc's mmap and trim thresholds
// and so changes the page faults of the requests measured after it.
constexpr int kSetupReps = 7;
// The closed loops report their timings at a reference host speed. A
// shared host's speed moves by a third within seconds; a host probe
// (HostProbeMs) runs every kProbeEvery between requests, and each
// request's latency is multiplied by kReferenceProbeMs over the probe
// time around it. The reference is close to the probe's median on the
// 4-CPU machine the bounds were set on, so figures there stay close to
// the measured ones. See README.md, "Host speed".
constexpr auto kProbeEvery = std::chrono::milliseconds(500);
constexpr double kReferenceProbeMs = 5.0;
// failed_frac is reported as max(failed / attempted, this floor) so that
// its relative bound is defined; the exact counts are in the result line.
constexpr double kFailedFloor = 1e-6;

struct Args {
  WorkloadKind workload = WorkloadKind::kAnalyticWarm;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_rev = "unknown";
  std::string out_dir = ".bench_build/gsbench/out";
  bool inject_mismatch = false;
  bool calibrate = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: gsbench --workload analytic_warm|adhoc_cold|"
               "serve_mixed --seed N --seconds S --trace 0|1\n"
               "               [--git-rev REV] [--out-dir DIR]\n"
               "               [--inject-mismatch] [--calibrate]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--workload") {
      if (!value(&v) || !ParseWorkload(v, &a->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!value(&v)) return false;
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      if (!value(&v)) return false;
      a->seconds = std::atof(v.c_str());
      if (!(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (!value(&v) || (v != "0" && v != "1")) return false;
      a->trace = v == "1";
    } else if (flag == "--git-rev") {
      if (!value(&a->git_rev)) return false;
    } else if (flag == "--out-dir") {
      if (!value(&a->out_dir)) return false;
    } else if (flag == "--inject-mismatch") {
      a->inject_mismatch = true;
    } else if (flag == "--calibrate") {
      a->calibrate = true;
    } else {
      return false;
    }
  }
  return have_workload;
}

void MakeDirs(const std::string& path) {
  for (size_t pos = path.find('/', 1);; pos = path.find('/', pos + 1)) {
    ::mkdir(path.substr(0, pos).c_str(), 0755);
    if (pos == std::string::npos) break;
  }
}

void WriteMetadata(const Args& a, double rate) {
  MakeDirs(a.out_dir);
  const std::string meta =
      MetadataJson(WorkloadName(a.workload), a.seed, rate, a.git_rev);
  std::printf("# meta %s\n", meta.c_str());
  std::ofstream(a.out_dir + "/" + WorkloadName(a.workload) + "_seed" +
                std::to_string(a.seed) + (a.trace ? "_trace" : "") +
                "_meta.json")
      << meta << "\n";
}

// Computes the reference of every key the checker saw. `requests` maps
// keys to a request that produced them.
gsopt::Status FillReferences(
    const Workload& w, const std::unordered_map<std::string, Request>& requests,
    ResultChecker* checker) {
  for (const std::string& key : checker->PendingKeys()) {
    auto it = requests.find(key);
    if (it == requests.end()) continue;
    GSOPT_ASSIGN_OR_RETURN(Fingerprint fp, ReferenceFingerprint(w, it->second));
    checker->SetReference(key, fp);
  }
  return gsopt::Status::OK();
}

// serve_mixed's reference is a direct Session: the same requests served
// in-process with the shipped options.
gsopt::Status FillSessionReferences(
    const Workload& w, const std::unordered_map<std::string, Request>& requests,
    ResultChecker* checker) {
  SessionRunner direct(w);
  GSOPT_RETURN_IF_ERROR(direct.PrepareAll());
  for (const std::string& key : checker->PendingKeys()) {
    auto it = requests.find(key);
    if (it == requests.end()) continue;
    GSOPT_ASSIGN_OR_RETURN(gsopt::QueryResult res, direct.Serve(it->second));
    checker->SetReference(key, FingerprintOf(res.rows));
  }
  return gsopt::Status::OK();
}

// Writes the timed requests' latencies in issue order, one per line: as
// measured and, for the closed loops, at the reference host speed.
void WriteLatencies(const Args& a, const std::vector<double>& latency_ms,
                    const std::vector<double>& scaled_ms = {}) {
  MakeDirs(a.out_dir);
  std::ofstream out(a.out_dir + "/" + WorkloadName(a.workload) + "_seed" +
                    std::to_string(a.seed) + "_latency_ms.txt");
  for (size_t i = 0; i < latency_ms.size(); ++i) {
    out << latency_ms[i];
    if (i < scaled_ms.size()) out << " " << scaled_ms[i];
    out << "\n";
  }
}

double Sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

// Latencies at the reference host speed: each segment's latencies times
// kReferenceProbeMs over the mean of the probes at its two ends.
std::vector<double> AtReferenceSpeed(const std::vector<double>& latency_ms,
                                     const std::vector<size_t>& segment_end,
                                     const std::vector<double>& probe_ms) {
  std::vector<double> out = latency_ms;
  size_t i = 0;
  for (size_t k = 0; k < segment_end.size(); ++k) {
    const double factor =
        kReferenceProbeMs / (0.5 * (probe_ms[k] + probe_ms[k + 1]));
    for (; i < segment_end[k]; ++i) out[i] *= factor;
  }
  return out;
}

int ReportFailure(const std::string& what, const gsopt::Status& s) {
  std::fprintf(stderr, "gsbench: %s: %s\n", what.c_str(), s.ToString().c_str());
  return 1;
}

// Requests run during set-up to warm caches and the allocator; the timed
// sequence starts after them. Two template cycles of analytic_warm, one
// feature window of adhoc_cold, and enough serve_mixed requests to reach
// every pool text.
uint64_t WarmupRequests(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kAnalyticWarm:
      return 12;
    case WorkloadKind::kAdhocCold:
      return 120;
    case WorkloadKind::kServeMixed:
      return 200;
  }
  return 0;
}

double FailedFrac(uint64_t failed, uint64_t attempted) {
  return std::max(static_cast<double>(failed) /
                      static_cast<double>(std::max<uint64_t>(attempted, 1)),
                  kFailedFloor);
}

void PrintLatencyNote(const std::string& name, const LatencySummary& s) {
  std::printf("# %s latency: n=%zu in %zu window(s), tail is p%.4g (10+ "
              "samples beyond)\n",
              name.c_str(), s.samples, s.windows, 100.0 * s.tail_percentile);
}

// --- closed loops: analytic_warm, adhoc_cold ---------------------------

struct ClosedInstance {
  std::unique_ptr<Workload> w;
  std::unique_ptr<SessionRunner> runner;
};

gsopt::StatusOr<ClosedInstance> SetUpClosed(const Args& a) {
  ClosedInstance inst;
  inst.w = Workload::Generate(a.workload, a.seed);
  inst.runner = std::make_unique<SessionRunner>(*inst.w);
  GSOPT_RETURN_IF_ERROR(inst.runner->PrepareAll());
  for (uint64_t i = 0; i < WarmupRequests(a.workload); ++i) {
    auto got = inst.runner->Serve(inst.w->At(i));
    if (!got.ok()) return got.status();
  }
  return inst;
}

// Times one set-up, between two host probes: `setup_s` gets the time at
// the reference host speed, `raw_s` the time as measured.
gsopt::StatusOr<ClosedInstance> SetUpClosedTimed(const Args& a,
                                                 std::vector<double>* setup_s,
                                                 std::vector<double>* raw_s) {
  const double before = HostProbeMs();
  const Clock::time_point t0 = Clock::now();
  auto got = SetUpClosed(a);
  const double s = Seconds(Clock::now() - t0);
  const double after = HostProbeMs();
  raw_s->push_back(s);
  setup_s->push_back(s * kReferenceProbeMs / (0.5 * (before + after)));
  return got;
}

int RunClosed(const Args& a) {
  std::vector<double> setup_s, raw_setup_s;
  auto got = SetUpClosedTimed(a, &setup_s, &raw_setup_s);
  if (!got.ok()) return ReportFailure("set-up", got.status());
  ClosedInstance inst = std::move(got).value();
  const Workload& w = *inst.w;

  ResultChecker checker;
  if (a.inject_mismatch) checker.CorruptFirst();
  std::unordered_map<std::string, Request> by_key;
  std::vector<double> latency_ms;
  uint64_t attempted = 0, errors = 0;
  // The run is cut into segments of kProbeEvery with a host probe at each
  // boundary; segment k lies between probes k and k + 1.
  std::vector<double> probe_ms = {HostProbeMs()};
  std::vector<size_t> segment_end;  // latency_ms's size at each boundary
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.seconds));
  Clock::time_point next_probe = Clock::now() + kProbeEvery;
  for (uint64_t i = WarmupRequests(a.workload); Clock::now() < deadline;
       ++i) {
    if (Clock::now() >= next_probe) {
      segment_end.push_back(latency_ms.size());
      probe_ms.push_back(HostProbeMs());
      next_probe = Clock::now() + kProbeEvery;
    }
    const Request r = w.At(i);
    const Clock::time_point t0 = Clock::now();
    auto got = inst.runner->Serve(r);
    const Clock::time_point t1 = Clock::now();
    ++attempted;
    if (!got.ok()) {
      if (errors++ < 3) ReportFailure("request " + r.Key(), got.status());
      continue;
    }
    latency_ms.push_back(Micros(t1 - t0) / 1000.0);
    const std::string key = r.Key();
    checker.Observe(key, FingerprintOf(got->rows));
    if (by_key.find(key) == by_key.end()) by_key.emplace(key, r);
  }
  segment_end.push_back(latency_ms.size());
  probe_ms.push_back(HostProbeMs());
  const double peak_rss = PeakRssMb();
  const gsopt::PlanCacheStats cache = inst.runner->session().cache_stats();
  // The other set-ups behind setup_s's median run after the timed window
  // (see kSetupReps).
  for (int rep = 1; rep < kSetupReps; ++rep) {
    auto more = SetUpClosedTimed(a, &setup_s, &raw_setup_s);
    if (!more.ok()) return ReportFailure("set-up", more.status());
  }
  gsopt::Status refs = FillReferences(w, by_key, &checker);
  if (!refs.ok()) return ReportFailure("reference", refs);
  const uint64_t mismatches = checker.Mismatches();
  const uint64_t failed = errors + mismatches;

  WriteMetadata(a, 0.0);
  const std::vector<double> scaled_ms =
      AtReferenceSpeed(latency_ms, segment_end, probe_ms);
  WriteLatencies(a, latency_ms, scaled_ms);
  const LatencySummary lat = SummarizeWindows(scaled_ms);
  const LatencySummary raw = SummarizeWindows(latency_ms);
  PrintLatencyNote(WorkloadName(a.workload), lat);
  std::printf("# as measured: setup %.6g s, qps %.6g, p50 %.6g ms, tail "
              "%.6g ms; host probe median %.4g ms over %zu probes "
              "(reference %.4g ms)\n",
              Median(raw_setup_s),
              static_cast<double>(latency_ms.size()) /
                  (Sum(latency_ms) / 1000.0),
              raw.p50, raw.tail, Median(probe_ms), probe_ms.size(),
              kReferenceProbeMs);
  std::printf("# plan cache: %s\n", cache.ToString().c_str());
  if (mismatches > 0) {
    std::fprintf(stderr, "gsbench: %llu result(s) differ from the reference\n",
                 static_cast<unsigned long long>(mismatches));
  }
  PrintResult(WorkloadName(a.workload), failed == 0, attempted, failed,
              {{"setup_s", Median(setup_s), "s"},
               {"qps",
                static_cast<double>(scaled_ms.size()) /
                    (Sum(scaled_ms) / 1000.0),
                "1/s"},
               {"latency_p50_ms", lat.p50, "ms"},
               {"latency_p99_ms", lat.tail, "ms"},
               {"failed_frac", FailedFrac(failed, attempted), "ratio"},
               {"peak_rss_mb", peak_rss, "MiB"}});
  return failed == 0 ? 0 : 1;
}

// --- serve_mixed --------------------------------------------------------

gsopt::server::ServerOptions ShippedServerOptions() {
  gsopt::server::ServerOptions o;
  o.num_workers = kServerWorkers;
  return o;
}

struct ServeInstance {
  std::unique_ptr<Workload> w;
  std::unique_ptr<gsopt::server::GsoptServer> server;
  LoopConnections conns;
};

// Catalog, server start, two tenants' connections with the templates
// prepared, and a warm-up. The warm-up is pipelined: one round trip at a
// time made set-up time mostly thread wake-ups, which follow host load.
gsopt::StatusOr<ServeInstance> SetUpServe(const Args& a) {
  ServeInstance inst;
  inst.w = Workload::Generate(a.workload, a.seed);
  inst.server = std::make_unique<gsopt::server::GsoptServer>(
      inst.w->catalog(), ShippedServerOptions());
  GSOPT_RETURN_IF_ERROR(inst.server->Start());
  for (const char* tenant : {"t0", "t1"}) {
    GSOPT_ASSIGN_OR_RETURN(
        std::unique_ptr<LoopConnection> c,
        LoopConnection::Open(inst.server->port(), tenant, *inst.w));
    inst.conns.push_back(std::move(c));
  }
  GSOPT_RETURN_IF_ERROR(
      Pipeline(&inst.conns, *inst.w, WarmupRequests(a.workload)));
  return inst;
}

gsopt::StatusOr<ServeInstance> SetUpServeTimed(const Args& a,
                                               std::vector<double>* setup_s) {
  const Clock::time_point t0 = Clock::now();
  auto got = SetUpServe(a);
  setup_s->push_back(Seconds(Clock::now() - t0));
  return got;
}

// Closed-loop capacity of the serve_mixed mix over both connections (each
// sends its next request when the previous reply arrives). Used once to
// choose kServeRatePerS; not part of a benchmark run.
int Calibrate(const Args& a) {
  std::vector<double> setup_s;
  auto inst = SetUpServeTimed(a, &setup_s);
  if (!inst.ok()) return ReportFailure("set-up", inst.status());
  std::vector<std::thread> threads;
  std::vector<uint64_t> done(inst->conns.size(), 0);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(a.seconds));
  const uint64_t first = WarmupRequests(a.workload);
  for (size_t c = 0; c < inst->conns.size(); ++c) {
    threads.emplace_back([&, c] {
      LoopConnection& conn = *inst->conns[c];
      for (uint64_t i = c; Clock::now() < end; i += inst->conns.size()) {
        if (!conn.Send(inst->w->At(first + i)).ok()) break;
        auto reply = conn.Next();
        if (!reply.ok()) break;
        if (reply->type == gsopt::server::FrameType::kRows) ++done[c];
      }
    });
  }
  for (auto& t : threads) t.join();
  const double s = Seconds(Clock::now() - t0);
  uint64_t total = 0;
  for (uint64_t d : done) total += d;
  std::printf("closed-loop capacity: %.1f requests/s over %zu connections\n",
              static_cast<double>(total) / s, inst->conns.size());
  inst->server->Stop();
  return 0;
}

int RunServe(const Args& a) {
  std::vector<double> setup_s;
  auto got = SetUpServeTimed(a, &setup_s);
  if (!got.ok()) return ReportFailure("set-up", got.status());
  ServeInstance inst = std::move(got).value();

  OpenLoopResult run =
      RunOpenLoop(&inst.conns, *inst.w, kServeRatePerS, a.seconds,
                  WarmupRequests(a.workload));
  const double peak_rss = PeakRssMb();
  const gsopt::server::ServerStats stats = inst.server->stats();
  inst.conns.clear();
  inst.server->Stop();
  // The other set-ups behind setup_s's median run after the timed window
  // (see kSetupReps).
  for (int rep = 1; rep < kSetupReps; ++rep) {
    auto more = SetUpServeTimed(a, &setup_s);
    if (!more.ok()) return ReportFailure("set-up", more.status());
    more->conns.clear();
    more->server->Stop();
  }

  ResultChecker checker;
  if (a.inject_mismatch) checker.CorruptFirst();
  std::unordered_map<std::string, Request> by_key;
  for (const auto& [index, fp] : run.results) {
    const Request r = inst.w->At(index);
    checker.Observe(r.Key(), fp);
    by_key.emplace(r.Key(), r);
  }
  gsopt::Status refs = FillSessionReferences(*inst.w, by_key, &checker);
  if (!refs.ok()) return ReportFailure("reference", refs);
  const uint64_t mismatches = checker.Mismatches();
  const uint64_t failed = run.failed + mismatches;

  WriteMetadata(a, kServeRatePerS);
  WriteLatencies(a, run.latency_ms);
  const LatencySummary lat = SummarizeWindows(run.latency_ms);
  const LatencySummary lag = Summarize(run.lag_ms);
  PrintLatencyNote("serve_mixed", lat);
  std::printf("# offered %.1f/s, sent %llu, generator lag p50 %.4f ms, "
              "tail %.4f ms\n# server: %s\n",
              kServeRatePerS, static_cast<unsigned long long>(run.sent),
              lag.p50, lag.tail, stats.ToString().c_str());
  if (mismatches > 0) {
    std::fprintf(stderr, "gsbench: %llu result(s) differ from the reference\n",
                 static_cast<unsigned long long>(mismatches));
  }
  PrintResult("serve_mixed", failed == 0, run.sent, failed,
              {{"setup_s", Median(setup_s), "s"},
               {"qps", static_cast<double>(run.completed) / run.window_s,
                "1/s"},
               {"latency_p50_ms", lat.p50, "ms"},
               {"latency_p99_ms", lat.tail, "ms"},
               {"failed_frac", FailedFrac(failed, run.sent), "ratio"},
               {"peak_rss_mb", peak_rss, "MiB"}});
  return failed == 0 ? 0 : 1;
}

// --- traced run ----------------------------------------------------------

// The deterministic sample: the workload's prepares, then its first
// requests.
std::vector<Request> Sample(const Workload& w) {
  std::vector<Request> s;
  for (size_t i = 0; i < w.templates().size(); ++i) {
    Request r;
    r.kind = Request::Kind::kPrepare;
    r.stmt = static_cast<int>(i);
    s.push_back(r);
  }
  uint64_t n = 0;
  switch (w.kind()) {
    case WorkloadKind::kAnalyticWarm:
      n = 120;  // 20 template cycles
      break;
    case WorkloadKind::kAdhocCold:
      n = 320;  // past the 256-entry plan cache, so evictions show
      break;
    case WorkloadKind::kServeMixed:
      n = 400;
      break;
  }
  for (uint64_t i = 0; i < n; ++i) s.push_back(w.At(i));
  return s;
}

// One repeat of the sample through a fresh Session (untraced) and a fresh
// stage-by-stage replayer (traced), interleaved request by request in
// alternating order, so that drifts in machine speed, and whichever side
// runs second with the request's data warm in cache, weigh on both sides
// equally. `flip` swaps the order of every pair; repeats alternate it, so
// each request runs first on each side equally often even where the
// workload's request kinds alternate too (analytic_warm's do). That
// matters most for page faults: under glibc's default thresholds, which
// side of a pair re-faults the relation-sized buffers the other freed
// depends on the order and the request, and with one fixed order per
// request one side of analytic_warm took twice the other's faults.
struct Repeat {
  std::map<std::string, double> us;  // per-layer metric -> us per request
  ReplayCounts counts;
  gsopt::PlanCacheStats session_cache;
  uint64_t session_reuses = 0;  // results the Session served from a cache
  double spans_ns = 0.0;        // top-level spans of the traced requests
  double untraced_ns = 0.0;
  double traced_ns = 0.0;
  std::vector<double> gaps_ms;  // closed-loop harness time between requests
  uint64_t errors = 0;
  uint64_t cost_mismatches = 0;
};

Repeat RunRepeat(const Workload& w, const std::vector<Request>& sample,
                 bool flip, ResultChecker* checker,
                 std::unordered_map<std::string, Request>* by_key,
                 Tracer* tracer) {
  Repeat rep;
  const size_t n = sample.size();
  SessionRunner runner(w);
  StagedReplayer replayer(w, tracer);
  for (size_t i = 0; i < n; ++i) {
    const Request& r = sample[i];
    double plan_cost = 0.0, replay_cost = 0.0;
    auto untraced = [&] {
      const Clock::time_point t0 = Clock::now();
      auto got = runner.Serve(r);
      const Clock::time_point t1 = Clock::now();
      rep.untraced_ns += Micros(t1 - t0) * 1000.0;
      if (!got.ok()) {
        ++rep.errors;
        return;
      }
      plan_cost = got->plan_cost;
      if (got->cache_hit) ++rep.session_reuses;
      if (r.kind != Request::Kind::kPrepare) {
        checker->Observe(r.Key(), FingerprintOf(got->rows));
        by_key->emplace(r.Key(), r);
      }
      rep.gaps_ms.push_back(Micros(Clock::now() - t1) / 1000.0);
    };
    auto traced = [&] {
      gsopt::Relation rows;
      const Clock::time_point t0 = Clock::now();
      gsopt::Status s =
          replayer.Replay(static_cast<int32_t>(i), r, &rows, &replay_cost);
      rep.traced_ns += Micros(Clock::now() - t0) * 1000.0;
      if (!s.ok()) {
        ++rep.errors;
        return;
      }
      if (r.kind != Request::Kind::kPrepare) {
        checker->Observe(r.Key(), FingerprintOf(rows));
      }
    };
    if ((i % 2 == 0) != flip) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    // The replay must choose a plan of the same cost as the Session.
    if (replay_cost != plan_cost) ++rep.cost_mismatches;
  }
  rep.session_cache = runner.session().cache_stats();
  rep.counts = replayer.counts();

  const LayerTimes lt = AggregateSpans(*tracer, n);
  const double per = 1.0 / (1000.0 * static_cast<double>(n));
  auto per_request = [per](const std::map<std::string, int64_t>& ns,
                           const std::string& key) {
    auto it = ns.find(key);
    return it == ns.end() ? 0.0 : static_cast<double>(it->second) * per;
  };
  auto self = [&](const char* span) { return per_request(lt.self_ns, span); };
  auto total = [&](const char* span) { return per_request(lt.total_ns, span); };
  rep.us["sql.parse_bind_us"] = self("sql.parse_bind");
  rep.us["core.text_memo_us"] = self("core.text_memo");
  rep.us["core.parameterize_us"] = self("core.parameterize");
  rep.us["core.cache_lookup_us"] =
      self("core.cache_lookup") + self("core.cache_insert");
  rep.us["core.optimize_us"] = total("core.optimize");
  rep.us["optimizer.stats_us"] = self("optimizer.stats");
  rep.us["algebra.simplify_us"] = self("algebra.simplify");
  rep.us["algebra.normalize_us"] = self("algebra.normalize");
  rep.us["algebra.wrappers_us"] = self("algebra.wrappers");
  rep.us["hypergraph.build_us"] = self("hypergraph.build");
  rep.us["enumerate.self_us"] = self("enumerate");
  rep.us["optimizer.cost_us"] = self("optimizer.cost");
  rep.us["optimizer.plan_cost_us"] = self("optimizer.plan_cost");
  rep.us["optimizer.order_pass_us"] = self("optimizer.order_pass");
  rep.us["core.substitute_us"] = self("core.substitute");
  rep.us["exec.execute_us"] = total("exec.execute");
  for (const char* op : {"scan", "selection", "project", "join", "outer_join",
                         "group_by", "sort"}) {
    rep.us[std::string("exec.") + op + "_self_us"] =
        per_request(replayer.op_self_ns(), op);
  }
  for (int64_t ns : lt.request_ns) rep.spans_ns += static_cast<double>(ns);
  return rep;
}

struct ServerLeg {
  double rtt_us = 0, session_us = 0, encode_us = 0, decode_us = 0;
  uint64_t sheds = 0, queue_high_water = 0;
  uint64_t attempted = 0, failed = 0;
};

// Each sampled request once through a Client round trip and once through
// a direct Session (alternating which goes first), plus EncodeRows and
// DecodeRows on the direct result. The remainder of the round trip is
// queueing, dispatch and socket time.
gsopt::StatusOr<ServerLeg> RunServerLeg(const Workload& w,
                                        const std::vector<Request>& sample) {
  ServerLeg leg;
  gsopt::server::GsoptServer server(w.catalog(), ShippedServerOptions());
  GSOPT_RETURN_IF_ERROR(server.Start());
  GSOPT_ASSIGN_OR_RETURN(Connection conn, Connect(server.port(), "t0", w));
  SessionRunner direct(w);
  GSOPT_RETURN_IF_ERROR(direct.PrepareAll());
  size_t n = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const Request& r = sample[i];
    if (r.kind == Request::Kind::kPrepare) continue;
    ++leg.attempted;
    gsopt::StatusOr<gsopt::server::WireResult> wire =
        gsopt::Status::Internal("unset");
    gsopt::StatusOr<gsopt::QueryResult> res = gsopt::Status::Internal("unset");
    auto client_call = [&] {
      const Clock::time_point t0 = Clock::now();
      wire = RoundTrip(&conn, r);
      leg.rtt_us += Micros(Clock::now() - t0);
    };
    auto session_call = [&] {
      const Clock::time_point t0 = Clock::now();
      res = direct.Serve(r);
      leg.session_us += Micros(Clock::now() - t0);
    };
    if (i % 2 == 0) {
      client_call();
      session_call();
    } else {
      session_call();
      client_call();
    }
    if (!wire.ok() || !res.ok()) {
      ++leg.failed;
      continue;
    }
    Clock::time_point t0 = Clock::now();
    const std::string payload =
        gsopt::server::EncodeRows(gsopt::server::WireResult{}, res->rows);
    leg.encode_us += Micros(Clock::now() - t0);
    gsopt::server::WireResult decoded;
    t0 = Clock::now();
    gsopt::Status s = gsopt::server::DecodeRows(payload, &decoded);
    leg.decode_us += Micros(Clock::now() - t0);
    if (!s.ok() || FingerprintOf(*wire) != FingerprintOf(res->rows)) {
      ++leg.failed;
    }
    ++n;
  }
  const gsopt::server::ServerStats stats = server.stats();
  server.Stop();
  const double per = 1.0 / static_cast<double>(std::max<size_t>(n, 1));
  leg.rtt_us *= per;
  leg.session_us *= per;
  leg.encode_us *= per;
  leg.decode_us *= per;
  leg.sheds = stats.sheds_total();
  leg.queue_high_water = stats.queue_high_water;
  return leg;
}

// Share of the traced run's wall clock given to the open-loop leg of
// serve_mixed (the rest replays the sample).
constexpr double kOpenLoopShare = 0.3;

int RunTraced(const Args& a) {
  const Clock::time_point begin = Clock::now();
  std::unique_ptr<Workload> w = Workload::Generate(a.workload, a.seed);
  const std::vector<Request> sample = Sample(*w);
  const bool serve = a.workload == WorkloadKind::kServeMixed;
  const double replay_seconds =
      a.seconds * (serve ? 1.0 - kOpenLoopShare : 1.0);

  ResultChecker checker;
  if (a.inject_mismatch) checker.CorruptFirst();
  std::unordered_map<std::string, Request> by_key;
  std::vector<Repeat> repeats;
  std::vector<double> gaps_ms;
  uint64_t attempted = 0, errors = 0, cost_mismatches = 0;
  bool counts_repeat = true;
  {
    // One untimed pass first, so that the first repeat's first pass does
    // not alone pay the process's first-touch costs.
    SessionRunner warm(*w);
    for (const Request& r : sample) (void)warm.Serve(r);
  }
  // Repeats come in pairs (see RunRepeat's `flip`). Another pair starts
  // only while it and the server leg, each about as long as a repeat,
  // still fit in the replay's share of --seconds.
  double repeat_s = 0.0;
  do {
    Tracer tracer;
    const Clock::time_point t0 = Clock::now();
    repeats.push_back(RunRepeat(*w, sample, repeats.size() % 2 == 1,
                                &checker, &by_key, &tracer));
    repeat_s = Seconds(Clock::now() - t0);
    const Repeat& rep = repeats.back();
    attempted += 2 * sample.size();
    errors += rep.errors;
    cost_mismatches += rep.cost_mismatches;
    gaps_ms.insert(gaps_ms.end(), rep.gaps_ms.begin(), rep.gaps_ms.end());
    if (repeats.size() == 1) {
      MakeDirs(a.out_dir);
      // One file per workload, overwritten by each traced run: a sample's
      // spans run to about 12 MB.
      WriteSpans(tracer,
                 a.out_dir + "/" + WorkloadName(a.workload) + "_spans.csv");
    } else if (!(rep.counts == repeats.front().counts)) {
      counts_repeat = false;
    }
  } while (repeats.size() % 2 == 1 ||
           (Seconds(Clock::now() - begin) + 3 * repeat_s < replay_seconds &&
            repeats.size() < 64));

  auto leg = RunServerLeg(*w, sample);
  if (!leg.ok()) return ReportFailure("server leg", leg.status());
  attempted += leg->attempted;
  uint64_t failed_other = leg->failed;

  double lag_p99_ms = Summarize(gaps_ms).tail;
  uint64_t sheds = leg->sheds, high_water = leg->queue_high_water;
  if (serve) {
    // The open loop itself, for the generator's lag and the admission
    // queue under the workload's offered rate.
    auto inst = SetUpServe(a);
    if (!inst.ok()) return ReportFailure("set-up", inst.status());
    OpenLoopResult run =
        RunOpenLoop(&inst->conns, *inst->w, kServeRatePerS,
                    a.seconds * kOpenLoopShare, WarmupRequests(a.workload));
    const gsopt::server::ServerStats stats = inst->server->stats();
    inst->conns.clear();
    inst->server->Stop();
    attempted += run.sent;
    failed_other += run.failed;
    for (const auto& [index, fp] : run.results) {
      const Request r = inst->w->At(index);
      checker.Observe(r.Key(), fp);
      by_key.emplace(r.Key(), r);
    }
    lag_p99_ms = Summarize(run.lag_ms).tail;
    sheds = stats.sheds_total();
    high_water = stats.queue_high_water;
  }

  gsopt::Status refs = serve ? FillSessionReferences(*w, by_key, &checker)
                             : FillReferences(*w, by_key, &checker);
  if (!refs.ok()) return ReportFailure("reference", refs);
  const uint64_t mismatches = checker.Mismatches();
  const ReplayCounts& c = repeats.front().counts;
  const gsopt::PlanCacheStats& sc = repeats.front().session_cache;
  const bool cache_agrees =
      sc.hits == c.cache_hits && sc.misses == c.cache_misses &&
      sc.evictions == c.cache_evictions &&
      repeats.front().session_reuses == c.cache_hits + c.template_reuses;
  const uint64_t failed = errors + failed_other + mismatches;
  const bool correct =
      failed == 0 && cost_mismatches == 0 && counts_repeat && cache_agrees;

  // Coverage and overhead over all repeats together.
  double spans_ns = 0.0, untraced_ns = 0.0, traced_ns = 0.0;
  std::map<std::string, std::vector<double>> us;
  for (const Repeat& rep : repeats) {
    spans_ns += rep.spans_ns;
    untraced_ns += rep.untraced_ns;
    traced_ns += rep.traced_ns;
    for (const auto& [name, v] : rep.us) us[name].push_back(v);
  }
  const double requests =
      static_cast<double>(repeats.size() * sample.size());

  WriteMetadata(a, serve ? kServeRatePerS : 0.0);
  std::printf("# traced repeats: %zu of %zu requests; counts: %s\n",
              repeats.size(), sample.size(), c.ToString().c_str());
  std::printf("# session plan cache: %s\n", sc.ToString().c_str());
  if (!counts_repeat) std::printf("# ERROR: counts differ across repeats\n");
  if (!cache_agrees) std::printf("# ERROR: replayed plan cache disagrees\n");
  if (cost_mismatches > 0) {
    std::printf("# ERROR: %llu replayed plan cost(s) differ from Optimize\n",
                static_cast<unsigned long long>(cost_mismatches));
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "gsbench: %llu result(s) differ from the reference\n",
                 static_cast<unsigned long long>(mismatches));
  }

  std::vector<Metric> m;
  for (const auto& [name, values] : us) {
    m.push_back({name, Median(values), "us"});
  }
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  // A plan acquisition is a plan-cache lookup or a prepared statement
  // re-executing its template; both of the latter and cache hits are
  // served without a plan search.
  const uint64_t acquisitions =
      c.cache_hits + c.cache_misses + c.template_reuses;
  m.push_back({"enumerate.subplans", static_cast<double>(c.subplans), "count"});
  m.push_back({"enumerate.dp_cells", static_cast<double>(c.dp_cells), "count"});
  m.push_back({"enumerate.dp_pruned_ratio", ratio(c.dp_pruned, c.subplans),
               "ratio"});
  m.push_back({"optimizer.cost_calls", static_cast<double>(c.cost_calls),
               "count"});
  m.push_back({"core.plan_cache_hit_ratio",
               ratio(c.cache_hits + c.template_reuses, acquisitions), "ratio"});
  m.push_back({"core.plan_acquisitions", static_cast<double>(acquisitions),
               "count"});
  m.push_back({"core.plan_cache_hits", static_cast<double>(c.cache_hits),
               "count"});
  m.push_back({"core.plan_cache_misses", static_cast<double>(c.cache_misses),
               "count"});
  m.push_back({"core.plan_cache_evictions",
               static_cast<double>(c.cache_evictions), "count"});
  m.push_back({"exec.rows_examined_per_row_returned",
               ratio(c.rows_examined, c.rows_returned), "ratio"});
  m.push_back({"exec.rows_returned", static_cast<double>(c.rows_returned),
               "count"});
  m.push_back({"exec.build_rows", static_cast<double>(c.build_rows), "count"});
  m.push_back({"exec.probe_rows", static_cast<double>(c.probe_rows), "count"});
  m.push_back({"exec.bloom_checks", static_cast<double>(c.bloom_checks),
               "count"});
  m.push_back({"exec.bloom_reject_ratio",
               ratio(c.bloom_rejects, c.bloom_checks), "ratio"});
  m.push_back({"exec.columnar_op_frac",
               ratio(c.columnar_operators, c.operators), "ratio"});
  m.push_back({"exec.merge_joins", static_cast<double>(c.merge_joins),
               "count"});
  m.push_back({"server.rtt_us", leg->rtt_us, "us"});
  m.push_back({"server.session_us", leg->session_us, "us"});
  m.push_back({"server.encode_rows_us", leg->encode_us, "us"});
  m.push_back({"server.decode_rows_us", leg->decode_us, "us"});
  m.push_back({"server.wait_us",
               leg->rtt_us - leg->session_us - leg->encode_us - leg->decode_us,
               "us"});
  m.push_back({"server.sheds", static_cast<double>(sheds), "count"});
  m.push_back({"server.queue_high_water", static_cast<double>(high_water),
               "count"});
  m.push_back({"loadgen.lag_p99_ms", lag_p99_ms, "ms"});
  m.push_back({"trace.coverage", spans_ns / untraced_ns, "ratio"});
  m.push_back({"trace.overhead_us",
               (traced_ns - untraced_ns) / (1000.0 * requests), "us"});
  m.push_back({"trace.sample_requests", static_cast<double>(sample.size()),
               "count"});
  PrintResult(WorkloadName(a.workload), correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gsbench

int main(int argc, char** argv) {
  gsbench::Args a;
  if (!gsbench::ParseArgs(argc, argv, &a)) return gsbench::Usage();
  if (a.calibrate) {
    if (a.workload != gsbench::WorkloadKind::kServeMixed) {
      return gsbench::Usage();
    }
    return gsbench::Calibrate(a);
  }
  if (a.trace) return gsbench::RunTraced(a);
  if (a.workload == gsbench::WorkloadKind::kServeMixed) {
    return gsbench::RunServe(a);
  }
  return gsbench::RunClosed(a);
}
