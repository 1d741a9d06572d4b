// Shared pieces of the gsopt benchmark: request model, result
// fingerprints, percentiles, run metadata and the result line.
#ifndef GSBENCH_COMMON_H_
#define GSBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "relational/value.h"
#include "server/protocol.h"

namespace gsbench {

using Clock = std::chrono::steady_clock;

inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// One request of a workload. kQuery sends `sql` as a one-shot statement;
// kExecute runs prepared template `stmt` with `params`; kPrepare prepares
// template `stmt` (set-up work that the traced sample also replays).
struct Request {
  enum class Kind { kPrepare, kExecute, kQuery };
  Kind kind = Kind::kQuery;
  int stmt = -1;
  std::vector<gsopt::Value> params;
  std::string sql;

  // Identifies the expected result: equal keys must give equal bags.
  std::string Key() const;
};

// Order-independent fingerprint of a result bag: columns are taken in
// qualified-name order and each row is hashed with a type-strict value
// encoding, then the row hashes are summed under two independent seeds.
// Two bags with equal fingerprints are equal up to a 2^-128 collision.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t h1 = 0;
  uint64_t h2 = 0;
  uint64_t columns = 0;
  bool operator==(const Fingerprint& o) const {
    return rows == o.rows && h1 == o.h1 && h2 == o.h2 && columns == o.columns;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
};

Fingerprint FingerprintOf(const gsopt::Relation& r);
Fingerprint FingerprintOf(const gsopt::server::WireResult& r);

// Checks every observed result against its key's reference. Observations
// are recorded during the run (cheap), references computed afterwards.
class ResultChecker {
 public:
  void Observe(const std::string& key, const Fingerprint& fp);
  // Keys whose reference has not been supplied yet.
  std::vector<std::string> PendingKeys() const;
  void SetReference(const std::string& key, const Fingerprint& fp);
  // Number of observations that differ from their reference (a key with
  // no reference counts every observation as failed).
  uint64_t Mismatches() const;
  // Test hook: perturbs the first observation so the gate must fire.
  void CorruptFirst() { corrupt_first_ = true; }

 private:
  struct Seen {
    std::vector<std::pair<Fingerprint, uint64_t>> distinct;  // fp, count
    bool has_reference = false;
    Fingerprint reference;
  };
  std::map<std::string, Seen> seen_;
  bool corrupt_first_ = false;
};

// Latency summary over a sample: the median and the highest percentile
// that has at least 10 samples beyond it (0.99 when the sample allows).
struct LatencySummary {
  size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
  size_t windows = 1;
};
LatencySummary Summarize(std::vector<double> values);

// Latencies in the order the requests were issued, summarized per window
// of kLatencyWindow consecutive requests (the last window takes the
// remainder); p50 and tail are the medians of the windows' figures. A
// stall that lasts part of a run then moves some windows' figures, not
// the run's. Fewer than two windows' worth is summarized as one sample.
constexpr size_t kLatencyWindow = 1000;
LatencySummary SummarizeWindows(const std::vector<double>& in_order);

double Median(std::vector<double> values);

// Times a fixed piece of work that stands in for the host's speed: it
// maps 4 MiB of fresh anonymous memory, fills it with a hash chain (page
// faults and integer work), reads it back in a scattered order (cache and
// memory latency) and unmaps it. It uses none of the program's code, so a
// change to the program cannot move it; only the machine can.
double HostProbeMs();

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// Run metadata every output records.
std::string MetadataJson(const std::string& workload, uint64_t seed,
                         double offered_rate, const std::string& git_rev);

// One metric of the final result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Prints each metric on its own line, then the one-line JSON result.
void PrintResult(const std::string& workload, bool correct,
                 uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace gsbench

#endif  // GSBENCH_COMMON_H_
