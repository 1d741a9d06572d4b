// The benchmark's three workloads: their catalogs, prepared templates and
// seeded request sequences. Only these generated inputs reach the
// program; see README.md for why each workload exists.
#ifndef GSBENCH_WORKLOADS_H_
#define GSBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/session.h"
#include "relational/catalog.h"

namespace gsbench {

enum class WorkloadKind { kAnalyticWarm, kAdhocCold, kServeMixed };

bool ParseWorkload(const std::string& name, WorkloadKind* kind);
std::string WorkloadName(WorkloadKind kind);

class Workload {
 public:
  // Generates the catalog and the request sequence for `seed`.
  static std::unique_ptr<Workload> Generate(WorkloadKind kind, uint64_t seed);

  WorkloadKind kind() const { return kind_; }
  const gsopt::Catalog& catalog() const { return *catalog_; }
  // Prepared-statement templates ($n parameters), indexed by Request::stmt.
  const std::vector<std::string>& templates() const { return templates_; }
  // Request i of the seeded sequence (deterministic, random access).
  Request At(uint64_t i) const;

 private:
  Workload() = default;

  WorkloadKind kind_ = WorkloadKind::kAnalyticWarm;
  uint64_t seed_ = 0;
  std::unique_ptr<gsopt::Catalog> catalog_;
  std::vector<std::string> templates_;
  // analytic_warm: the values $1 takes.
  std::vector<int64_t> params_;
  // adhoc_cold: distinct shapes cycled in order; serve_mixed: QUERY pool.
  std::vector<std::string> shapes_;
};

// A Session with the shipped (default) options and the workload's
// prepared statements. `Serve` runs one request on the workload's own
// path: Session::Query, PreparedStatement::Execute or Session::Prepare.
class SessionRunner {
 public:
  explicit SessionRunner(const Workload& w);

  gsopt::StatusOr<gsopt::QueryResult> Serve(const Request& r);
  // Prepares every template (set-up); returns the first failure.
  gsopt::Status PrepareAll();
  gsopt::Session& session() { return session_; }

 private:
  const Workload& w_;
  gsopt::Session session_;
  std::vector<std::optional<gsopt::PreparedStatement>> stmts_;
};

// The reference result for request `r`: the bound tree as written, run by
// Execute with columnar batches, bloom filters and merge joins pinned off.
gsopt::StatusOr<Fingerprint> ReferenceFingerprint(const Workload& w,
                                                  const Request& r);

}  // namespace gsbench

#endif  // GSBENCH_WORKLOADS_H_
