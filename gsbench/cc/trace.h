// The traced run: replays a deterministic sample of a workload stage by
// stage through the program's public functions, recording spans from the
// benchmark's own code (no instrumentation inside the program).
//
// The replay mirrors what the Session does for each request: SQL front
// end (sql::ParseAndBind, ParameterizeQuery, statement-text memo), plan
// acquisition (a PlanCache replica keyed exactly like the Session's), the
// optimizer pipeline of QueryOptimizer::Optimize (simplify, normalize,
// BuildQueryGraph, Enumerator with a timed cost_fn, ApplyWrappers, plan
// costing, ApplyOrderAwarePass), then SubstituteParams and Execute with
// per-operator stats.
#ifndef GSBENCH_TRACE_H_
#define GSBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/optimizer.h"
#include "core/plan_cache.h"
#include "workloads.h"

namespace gsbench {

// In-memory span recorder. Spans of one request share its id; a span's
// parent is the span open when it began (-1 at top level).
//
// The span buffer is mapped directly instead of taken from malloc. glibc
// raises its mmap and trim thresholds when a large malloc'd block is
// freed, so a tracer buffer freed between repeats would change how the
// program's own relation-sized allocations are served, and what they cost
// in page faults, in every repeat after it.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t child_ns;  // summed duration of the span's children
    int32_t parent;
    int32_t request;
  };

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void BeginRequest(int32_t id) { request_ = id; }
  int32_t Open(const char* name) {
    if (size_ == kCapacity) Overflow();
    spans_[size_] = Span{name, Now(), 0, 0, current_, request_};
    current_ = static_cast<int32_t>(size_++);
    return current_;
  }
  void Close(int32_t id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = Now();
    if (s.parent >= 0) {
      spans_[static_cast<size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
    }
    current_ = s.parent;
  }
  const Span* begin() const { return spans_; }
  const Span* end() const { return spans_ + size_; }

  // Scoped span.
  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t), id_(t->Open(name)) {}
    ~Scope() { t_->Close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int32_t id_;
  };

 private:
  // Address space only: pages are touched as spans are recorded. An
  // adhoc_cold sample records about 250K spans.
  static constexpr size_t kCapacity = size_t{1} << 24;

  [[noreturn]] static void Overflow();
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                base_)
        .count();
  }

  Clock::time_point base_;
  Span* spans_ = nullptr;
  size_t size_ = 0;
  int32_t current_ = -1;
  int32_t request_ = -1;
};

// Exact counts gathered by one replay of the sample. They must repeat for
// a seed; the traced run compares them across its repeats.
struct ReplayCounts {
  uint64_t subplans = 0;
  uint64_t dp_cells = 0;
  uint64_t dp_pruned = 0;
  uint64_t cost_calls = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t template_reuses = 0;  // prepared executions (no cache lookup)
  uint64_t rows_examined = 0;
  uint64_t rows_returned = 0;
  uint64_t build_rows = 0;
  uint64_t probe_rows = 0;
  uint64_t bloom_checks = 0;
  uint64_t bloom_rejects = 0;
  uint64_t operators = 0;
  uint64_t columnar_operators = 0;
  uint64_t merge_joins = 0;

  bool operator==(const ReplayCounts& o) const;
  std::string ToString() const;
};

// Stage-by-stage replayer bound to one workload; fresh state (empty plan
// cache and memo, no optimizer yet) per instance, like a new Session.
class StagedReplayer {
 public:
  StagedReplayer(const Workload& w, Tracer* tracer);

  // Replays request `r` (request id `id` in the trace). Fills `rows` for
  // executing requests and `plan_cost` with the template's cost.
  gsopt::Status Replay(int32_t id, const Request& r, gsopt::Relation* rows,
                       double* plan_cost);

  const ReplayCounts& counts() const { return counts_; }
  // Self time per operator family (scan, selection, join, ...), ns.
  const std::map<std::string, int64_t>& op_self_ns() const { return op_ns_; }

 private:
  struct Template {
    gsopt::ParameterizedQuery pq;
    std::shared_ptr<const gsopt::CachedPlan> plan;
  };

  // Statement-text memo, else parse, bind, parameterize and memoize.
  gsopt::StatusOr<gsopt::ParameterizedQuery> FrontEnd(const std::string& sql);
  gsopt::StatusOr<std::shared_ptr<const gsopt::CachedPlan>> Acquire(
      const gsopt::ParameterizedQuery& pq, bool* hit);
  gsopt::StatusOr<gsopt::PlanInfo> Optimize(const gsopt::NodePtr& query);
  gsopt::StatusOr<std::vector<gsopt::PlanInfo>> EnumeratePlans(
      const gsopt::NodePtr& query);
  gsopt::Status ExecutePlan(const gsopt::CachedPlan& plan,
                            const std::vector<gsopt::Value>& values,
                            gsopt::Relation* rows);
  void Publish(const std::shared_ptr<const gsopt::CachedPlan>& plan);
  double PlanCost(const gsopt::NodePtr& n);

  const Workload& w_;
  Tracer* tracer_;
  gsopt::SessionOptions options_;
  std::unique_ptr<gsopt::QueryOptimizer> optimizer_;
  gsopt::PlanCache cache_;
  std::unordered_map<std::string, gsopt::ParameterizedQuery> memo_;
  std::vector<Template> stmts_;
  ReplayCounts counts_;
  std::map<std::string, int64_t> op_ns_;
};

// Per-layer self time, in ns, summed over the spans of `tracer` (children
// subtracted). Also the total of top-level spans per request id.
struct LayerTimes {
  std::map<std::string, int64_t> self_ns;
  std::map<std::string, int64_t> total_ns;
  std::vector<int64_t> request_ns;  // indexed by request id
};
LayerTimes AggregateSpans(const Tracer& tracer, size_t num_requests);

// Writes spans as CSV (name,start_ns,end_ns,parent,request).
bool WriteSpans(const Tracer& tracer, const std::string& path);

}  // namespace gsbench

#endif  // GSBENCH_TRACE_H_
