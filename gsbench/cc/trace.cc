#include "trace.h"

#include <sys/mman.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "algebra/execute.h"
#include "algebra/normalize.h"
#include "algebra/simplify.h"
#include "enumerate/enumerator.h"
#include "hypergraph/querygraph.h"
#include "optimizer/order.h"
#include "sql/binder.h"

namespace gsbench {

using gsopt::NodePtr;
using gsopt::OpKind;
using gsopt::PlanInfo;
using gsopt::Status;
using gsopt::StatusOr;

Tracer::Tracer() : base_(Clock::now()) {
  void* p = ::mmap(nullptr, kCapacity * sizeof(Span), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    std::fprintf(stderr, "gsbench: cannot map the span buffer\n");
    std::abort();
  }
  spans_ = static_cast<Span*>(p);
}

Tracer::~Tracer() { ::munmap(spans_, kCapacity * sizeof(Span)); }

void Tracer::Overflow() {
  std::fprintf(stderr, "gsbench: more than %zu spans in one repeat\n",
               kCapacity);
  std::abort();
}

bool ReplayCounts::operator==(const ReplayCounts& o) const {
  return subplans == o.subplans && dp_cells == o.dp_cells &&
         dp_pruned == o.dp_pruned && cost_calls == o.cost_calls &&
         cache_hits == o.cache_hits && cache_misses == o.cache_misses &&
         cache_evictions == o.cache_evictions &&
         template_reuses == o.template_reuses &&
         rows_examined == o.rows_examined &&
         rows_returned == o.rows_returned && build_rows == o.build_rows &&
         probe_rows == o.probe_rows && bloom_checks == o.bloom_checks &&
         bloom_rejects == o.bloom_rejects && operators == o.operators &&
         columnar_operators == o.columnar_operators &&
         merge_joins == o.merge_joins;
}

std::string ReplayCounts::ToString() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "subplans=%llu dp_cells=%llu dp_pruned=%llu cost_calls=%llu "
      "cache_hits=%llu cache_misses=%llu cache_evictions=%llu "
      "template_reuses=%llu "
      "rows_examined=%llu rows_returned=%llu build_rows=%llu "
      "probe_rows=%llu bloom_checks=%llu bloom_rejects=%llu operators=%llu "
      "columnar_operators=%llu merge_joins=%llu",
      (unsigned long long)subplans, (unsigned long long)dp_cells,
      (unsigned long long)dp_pruned, (unsigned long long)cost_calls,
      (unsigned long long)cache_hits, (unsigned long long)cache_misses,
      (unsigned long long)cache_evictions,
      (unsigned long long)template_reuses, (unsigned long long)rows_examined,
      (unsigned long long)rows_returned, (unsigned long long)build_rows,
      (unsigned long long)probe_rows, (unsigned long long)bloom_checks,
      (unsigned long long)bloom_rejects, (unsigned long long)operators,
      (unsigned long long)columnar_operators,
      (unsigned long long)merge_joins);
  return buf;
}

StagedReplayer::StagedReplayer(const Workload& w, Tracer* tracer)
    : w_(w),
      tracer_(tracer),
      cache_(options_.plan_cache_capacity, options_.plan_cache_shards) {
  stmts_.resize(w.templates().size());
}

namespace {

// Session::KeyCanonical: the cache key is the canonical tree plus the
// optimizer-options signature.
std::string KeyCanonical(const std::string& tree_canonical,
                         const gsopt::OptimizeOptions& o) {
  return tree_canonical + "|mode=" + std::to_string(static_cast<int>(o.mode)) +
         " prune=" + std::to_string(o.prune ? 1 : 0) +
         " simplify=" + std::to_string(o.simplify ? 1 : 0) +
         " max_plans=" + std::to_string(o.max_plans) +
         " ordered=" + std::to_string(o.assume_ordered_exec ? 1 : 0);
}

// Operator families of the per-kind exec metrics. GS (generalized
// selection) counts with selection, and merge joins with the other inner
// joins (exec.merge_joins counts them apart), so every family occurs in
// every workload's sample.
const char* OpFamily(const gsopt::exec::OperatorStats& s) {
  const std::string& op = s.op;
  if (op.rfind("scan", 0) == 0) return "scan";
  if (op == "SELECT" || op == "GS") return "selection";
  if (op == "PROJECT") return "project";
  if (op == "GP") return "group_by";
  if (op == "SORT") return "sort";
  if (op.rfind("LOJ", 0) == 0 || op.rfind("ROJ", 0) == 0 ||
      op.rfind("FOJ", 0) == 0 || op.rfind("MGOJ", 0) == 0) {
    return "outer_join";
  }
  return "join";
}

}  // namespace

double StagedReplayer::PlanCost(const NodePtr& n) {
  Tracer::Scope s(tracer_, "optimizer.plan_cost");
  return optimizer_->cost_model().Cost(n);
}

StatusOr<gsopt::ParameterizedQuery> StagedReplayer::FrontEnd(
    const std::string& sql) {
  {
    Tracer::Scope s(tracer_, "core.text_memo");
    auto it = memo_.find(sql);
    if (it != memo_.end()) return it->second;
  }
  StatusOr<NodePtr> tree = [&] {
    Tracer::Scope s(tracer_, "sql.parse_bind");
    return gsopt::sql::ParseAndBind(sql, w_.catalog());
  }();
  if (!tree.ok()) return tree.status();
  gsopt::ParameterizedQuery pq = [&] {
    Tracer::Scope s(tracer_, "core.parameterize");
    return gsopt::ParameterizeQuery(*tree);
  }();
  {
    Tracer::Scope s(tracer_, "core.text_memo");
    if (memo_.size() >= options_.text_cache_capacity) memo_.clear();
    memo_[sql] = pq;
  }
  return pq;
}

StatusOr<std::shared_ptr<const gsopt::CachedPlan>> StagedReplayer::Acquire(
    const gsopt::ParameterizedQuery& pq, bool* hit) {
  if (optimizer_ == nullptr) {
    // The Session builds its optimizer (collecting catalog statistics) on
    // the first plan acquisition.
    Tracer::Scope s(tracer_, "optimizer.stats");
    optimizer_ = std::make_unique<gsopt::QueryOptimizer>(w_.catalog());
  }
  std::string key;
  {
    Tracer::Scope s(tracer_, "core.cache_lookup");
    key = KeyCanonical(pq.canonical, options_.optimize);
    if (auto cached = cache_.Lookup(gsopt::Fnv1a64(key), key, 1)) {
      *hit = true;
      ++counts_.cache_hits;
      return cached;
    }
  }
  *hit = false;
  ++counts_.cache_misses;
  GSOPT_ASSIGN_OR_RETURN(PlanInfo best, Optimize(pq.tree));
  auto plan = std::make_shared<gsopt::CachedPlan>();
  plan->plan = best.expr;
  plan->cost = best.cost;
  plan->num_explicit = pq.num_explicit;
  plan->total_slots = pq.total_slots;
  plan->canonical = key;
  return std::shared_ptr<const gsopt::CachedPlan>(std::move(plan));
}

void StagedReplayer::Publish(
    const std::shared_ptr<const gsopt::CachedPlan>& plan) {
  Tracer::Scope s(tracer_, "core.cache_insert");
  counts_.cache_evictions +=
      cache_.Insert(gsopt::Fnv1a64(plan->canonical), 1, plan);
}

// QueryOptimizer::Optimize for the Session's default options (generalized
// rung, pruned DP, no budget, so the fallback ladder never descends).
StatusOr<PlanInfo> StagedReplayer::Optimize(const NodePtr& query) {
  Tracer::Scope s(tracer_, "core.optimize");
  {
    Tracer::Scope simplify(tracer_, "algebra.simplify");
    (void)gsopt::SimplifyOuterJoins(query);
  }
  (void)PlanCost(query);  // OptimizeResult::original_cost
  GSOPT_ASSIGN_OR_RETURN(std::vector<PlanInfo> plans, EnumeratePlans(query));
  const PlanInfo* best = &plans[0];
  for (const PlanInfo& p : plans) {
    if (p.cost < best->cost) best = &p;
  }
  PlanInfo out = *best;
  NodePtr tuned;
  gsopt::OrderPassCounters oc;
  {
    Tracer::Scope order(tracer_, "optimizer.order_pass");
    tuned = gsopt::ApplyOrderAwarePass(out.expr,
                                       optimizer_->cost_model().stats(),
                                       options_.optimize.assume_ordered_exec,
                                       &oc);
  }
  if (tuned != out.expr) {
    out.expr = tuned;
    out.cost = PlanCost(tuned);
  }
  return out;
}

// QueryOptimizer::EnumeratePlanSpace, stage by stage.
StatusOr<std::vector<PlanInfo>> StagedReplayer::EnumeratePlans(
    const NodePtr& query) {
  const gsopt::OptimizeOptions& oo = options_.optimize;
  if (query->kind() == OpKind::kSort || query->kind() == OpKind::kProject) {
    GSOPT_ASSIGN_OR_RETURN(std::vector<PlanInfo> inner,
                           EnumeratePlans(query->left()));
    for (PlanInfo& p : inner) {
      if (query->kind() == OpKind::kSort) {
        p.expr = gsopt::Node::Sort(p.expr, query->sort_spec());
      } else if (query->projection_out() != query->projection()) {
        p.expr = gsopt::Node::ProjectAs(p.expr, query->projection(),
                                        query->projection_out());
      } else {
        p.expr = gsopt::Node::Project(p.expr, query->projection());
      }
      p.cost = PlanCost(p.expr);
    }
    return inner;
  }
  NodePtr simplified;
  {
    Tracer::Scope s(tracer_, "algebra.simplify");
    simplified = oo.simplify ? gsopt::SimplifyOuterJoins(query) : query;
  }
  StatusOr<gsopt::NormalizedQuery> nq = [&] {
    Tracer::Scope s(tracer_, "algebra.normalize");
    return gsopt::NormalizeForReordering(simplified, w_.catalog());
  }();
  if (!nq.ok()) return nq.status();
  StatusOr<gsopt::QueryGraph> qg = [&] {
    Tracer::Scope s(tracer_, "hypergraph.build");
    return gsopt::BuildQueryGraph(nq->join_tree, w_.catalog());
  }();

  std::vector<NodePtr> trees;
  if (qg.ok() && qg->hypergraph.NumRelations() >= 1) {
    Tracer::Scope s(tracer_, "enumerate");
    gsopt::EnumOptions eo;
    eo.mode = oo.mode;
    eo.max_plans = oo.max_plans;
    if (oo.prune) {
      eo.cost_fn = [this](const NodePtr& n) {
        Tracer::Scope c(tracer_, "optimizer.cost");
        ++counts_.cost_calls;
        return optimizer_->cost_model().Cost(n);
      };
    }
    gsopt::Enumerator en(qg->hypergraph, eo);
    en.SetLeafExprs(qg->leaf_exprs);
    auto enumerated = en.Enumerate();
    if (enumerated.ok()) {
      counts_.subplans += enumerated->subplans_emitted;
      counts_.dp_cells += enumerated->dp_cells;
      counts_.dp_pruned += enumerated->dp_pruned;
      for (const gsopt::PlanCandidate& c : enumerated->plans) {
        trees.push_back(c.expr);
      }
    } else if (enumerated.status().code() ==
               gsopt::StatusCode::kResourceExhausted) {
      return enumerated.status();
    }
  }
  if (trees.empty()) trees.push_back(nq->join_tree);

  std::vector<PlanInfo> plans;
  plans.reserve(trees.size() + 1);
  for (const NodePtr& t : trees) {
    StatusOr<NodePtr> full = [&] {
      Tracer::Scope s(tracer_, "algebra.wrappers");
      return gsopt::ApplyWrappers(*nq, t, w_.catalog());
    }();
    if (!full.ok()) return full.status();
    plans.push_back(PlanInfo{*full, PlanCost(*full)});
  }
  plans.push_back(PlanInfo{simplified, PlanCost(simplified)});
  return plans;
}

Status StagedReplayer::ExecutePlan(const gsopt::CachedPlan& plan,
                                   const std::vector<gsopt::Value>& values,
                                   gsopt::Relation* rows) {
  StatusOr<NodePtr> executable = [&] {
    Tracer::Scope s(tracer_, "core.substitute");
    return gsopt::SubstituteParams(plan.plan, values);
  }();
  if (!executable.ok()) return executable.status();
  gsopt::exec::OperatorStats root;
  StatusOr<gsopt::Relation> got = [&] {
    Tracer::Scope s(tracer_, "exec.execute");
    return gsopt::Execute(*executable, w_.catalog(),
                          gsopt::ExecuteOptions{}.WithStats(&root));
  }();
  if (!got.ok()) return got.status();
  // Walk the stats tree: per-kind self time and the exact counters.
  std::vector<const gsopt::exec::OperatorStats*> stack = {&root};
  while (!stack.empty()) {
    const gsopt::exec::OperatorStats* s = stack.back();
    stack.pop_back();
    const std::string family = OpFamily(*s);
    op_ns_[family] += s->SelfWall().count();
    ++counts_.operators;
    counts_.rows_examined += family == "scan" ? s->rows_out : s->rows_in;
    counts_.build_rows += s->build_rows;
    counts_.probe_rows += s->probe_rows;
    counts_.bloom_checks += s->bloom_checks;
    counts_.bloom_rejects += s->bloom_rejects;
    if (s->columnar) ++counts_.columnar_operators;
    if (s->merge_path) ++counts_.merge_joins;
    for (const auto& c : s->children) stack.push_back(c.get());
  }
  counts_.rows_returned += static_cast<uint64_t>(got->NumRows());
  *rows = std::move(got).value();
  return Status::OK();
}

Status StagedReplayer::Replay(int32_t id, const Request& r,
                              gsopt::Relation* rows, double* plan_cost) {
  tracer_->BeginRequest(id);
  switch (r.kind) {
    case Request::Kind::kPrepare: {
      // Session::Prepare: front end (memoized), then acquire-and-install.
      Template& t = stmts_[static_cast<size_t>(r.stmt)];
      GSOPT_ASSIGN_OR_RETURN(
          t.pq, FrontEnd(w_.templates()[static_cast<size_t>(r.stmt)]));
      bool hit = false;
      GSOPT_ASSIGN_OR_RETURN(t.plan, Acquire(t.pq, &hit));
      if (!hit) Publish(t.plan);
      *plan_cost = t.plan->cost;
      return Status::OK();
    }
    case Request::Kind::kExecute: {
      // PreparedStatement::Execute: explicit values, then the lifted
      // literals, substituted into the template.
      const Template& t = stmts_[static_cast<size_t>(r.stmt)];
      if (t.plan == nullptr) return Status::InvalidArgument("not prepared");
      ++counts_.template_reuses;
      std::vector<gsopt::Value> values = r.params;
      values.insert(values.end(), t.pq.lifted.begin(), t.pq.lifted.end());
      *plan_cost = t.plan->cost;
      return ExecutePlan(*t.plan, values, rows);
    }
    case Request::Kind::kQuery: {
      // Session::Query: front end, acquire (install deferred until the
      // execution succeeds), execute.
      GSOPT_ASSIGN_OR_RETURN(gsopt::ParameterizedQuery pq,
                             FrontEnd(r.sql));
      bool hit = false;
      GSOPT_ASSIGN_OR_RETURN(auto plan, Acquire(pq, &hit));
      *plan_cost = plan->cost;
      GSOPT_RETURN_IF_ERROR(ExecutePlan(*plan, pq.lifted, rows));
      if (!hit) Publish(plan);
      return Status::OK();
    }
  }
  return Status::Internal("unknown request kind");
}

LayerTimes AggregateSpans(const Tracer& tracer, size_t num_requests) {
  LayerTimes out;
  out.request_ns.assign(num_requests, 0);
  for (const Tracer::Span& s : tracer) {
    const int64_t d = s.end_ns - s.start_ns;
    if (s.parent < 0 && s.request >= 0 &&
        static_cast<size_t>(s.request) < num_requests) {
      out.request_ns[static_cast<size_t>(s.request)] += d;
    }
    out.total_ns[s.name] += d;
    out.self_ns[s.name] += d - s.child_ns;
  }
  return out;
}

bool WriteSpans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,start_ns,end_ns,parent,request\n";
  for (const Tracer::Span& s : tracer) {
    out << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent
        << ',' << s.request << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace gsbench
