#include "algebra/execute.h"

#include <chrono>

#include "exec/aggregate.h"
#include "exec/eval.h"
#include "exec/sort.h"

namespace gsopt {

namespace {

using Clock = std::chrono::steady_clock;

std::string StatsLabel(const Node& n) {
  if (n.kind() == OpKind::kLeaf) return "scan " + n.table();
  // Surface the physical choice in EXPLAIN ANALYZE: a join the order-aware
  // optimizer hinted to sort-merge reads e.g. "JOIN (merge)".
  if (n.merge_join() && IsBinary(n.kind())) {
    return OpKindName(n.kind()) + " (merge)";
  }
  return OpKindName(n.kind());
}

StatusOr<Relation> ExecuteNode(const NodePtr& node, const Catalog& catalog,
                               const ExecuteOptions& options,
                               exec::OperatorStats* stats);

// An operator's input: a base table read in place from the catalog, or the
// relation a child operator produced.
class Input {
 public:
  explicit Input(const Relation* table) : table_(table) {}
  explicit Input(Relation owned) : owned_(std::move(owned)) {}
  const Relation& get() const { return table_ != nullptr ? *table_ : owned_; }

 private:
  const Relation* table_ = nullptr;
  Relation owned_;
};

// Scans a base table without copying it: the result points into the
// catalog, which must therefore stay unmutated until execution ends.
StatusOr<const Relation*> Scan(const Node& leaf, const Catalog& catalog,
                               const ExecuteOptions& options,
                               exec::OperatorStats* stats) {
  if (options.budget != nullptr) {
    GSOPT_RETURN_IF_ERROR(options.budget->CheckDeadlineNow("execute"));
  }
  Clock::time_point start;
  if (stats != nullptr) start = Clock::now();
  const Relation* table = catalog.Find(leaf.table());
  if (table == nullptr) return Status::NotFound("no table " + leaf.table());
  if (stats != nullptr) {
    // Scans have no kernel to count for them.
    stats->op = StatsLabel(leaf);
    stats->rows_out = static_cast<uint64_t>(table->NumRows());
    stats->wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - start);
  }
  return table;
}

// Executes one child under its own stats node (appended in child order, so
// the stats tree mirrors the plan tree shape exactly).
StatusOr<Input> ExecuteChild(const NodePtr& child, const Catalog& catalog,
                             const ExecuteOptions& options,
                             exec::OperatorStats* stats) {
  exec::OperatorStats* cs =
      stats == nullptr ? nullptr : stats->AddChild(std::string());
  if (child != nullptr && child->kind() == OpKind::kLeaf) {
    GSOPT_ASSIGN_OR_RETURN(const Relation* table,
                           Scan(*child, catalog, options, cs));
    return Input(table);
  }
  GSOPT_ASSIGN_OR_RETURN(Relation r, ExecuteNode(child, catalog, options, cs));
  return Input(std::move(r));
}

StatusOr<Relation> Dispatch(const NodePtr& node, const Catalog& catalog,
                            const ExecuteOptions& options,
                            const exec::ExecContext& ctx,
                            exec::OperatorStats* stats) {
  switch (node->kind()) {
    case OpKind::kSelect: {
      GSOPT_ASSIGN_OR_RETURN(
          Input child, ExecuteChild(node->left(), catalog, options, stats));
      return exec::Select(child.get(), node->pred(), ctx);
    }
    case OpKind::kProject: {
      GSOPT_ASSIGN_OR_RETURN(
          Input child, ExecuteChild(node->left(), catalog, options, stats));
      if (node->projection_out() != node->projection()) {
        return exec::ProjectAs(child.get(), node->projection(),
                               node->projection_out(), ctx);
      }
      return exec::Project(child.get(), node->projection(), ctx);
    }
    case OpKind::kGeneralizedSelection: {
      GSOPT_ASSIGN_OR_RETURN(
          Input child, ExecuteChild(node->left(), catalog, options, stats));
      return exec::GeneralizedSelection(child.get(), node->pred(),
                                        node->groups(), ctx);
    }
    case OpKind::kGroupBy: {
      GSOPT_ASSIGN_OR_RETURN(
          Input child, ExecuteChild(node->left(), catalog, options, stats));
      return exec::GeneralizedProjection(child.get(), node->groupby(), ctx);
    }
    case OpKind::kSort: {
      GSOPT_ASSIGN_OR_RETURN(
          Input child, ExecuteChild(node->left(), catalog, options, stats));
      return exec::Sort(child.get(), node->sort_spec(), ctx);
    }
    default:
      break;
  }
  GSOPT_ASSIGN_OR_RETURN(Input left,
                         ExecuteChild(node->left(), catalog, options, stats));
  GSOPT_ASSIGN_OR_RETURN(Input right,
                         ExecuteChild(node->right(), catalog, options, stats));
  const Relation& l = left.get();
  const Relation& r = right.get();
  switch (node->kind()) {
    case OpKind::kInnerJoin:
      return exec::InnerJoin(l, r, node->pred(), ctx);
    case OpKind::kLeftOuterJoin:
      return exec::LeftOuterJoin(l, r, node->pred(), ctx);
    case OpKind::kRightOuterJoin:
      return exec::RightOuterJoin(l, r, node->pred(), ctx);
    case OpKind::kFullOuterJoin:
      return exec::FullOuterJoin(l, r, node->pred(), ctx);
    case OpKind::kAntiJoin:
      return exec::AntiJoin(l, r, node->pred(), ctx);
    case OpKind::kSemiJoin:
      return exec::SemiJoin(l, r, node->pred(), ctx);
    case OpKind::kMgoj:
      return exec::Mgoj(l, r, node->pred(), node->groups(), ctx);
    default:
      return Status::Internal("unhandled operator " +
                              OpKindName(node->kind()));
  }
}

StatusOr<Relation> ExecuteNode(const NodePtr& node, const Catalog& catalog,
                               const ExecuteOptions& options,
                               exec::OperatorStats* stats) {
  if (node == nullptr) return Status::InvalidArgument("null plan node");
  if (node->kind() == OpKind::kLeaf) {
    // Only a bare root scan copies its table: the caller owns the result.
    GSOPT_ASSIGN_OR_RETURN(const Relation* table,
                           Scan(*node, catalog, options, stats));
    return *table;
  }
  if (options.budget != nullptr) {
    GSOPT_RETURN_IF_ERROR(options.budget->CheckDeadlineNow("execute"));
  }
  exec::ExecContext ctx{options.budget,  stats,         options.executor,
                        options.fault,   options.spill, options.batch,
                        options.bloom,   options.join,  node->merge_join()};
  Clock::time_point start;
  if (stats != nullptr) {
    stats->op = StatsLabel(*node);
    start = Clock::now();
  }
  StatusOr<Relation> result = Dispatch(node, catalog, options, ctx, stats);
  if (stats != nullptr && result.ok()) {
    stats->wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - start);
  }
  return result;
}

}  // namespace

StatusOr<Relation> Execute(const NodePtr& node, const Catalog& catalog,
                           const ExecuteOptions& options) {
  return ExecuteNode(node, catalog, options, options.stats);
}

StatusOr<bool> ExecutionEquivalent(const NodePtr& a, const NodePtr& b,
                                   const Catalog& catalog,
                                   const ExecuteOptions& options) {
  GSOPT_ASSIGN_OR_RETURN(Relation ra, Execute(a, catalog, options));
  GSOPT_ASSIGN_OR_RETURN(Relation rb, Execute(b, catalog, options));
  return Relation::BagEquals(ra, rb);
}

}  // namespace gsopt
