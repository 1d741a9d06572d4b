#include "algebra/simplify.h"

#include <set>
#include <string>

namespace gsopt {

namespace {

using RelNameSet = std::set<std::string>;

// Qualifiers of the columns `n` can output: its base relations and the
// aggregate outputs of the views inside it. Padding `n` nulls all of them.
void CollectOutputRels(const NodePtr& n, RelNameSet* out) {
  if (n->kind() == OpKind::kLeaf) {
    out->insert(n->table());
    return;
  }
  if (n->kind() == OpKind::kGroupBy) {
    for (const exec::AggSpec& agg : n->groupby().aggs) {
      out->insert(agg.out_rel);
    }
  }
  if (n->left()) CollectOutputRels(n->left(), out);
  if (n->right()) CollectOutputRels(n->right(), out);
}

bool IntersectsRels(const RelNameSet& nr, const NodePtr& node) {
  RelNameSet rels;
  CollectOutputRels(node, &rels);
  for (const std::string& rel : rels) {
    if (nr.count(rel)) return true;
  }
  return false;
}

RelNameSet Union(const RelNameSet& a, const RelNameSet& b) {
  RelNameSet out = a;
  out.insert(b.begin(), b.end());
  return out;
}

// nr: relations whose null-padded rows cannot reach the output because a
// null-intolerant predicate above references them.
NodePtr Simplify(const NodePtr& node, const RelNameSet& nr) {
  switch (node->kind()) {
    case OpKind::kLeaf:
      return node;
    case OpKind::kSelect: {
      RelNameSet child_nr = Union(nr, node->pred().NullRejectedRels());
      NodePtr c = Simplify(node->left(), child_nr);
      return c == node->left() ? node : Node::Select(c, node->pred());
    }
    case OpKind::kGeneralizedSelection: {
      // Preserved relations survive even when the GS predicate rejects
      // them, so only non-preserved referenced relations are null-rejected.
      RelNameSet preserved;
      for (const auto& g : node->groups()) preserved.insert(g.begin(), g.end());
      RelNameSet child_nr = nr;
      for (const std::string& rel : node->pred().NullRejectedRels()) {
        if (!preserved.count(rel)) child_nr.insert(rel);
      }
      NodePtr c = Simplify(node->left(), child_nr);
      return c == node->left()
                 ? node
                 : Node::GeneralizedSelection(c, node->pred(), node->groups());
    }
    case OpKind::kSort: {
      // Sorting preserves rows 1:1, so null-rejection from above transfers
      // straight through.
      NodePtr c = Simplify(node->left(), nr);
      return c == node->left() ? node : Node::Sort(c, node->sort_spec());
    }
    case OpKind::kProject:
    case OpKind::kGroupBy: {
      // These do not reject nulls; recurse with an empty rejection set
      // (aggregation re-shapes rows, so rejection above does not transfer
      // through soundly in general).
      NodePtr c = Simplify(node->left(), {});
      if (c == node->left()) return node;
      if (node->kind() == OpKind::kProject) {
        return node->projection_out() != node->projection()
                   ? Node::ProjectAs(c, node->projection(),
                                     node->projection_out())
                   : Node::Project(c, node->projection());
      }
      return Node::GroupBy(c, node->groupby());
    }
    default:
      break;
  }

  // Binary operators.
  OpKind kind = node->kind();
  const NodePtr& l = node->left();
  const NodePtr& r = node->right();

  // Degeneration can cascade at one node (FOJ -> LOJ -> inner when the
  // rejection set covers both sides), so iterate to a fixpoint here.
  bool changed = true;
  while (changed) {
    changed = false;
    if (kind == OpKind::kLeftOuterJoin && IntersectsRels(nr, r)) {
      kind = OpKind::kInnerJoin;
      changed = true;
    } else if (kind == OpKind::kRightOuterJoin && IntersectsRels(nr, l)) {
      kind = OpKind::kInnerJoin;
      changed = true;
    } else if (kind == OpKind::kFullOuterJoin) {
      bool reject_l = IntersectsRels(nr, l);
      bool reject_r = IntersectsRels(nr, r);
      if (reject_l && reject_r) {
        kind = OpKind::kInnerJoin;
        changed = true;
      } else if (reject_r) {
        // Rows padded on the RIGHT side's columns (= left-only rows) die,
        // so preserving the left side is useless: keep right preserved.
        kind = OpKind::kRightOuterJoin;
        changed = true;
      } else if (reject_l) {
        kind = OpKind::kLeftOuterJoin;
        changed = true;
      }
    }
  }

  RelNameSet pred_rels = node->pred().NullRejectedRels();
  RelNameSet nr_l, nr_r;
  switch (kind) {
    case OpKind::kInnerJoin:
    case OpKind::kSemiJoin:
      nr_l = Union(nr, pred_rels);
      nr_r = Union(nr, pred_rels);
      break;
    case OpKind::kLeftOuterJoin:
      // Preserved (left) rows failing the predicate survive padded; only
      // the null-supplying side's unmatched rows are dropped.
      nr_l = nr;
      nr_r = Union(nr, pred_rels);
      break;
    case OpKind::kRightOuterJoin:
      nr_l = Union(nr, pred_rels);
      nr_r = nr;
      break;
    case OpKind::kFullOuterJoin:
    case OpKind::kMgoj:
      nr_l = nr;
      nr_r = nr;
      break;
    case OpKind::kAntiJoin:
      // Anti join keeps UNMATCHED left rows: padded left rows survive, and
      // right rows never surface; no extra rejection.
      nr_l = nr;
      nr_r = {};
      break;
    default:
      nr_l = nr;
      nr_r = nr;
      break;
  }

  NodePtr nl = Simplify(l, nr_l);
  NodePtr nr_child = Simplify(r, nr_r);
  if (kind == node->kind() && nl == l && nr_child == r) return node;
  if (kind == OpKind::kMgoj) {
    return Node::Mgoj(nl, nr_child, node->pred(), node->groups());
  }
  return Node::Binary(kind, nl, nr_child, node->pred());
}

}  // namespace

NodePtr SimplifyOuterJoins(const NodePtr& query) {
  if (query == nullptr) return query;
  return Simplify(query, {});
}

bool IsSimpleQuery(const NodePtr& query) {
  return SimplifyOuterJoins(query) == query;
}

}  // namespace gsopt
