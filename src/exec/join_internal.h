// Exec-internal shared pieces of the join / generalized-selection kernels:
// hash-join planning, canonical key encoding of tuples, the JoinCore result
// shape, and preserved-group indexing. Included by eval.cc (serial
// reference kernels) and parallel.cc (morsel-parallel kernels) so the two
// paths share one definition of the semantics-bearing helpers. Not part of
// the public exec/ API.
#ifndef GSOPT_EXEC_JOIN_INTERNAL_H_
#define GSOPT_EXEC_JOIN_INTERNAL_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "exec/eval.h"
#include "exec/keys.h"
#include "relational/relation.h"

namespace gsopt::exec::internal {

// Best-effort read prefetch; a no-op on compilers without the builtin.
inline void Prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

// ---------------------------------------------------------------------------
// Hash-join planning: split the conjunction into equi-atoms whose two sides
// separate across the inputs (the hash keys) and residual atoms.
// ---------------------------------------------------------------------------

inline bool ScalarBindsTo(const Scalar& s, const Schema& schema) {
  return s.Validate(schema).ok();
}

struct HashPlan {
  std::vector<ScalarPtr> a_keys;
  std::vector<ScalarPtr> b_keys;
  std::vector<Atom> residual;

  bool usable() const { return !a_keys.empty(); }
};

inline HashPlan MakeHashPlan(const Predicate& p, const Schema& sa,
                             const Schema& sb) {
  HashPlan plan;
  for (const Atom& atom : p.atoms()) {
    if (atom.kind == Atom::Kind::kCompare && atom.op == CmpOp::kEq) {
      bool l_in_a = ScalarBindsTo(*atom.lhs, sa);
      bool r_in_b = ScalarBindsTo(*atom.rhs, sb);
      bool l_in_b = ScalarBindsTo(*atom.lhs, sb);
      bool r_in_a = ScalarBindsTo(*atom.rhs, sa);
      if (l_in_a && r_in_b && !(l_in_b && r_in_a)) {
        plan.a_keys.push_back(atom.lhs);
        plan.b_keys.push_back(atom.rhs);
        continue;
      }
      if (l_in_b && r_in_a) {
        plan.a_keys.push_back(atom.rhs);
        plan.b_keys.push_back(atom.lhs);
        continue;
      }
    }
    plan.residual.push_back(atom);
  }
  return plan;
}

// Evaluates key scalars against one input tuple into `out`; returns false
// if any key value is NULL (NULL never equi-matches under 3VL, so such
// rows cannot join and are skipped by the hash path).
inline bool EncodeKeys(const std::vector<ScalarPtr>& keys, const Tuple& t,
                       const Schema& s, std::string* out) {
  out->clear();
  for (const ScalarPtr& k : keys) {
    Value v = k->Eval(t, s);
    if (v.is_null()) return false;
    AppendValueKey(v, out);
  }
  return true;
}

// Matched pairs plus per-side matched flags; the shared core of every join
// flavour.
struct JoinCoreResult {
  Relation out;
  std::vector<char> a_matched;
  std::vector<char> b_matched;
};

// Group column/vid indices for one preserved group within a schema.
struct GroupIndex {
  std::vector<int> value_idx;
  std::vector<int> vid_idx;
};

inline GroupIndex IndexGroup(const PreservedGroup& group, const Schema& schema,
                             const VirtualSchema& vschema) {
  GroupIndex gi;
  for (int i = 0; i < schema.size(); ++i) {
    if (group.count(schema.attr(i).rel)) gi.value_idx.push_back(i);
  }
  for (int i = 0; i < vschema.size(); ++i) {
    if (group.count(vschema.rel(i))) gi.vid_idx.push_back(i);
  }
  return gi;
}

// True if the tuple is entirely NULL on the group's columns and row ids.
// Such a projection means "no preserved tuple here" (the group's part was
// itself padding from an outer join below) and must not be resurrected.
inline bool GroupPartAllNull(const Tuple& t, const GroupIndex& gi) {
  for (int i : gi.value_idx) {
    if (!t.values[i].is_null()) return false;
  }
  for (int i : gi.vid_idx) {
    if (t.vids[i] != kNullRowId) return false;
  }
  return true;
}

// Builds the null-padded resurrection tuple for one preserved-group key.
inline Tuple PadGroupTuple(const Tuple& src, const GroupIndex& gi,
                           const Relation& shape) {
  Tuple t = shape.NullTuple();
  for (int i : gi.value_idx) t.values[i] = src.values[i];
  for (int i : gi.vid_idx) t.vids[i] = src.vids[i];
  return t;
}

// ---------------------------------------------------------------------------
// Morsel-parallel kernel paths (parallel.cc). Callers have already decided
// via ExecContext::Parallel(); these assume executor != nullptr.
// ---------------------------------------------------------------------------

StatusOr<Relation> ParallelSelect(const Relation& r, const Predicate& p,
                                  const ExecContext& ctx);

StatusOr<Relation> ParallelProduct(const Relation& a, const Relation& b,
                                   const ExecContext& ctx);

// Hash path when plan.usable(), parallel nested loops otherwise; either
// way bag-equal to the serial JoinCore.
StatusOr<JoinCoreResult> ParallelJoinCore(const Relation& a,
                                          const Relation& b,
                                          const HashPlan& plan,
                                          const Predicate& p,
                                          const ExecContext& ctx);

// The per-group difference of Definition 2.1, fanned out over r's rows:
// appends to `out` one null-padded resurrection tuple per distinct group
// key of r that does not appear in `surviving`, deduplicated across lanes.
Status ParallelGsResurrect(const Relation& r, const GroupIndex& gi,
                           const std::unordered_set<std::string>& surviving,
                           Relation* out, const ExecContext& ctx);

// Sort-merge twin of the hash JoinCore (exec/sort.cc): sorts both sides by
// their equi-key values (key-class comparator, so the equality partition
// is exactly the hash path's) and merges equal-key blocks, evaluating
// residual conjuncts per candidate pair. Rows whose key encodes NULL never
// match, like EncodeKeys' skip. Requires plan.usable(). Matched inner rows
// are emitted in ascending key order, which is what lets the order-aware
// optimizer claim the join's output order. Degrades to external key-sorted
// runs when the memory cap trips and spilling is enabled.
StatusOr<JoinCoreResult> MergeJoinCore(const Relation& a, const Relation& b,
                                       const HashPlan& plan,
                                       const ExecContext& ctx);

}  // namespace gsopt::exec::internal

#endif  // GSOPT_EXEC_JOIN_INTERNAL_H_
