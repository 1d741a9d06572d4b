#include "exec/columnar.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "exec/bloom.h"
#include "exec/hash_table.h"
#include "exec/spill.h"

namespace gsopt::exec::internal {

namespace {

using CAtom = CompiledFilter::CAtom;

int SlotFor(std::vector<int>* cols, int c) {
  for (size_t k = 0; k < cols->size(); ++k) {
    if ((*cols)[k] == c) return static_cast<int>(k);
  }
  cols->push_back(c);
  return static_cast<int>(cols->size() - 1);
}

// `k <op> col` rewritten as `col <mirror(op)> k`.
CmpOp MirrorOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

// Refines the selection vector by `keep`. The first refining atom runs
// "dense" over [0, n) and materializes the vector; later atoms compact it
// in place.
template <typename Keep>
void RefineSel(bool* dense, int64_t n, std::vector<int32_t>* sel, Keep keep) {
  // Branchless compaction: always store the candidate offset, advance the
  // write cursor by the predicate's 0/1. At mid selectivities a branchy
  // `if (keep) push_back` mispredicts on essentially every row.
  if (*dense) {
    sel->resize(static_cast<size_t>(n));
    int32_t* out = sel->data();
    size_t w = 0;
    for (int64_t i = 0; i < n; ++i) {
      out[w] = static_cast<int32_t>(i);
      w += keep(i) ? 1u : 0u;
    }
    sel->resize(w);
    *dense = false;
  } else {
    int32_t* out = sel->data();
    size_t w = 0;
    for (int32_t i : *sel) {
      out[w] = i;
      w += keep(static_cast<int64_t>(i)) ? 1u : 0u;
    }
    sel->resize(w);
  }
}

// Hoists the operator dispatch out of the row loop: one tight loop per
// (shape, op) pair, with only the null test and the three-way compare
// inside. `cmp3` is only called on non-null rows.
template <typename NullF, typename Cmp3>
void RefineCompare(CmpOp op, bool* dense, int64_t n, std::vector<int32_t>* sel,
                   NullF is_null, Cmp3 cmp3) {
  switch (op) {
    case CmpOp::kEq:
      RefineSel(dense, n, sel,
                [&](int64_t i) { return !is_null(i) && cmp3(i) == 0; });
      break;
    case CmpOp::kNe:
      RefineSel(dense, n, sel,
                [&](int64_t i) { return !is_null(i) && cmp3(i) != 0; });
      break;
    case CmpOp::kLt:
      RefineSel(dense, n, sel,
                [&](int64_t i) { return !is_null(i) && cmp3(i) < 0; });
      break;
    case CmpOp::kLe:
      RefineSel(dense, n, sel,
                [&](int64_t i) { return !is_null(i) && cmp3(i) <= 0; });
      break;
    case CmpOp::kGt:
      RefineSel(dense, n, sel,
                [&](int64_t i) { return !is_null(i) && cmp3(i) > 0; });
      break;
    case CmpOp::kGe:
      RefineSel(dense, n, sel,
                [&](int64_t i) { return !is_null(i) && cmp3(i) >= 0; });
      break;
  }
}

bool IsNumericKind(ColumnKind k) {
  return k == ColumnKind::kInt64 || k == ColumnKind::kDouble;
}

void ApplyColCol(const CAtom& ca, const std::vector<Column>& cols, bool* dense,
                 int64_t n, std::vector<int32_t>* sel) {
  const Column& a = cols[static_cast<size_t>(ca.lhs_slot)];
  const Column& b = cols[static_cast<size_t>(ca.rhs_slot)];
  auto is_null = [&](int64_t i) {
    return (a.nulls[static_cast<size_t>(i)] |
            b.nulls[static_cast<size_t>(i)]) != 0;
  };
  if (a.kind == ColumnKind::kInt64 && b.kind == ColumnKind::kInt64) {
    // Fully branchless int64 row test: non-short-circuit & lets the
    // compiler if-convert (and vectorize) the null mask and the compare
    // in one pass. NULL slots hold zeros, so the compare is safe to
    // evaluate unconditionally.
    const int64_t* xa = a.i64.data();
    const int64_t* xb = b.i64.data();
    const uint8_t* na = a.nulls.data();
    const uint8_t* nb = b.nulls.data();
    auto nn = [&](int64_t i) {
      return static_cast<unsigned>((na[i] | nb[i]) == 0);
    };
    switch (ca.op) {
      case CmpOp::kEq:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (xa[i] == xb[i]); });
        break;
      case CmpOp::kNe:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (xa[i] != xb[i]); });
        break;
      case CmpOp::kLt:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (xa[i] < xb[i]); });
        break;
      case CmpOp::kLe:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (xa[i] <= xb[i]); });
        break;
      case CmpOp::kGt:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (xa[i] > xb[i]); });
        break;
      case CmpOp::kGe:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (xa[i] >= xb[i]); });
        break;
    }
  } else if (IsNumericKind(a.kind) && IsNumericKind(b.kind)) {
    RefineCompare(ca.op, dense, n, sel, is_null, [&](int64_t i) {
      return CompareDoubles(a.NumAt(i), b.NumAt(i));
    });
  } else if (a.kind == ColumnKind::kString && b.kind == ColumnKind::kString) {
    RefineCompare(ca.op, dense, n, sel, is_null, [&](int64_t i) {
      int c = a.str[static_cast<size_t>(i)]->compare(
          *b.str[static_cast<size_t>(i)]);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    });
  } else if (a.kind != ColumnKind::kMixed && b.kind != ColumnKind::kMixed) {
    // Typed but incomparable in every row (string vs numeric): the
    // comparison is UNKNOWN batch-wide, so nothing survives.
    sel->clear();
    *dense = false;
  } else {
    RefineSel(dense, n, sel, [&](int64_t i) {
      return EvalCmp(ca.op, ColumnValueAt(a, i), ColumnValueAt(b, i)) ==
             Tri::kTrue;
    });
  }
}

void ApplyColConst(const CAtom& ca, const std::vector<Column>& cols,
                   bool* dense, int64_t n, std::vector<int32_t>* sel) {
  const Column& c = cols[static_cast<size_t>(ca.lhs_slot)];
  const Value& k = ca.constant;  // never NULL (compiled to kNever instead)
  auto is_null = [&](int64_t i) {
    return c.nulls[static_cast<size_t>(i)] != 0;
  };
  if (c.kind == ColumnKind::kInt64 && k.type() == ValueType::kInt) {
    // Branchless int64-vs-constant row test; see ApplyColCol.
    const int64_t* x = c.i64.data();
    const uint8_t* nc = c.nulls.data();
    int64_t kv = k.AsInt();
    auto nn = [&](int64_t i) { return static_cast<unsigned>(nc[i] == 0); };
    switch (ca.op) {
      case CmpOp::kEq:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (x[i] == kv); });
        break;
      case CmpOp::kNe:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (x[i] != kv); });
        break;
      case CmpOp::kLt:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (x[i] < kv); });
        break;
      case CmpOp::kLe:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (x[i] <= kv); });
        break;
      case CmpOp::kGt:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (x[i] > kv); });
        break;
      case CmpOp::kGe:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (x[i] >= kv); });
        break;
    }
  } else if (IsNumericKind(c.kind) && k.IsNumeric()) {
    double kv = k.AsDouble();
    RefineCompare(ca.op, dense, n, sel, is_null, [&](int64_t i) {
      return CompareDoubles(c.NumAt(i), kv);
    });
  } else if (c.kind == ColumnKind::kString && k.type() == ValueType::kString) {
    const std::string& ks = k.AsString();
    RefineCompare(ca.op, dense, n, sel, is_null, [&](int64_t i) {
      int r = c.str[static_cast<size_t>(i)]->compare(ks);
      return r < 0 ? -1 : (r > 0 ? 1 : 0);
    });
  } else if (c.kind != ColumnKind::kMixed) {
    sel->clear();
    *dense = false;
  } else {
    RefineSel(dense, n, sel, [&](int64_t i) {
      return EvalCmp(ca.op, *c.vals[static_cast<size_t>(i)], k) == Tri::kTrue;
    });
  }
}

// --- Binary key encoding helpers -----------------------------------------

inline void PutRaw(std::string* out, const void* p, size_t n) {
  out->append(static_cast<const char*>(p), n);
}

inline void PutI64(std::string* out, int64_t v) {
  out->push_back('i');
  PutRaw(out, &v, sizeof v);
}

inline void PutDoubleKey(std::string* out, double d) {
  int64_t i = 0;
  if (ExactInt64(d, &i)) {  // integral within 2^53: same class as the int
    PutI64(out, i);
    return;
  }
  if (std::isnan(d)) {  // one class for every NaN payload
    out->push_back('N');
    return;
  }
  out->push_back('d');
  PutRaw(out, &d, sizeof d);
}

inline void PutStringKey(std::string* out, const std::string& s) {
  out->push_back('s');
  uint32_t len = static_cast<uint32_t>(s.size());
  PutRaw(out, &len, sizeof len);
  out->append(s);
}

// False on NULL.
inline bool PutValueKey(std::string* out, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      PutI64(out, v.AsInt());
      return true;
    case ValueType::kDouble:
      PutDoubleKey(out, v.AsDouble());
      return true;
    case ValueType::kString:
      PutStringKey(out, v.AsString());
      return true;
  }
  return false;
}

// Streaming FNV-1a over exactly the bytes AppendBatchKey would emit for a
// row, without materializing the key string. The bloom-filter probe pass
// uses this to reject rows before any key bytes are copied; the byte
// sequences below must stay in lockstep with PutI64/PutDoubleKey/
// PutStringKey/PutValueKey above.
struct KeyHash {
  uint64_t h = 1469598103934665603ull;
  void Byte(unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  }
  void Bytes(const void* p, size_t n) {
    const unsigned char* s = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) Byte(s[i]);
  }
};

inline void HashI64(KeyHash* kh, int64_t v) {
  kh->Byte('i');
  kh->Bytes(&v, sizeof v);
}

inline void HashDoubleKey(KeyHash* kh, double d) {
  int64_t i = 0;
  if (ExactInt64(d, &i)) {
    HashI64(kh, i);
    return;
  }
  if (std::isnan(d)) {
    kh->Byte('N');
    return;
  }
  kh->Byte('d');
  kh->Bytes(&d, sizeof d);
}

inline void HashStringKey(KeyHash* kh, const std::string& s) {
  kh->Byte('s');
  uint32_t len = static_cast<uint32_t>(s.size());
  kh->Bytes(&len, sizeof len);
  kh->Bytes(s.data(), s.size());
}

// False on NULL.
inline bool HashValueKey(KeyHash* kh, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      HashI64(kh, v.AsInt());
      return true;
    case ValueType::kDouble:
      HashDoubleKey(kh, v.AsDouble());
      return true;
    case ValueType::kString:
      HashStringKey(kh, v.AsString());
      return true;
  }
  return false;
}

// HashKeyBytes of the exact AppendBatchKey encoding of row i, computed
// without building the string. False on a NULL key component.
bool HashBatchKeyRow(const std::vector<Column>& key_cols, int64_t i,
                     uint64_t* out) {
  KeyHash kh;
  for (const Column& c : key_cols) {
    if (c.IsNull(i)) return false;
    size_t k = static_cast<size_t>(i);
    switch (c.kind) {
      case ColumnKind::kInt64:
        HashI64(&kh, c.i64[k]);
        break;
      case ColumnKind::kDouble:
        HashDoubleKey(&kh, c.f64[k]);
        break;
      case ColumnKind::kString:
        HashStringKey(&kh, *c.str[k]);
        break;
      case ColumnKind::kMixed:
        if (!HashValueKey(&kh, *c.vals[k])) return false;
        break;
    }
  }
  *out = kh.h;
  return true;
}

}  // namespace

CompiledFilter CompileFilter(const Predicate& p, const Schema& s) {
  CompiledFilter f;
  for (const Atom& atom : p.atoms()) {
    CAtom ca;
    ca.atom = &atom;
    // Classify one side: a resolvable plain column becomes a slot; a
    // constant (or an unsubstituted parameter, which evaluates to NULL, or
    // an UNresolvable column, which Scalar::Eval also maps to NULL) becomes
    // a captured Value; arithmetic terms punt to the row fallback.
    enum class Side { kCol, kConst, kOther };
    auto classify = [&](const ScalarPtr& sc, int* col, Value* cv) {
      if (sc == nullptr) return Side::kOther;
      switch (sc->kind()) {
        case Scalar::Kind::kColumn:
          *col = s.Find(sc->rel(), sc->name());
          if (*col >= 0) return Side::kCol;
          *cv = Value::Null();
          return Side::kConst;
        case Scalar::Kind::kConst:
          *cv = sc->constant();
          return Side::kConst;
        case Scalar::Kind::kParam:
          *cv = Value::Null();
          return Side::kConst;
        case Scalar::Kind::kArith:
          return Side::kOther;
      }
      return Side::kOther;
    };

    if (atom.kind != Atom::Kind::kCompare) {
      int col = -1;
      Value cv;
      Side side = classify(atom.lhs, &col, &cv);
      if (side == Side::kCol) {
        ca.kind = atom.kind == Atom::Kind::kIsNull ? CAtom::Kind::kIsNull
                                                   : CAtom::Kind::kIsNotNull;
        ca.lhs_slot = SlotFor(&f.cols, col);
        f.atoms.push_back(ca);
      } else if (side == Side::kConst) {
        // Statically decidable: `k IS NULL` is TRUE iff k is NULL.
        bool truth = atom.kind == Atom::Kind::kIsNull ? cv.is_null()
                                                      : !cv.is_null();
        if (!truth) {
          ca.kind = CAtom::Kind::kNever;
          f.atoms.push_back(ca);
        }  // statically TRUE atoms drop out of the conjunction
      } else {
        ca.kind = CAtom::Kind::kFallback;
        f.has_fallback = true;
        f.atoms.push_back(ca);
      }
      continue;
    }

    int lcol = -1, rcol = -1;
    Value lval, rval;
    Side ls = classify(atom.lhs, &lcol, &lval);
    Side rs = classify(atom.rhs, &rcol, &rval);
    if (ls == Side::kOther || rs == Side::kOther) {
      ca.kind = CAtom::Kind::kFallback;
      f.has_fallback = true;
    } else if (ls == Side::kCol && rs == Side::kCol) {
      ca.kind = CAtom::Kind::kCmpColCol;
      ca.op = atom.op;
      ca.lhs_slot = SlotFor(&f.cols, lcol);
      ca.rhs_slot = SlotFor(&f.cols, rcol);
    } else if (ls == Side::kCol) {  // col <op> const
      if (rval.is_null()) {
        ca.kind = CAtom::Kind::kNever;  // cmp with NULL is never TRUE
      } else {
        ca.kind = CAtom::Kind::kCmpColConst;
        ca.op = atom.op;
        ca.lhs_slot = SlotFor(&f.cols, lcol);
        ca.constant = std::move(rval);
      }
    } else if (rs == Side::kCol) {  // const <op> col, mirrored
      if (lval.is_null()) {
        ca.kind = CAtom::Kind::kNever;
      } else {
        ca.kind = CAtom::Kind::kCmpColConst;
        ca.op = MirrorOp(atom.op);
        ca.lhs_slot = SlotFor(&f.cols, rcol);
        ca.constant = std::move(lval);
      }
    } else {  // const <op> const: decide now
      if (EvalCmp(atom.op, lval, rval) == Tri::kTrue) continue;  // drop
      ca.kind = CAtom::Kind::kNever;
    }
    f.atoms.push_back(ca);
  }
  return f;
}

void ApplyFilter(const CompiledFilter& f, const Relation& r, int64_t begin,
                 int64_t n, const std::vector<Column>& cols,
                 std::vector<int32_t>* sel) {
  // Selection offsets are batch-relative int32_t: callers pass one batch
  // (kBatchRows) or one morsel at a time, never a whole relation.
  assert(n <= std::numeric_limits<int32_t>::max());
  bool dense = true;
  sel->clear();
  for (const CAtom& ca : f.atoms) {
    if (!dense && sel->empty()) return;
    switch (ca.kind) {
      case CAtom::Kind::kNever:
        sel->clear();
        return;
      case CAtom::Kind::kIsNull: {
        const Column& c = cols[static_cast<size_t>(ca.lhs_slot)];
        RefineSel(&dense, n, sel, [&](int64_t i) { return c.IsNull(i); });
        break;
      }
      case CAtom::Kind::kIsNotNull: {
        const Column& c = cols[static_cast<size_t>(ca.lhs_slot)];
        RefineSel(&dense, n, sel, [&](int64_t i) { return !c.IsNull(i); });
        break;
      }
      case CAtom::Kind::kCmpColCol:
        ApplyColCol(ca, cols, &dense, n, sel);
        break;
      case CAtom::Kind::kCmpColConst:
        ApplyColConst(ca, cols, &dense, n, sel);
        break;
      case CAtom::Kind::kFallback: {
        const Atom* atom = ca.atom;
        const Schema& s = r.schema();
        RefineSel(&dense, n, sel, [&](int64_t i) {
          return atom->Eval(r.row(begin + i), s) == Tri::kTrue;
        });
        break;
      }
    }
  }
  if (dense) {
    // Every atom folded to statically TRUE (or the predicate is empty).
    sel->resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) (*sel)[static_cast<size_t>(i)] =
        static_cast<int32_t>(i);
  }
}

bool AppendBatchKey(const std::vector<Column>& key_cols, int64_t i,
                    std::string* out) {
  for (const Column& c : key_cols) {
    if (c.IsNull(i)) return false;
    size_t k = static_cast<size_t>(i);
    switch (c.kind) {
      case ColumnKind::kInt64:
        PutI64(out, c.i64[k]);
        break;
      case ColumnKind::kDouble:
        PutDoubleKey(out, c.f64[k]);
        break;
      case ColumnKind::kString:
        PutStringKey(out, *c.str[k]);
        break;
      case ColumnKind::kMixed:
        if (!PutValueKey(out, *c.vals[k])) return false;
        break;
    }
  }
  return true;
}

void AppendBatchGroupKey(const std::vector<Column>& key_cols,
                         const std::vector<std::vector<RowId>>& vids,
                         int64_t i, std::string* out) {
  size_t k = static_cast<size_t>(i);
  for (const Column& c : key_cols) {
    if (c.IsNull(i)) {  // NULL is a real group key under identity grouping
      out->push_back('n');
      continue;
    }
    switch (c.kind) {
      case ColumnKind::kInt64:
        PutI64(out, c.i64[k]);
        break;
      case ColumnKind::kDouble:
        PutDoubleKey(out, c.f64[k]);
        break;
      case ColumnKind::kString:
        PutStringKey(out, *c.str[k]);
        break;
      case ColumnKind::kMixed:
        if (!PutValueKey(out, *c.vals[k])) out->push_back('n');
        break;
    }
  }
  out->push_back('#');
  for (const std::vector<RowId>& v : vids) {
    RowId id = v[k];
    PutRaw(out, &id, sizeof id);
  }
}

StatusOr<Relation> ColumnarSelect(const Relation& r, const Predicate& p,
                                  const ExecContext& ctx) {
  CompiledFilter f = CompileFilter(p, r.schema());
  Relation out(r.schema(), r.vschema());
  OperatorStats* st = ctx.stats;
  if (st != nullptr) {
    st->columnar = true;
    st->rows_in += static_cast<uint64_t>(r.NumRows());
  }
  // One pass: gather + filter + copy per batch, while the batch's tuples
  // are still cache-hot. The output is reserved once at the input row
  // count (the tight upper bound): vector<Tuple> regrowth relocates fat
  // inline-payload tuples element-wise, and a deferred second copy pass
  // would re-stream the whole input from DRAM. Untouched reserve slack is
  // virtual address space only, the same worst case as push_back growth.
  out.Reserve(r.NumRows());
  std::vector<Column> cols;
  std::vector<int32_t> sel;
  for (int64_t begin = 0; begin < r.NumRows(); begin += kBatchRows) {
    int64_t end = std::min<int64_t>(begin + kBatchRows, r.NumRows());
    GSOPT_RETURN_IF_ERROR(ctx.Tick("select"));
    GatherColumnsInto(r, f.cols, begin, end, &cols);
    ApplyFilter(f, r, begin, end - begin, cols, &sel);
    if (st != nullptr) {
      ++st->batches;
      // The reference loop evaluates the predicate once per input row.
      st->residual_evals += static_cast<uint64_t>(end - begin);
    }
    for (int32_t i : sel) out.Add(r.row(begin + i));
    if (!sel.empty()) {
      GSOPT_RETURN_IF_ERROR(
          ctx.ChargeRows(static_cast<uint64_t>(sel.size()), "select"));
    }
  }
  if (st != nullptr) st->rows_out += static_cast<uint64_t>(out.NumRows());
  return out;
}

bool ColumnarJoinEligible(const HashPlan& plan, const Schema& sa,
                          const Schema& sb) {
  if (!plan.usable()) return false;
  for (const ScalarPtr& k : plan.a_keys) {
    if (k->kind() != Scalar::Kind::kColumn ||
        sa.Find(k->rel(), k->name()) < 0) {
      return false;
    }
  }
  for (const ScalarPtr& k : plan.b_keys) {
    if (k->kind() != Scalar::Kind::kColumn ||
        sb.Find(k->rel(), k->name()) < 0) {
      return false;
    }
  }
  return true;
}

StatusOr<JoinCoreResult> ColumnarJoinCore(const Relation& a, const Relation& b,
                                          const HashPlan& plan,
                                          const ExecContext& ctx) {
  JoinCoreResult res;
  Schema out_schema = Schema::Concat(a.schema(), b.schema());
  res.out =
      Relation(out_schema, VirtualSchema::Concat(a.vschema(), b.vschema()));
  res.a_matched.assign(static_cast<size_t>(a.NumRows()), 0);
  res.b_matched.assign(static_cast<size_t>(b.NumRows()), 0);
  OperatorStats* st = ctx.stats;
  if (st != nullptr) {
    st->hash_path = true;
    st->columnar = true;
  }

  std::vector<int> a_cols, b_cols;
  for (const ScalarPtr& k : plan.a_keys) {
    a_cols.push_back(a.schema().Find(k->rel(), k->name()));
  }
  for (const ScalarPtr& k : plan.b_keys) {
    b_cols.push_back(b.schema().Find(k->rel(), k->name()));
  }

  uint64_t null_skips_before = st != nullptr ? st->null_key_skips : 0;
  OpMemory mem(ctx);
  // Build-side bloom filter for sideways information passing: charged on
  // its own reservation so a failed charge (cap or injected alloc fault)
  // leaves it disabled without failing the join.
  BloomFilter bloom;
  OpMemory bloom_mem(ctx);
  if (ctx.Bloom(b.NumRows(), a.NumRows()) &&
      bloom_mem.Charge(BloomFilter::BytesFor(b.NumRows()), "join").ok()) {
    bloom.Init(b.NumRows());
  }
  std::vector<KeyArena> arenas(1);
  std::vector<JoinHashTable::Entry> entries;
  std::string key;
  std::vector<Column> kcols;

  // Build over b, one key-column gather and one memory charge per batch.
  // The charge total is byte-identical to the reference path's per-row
  // charges (same monotone sum), so the memory cap trips at the same
  // budget state; only the trip granularity is coarser.
  for (int64_t begin = 0; begin < b.NumRows(); begin += kBatchRows) {
    int64_t end = std::min<int64_t>(begin + kBatchRows, b.NumRows());
    GSOPT_RETURN_IF_ERROR(ctx.Tick("join"));
    GatherColumnsInto(b, b_cols, begin, end, &kcols);
    if (st != nullptr) ++st->batches;
    uint64_t batch_bytes = 0;
    for (int64_t i = 0; i < end - begin; ++i) {
      key.clear();
      if (!AppendBatchKey(kcols, i, &key)) {
        if (st != nullptr) ++st->null_key_skips;
        continue;
      }
      uint64_t h = HashKeyBytes(key);
      if (bloom.enabled()) bloom.Insert(h);
      uint64_t off = arenas[0].Append(key);
      entries.push_back(JoinHashTable::Entry{
          h, off, static_cast<uint32_t>(key.size()), 0, begin + i, -1});
      batch_bytes +=
          ApproxTupleBytes(b.row(begin + i)) + 64 + key.size();
    }
    Status cs = mem.Charge(batch_bytes, "join");
    if (!cs.ok()) {
      // Build state does not fit (or an alloc fault fired): degrade to the
      // out-of-core grace join exactly like the reference kernel.
      if (!ctx.SpillEnabled()) return cs;
      mem.Release();
      entries.clear();
      if (st != nullptr) st->null_key_skips = null_skips_before;
      auto spilled = SpillJoinCore(a, b, plan, ctx);
      if (spilled.ok() && st != nullptr) {
        st->rows_in += static_cast<uint64_t>(a.NumRows()) +
                       static_cast<uint64_t>(b.NumRows());
      }
      return spilled;
    }
  }

  uint64_t built = entries.size();
  JoinHashTable table;
  table.Build(std::move(entries), arenas);
  if (st != nullptr) {
    st->build_rows += built;
    st->max_bucket = std::max<uint64_t>(st->max_bucket, table.max_chain());
  }
  constexpr uint64_t kMaxReserve = 1u << 20;
  uint64_t mean_bucket =
      built == 0 ? 0
                 : std::max<uint64_t>(
                       1, built / std::max<uint64_t>(1, table.distinct_keys()));
  if (built > 0 && !bloom.enabled()) {
    // Same clamped mean-bucket output reservation as the reference path.
    // With the filter active this estimate over-sizes badly (most probes
    // are rejected before they can match), so the reservation moves into
    // the probe loop below and is scaled per batch by the filter pass
    // count.
    uint64_t expected = static_cast<uint64_t>(a.NumRows()) * mean_bucket;
    res.out.Reserve(static_cast<int64_t>(std::min(expected, kMaxReserve)));
  }

  Predicate residual(plan.residual);
  bool has_residual = !plan.residual.empty();
  // With no fault injector and no budget, Tick and ChargeRows are
  // statically no-ops; hoisting that check out of the duplicate-chain walk
  // keeps the per-pair loop free of dead policy probes.
  const bool idle = ctx.fault == nullptr && ctx.budget == nullptr;
  std::vector<Column> pcols;
  // Walks entry e's duplicate chain, emitting matches for probe row gi.
  auto walk_chain = [&](int64_t gi, int32_t e) -> Status {
    for (; e >= 0; e = table.entry(e).next) {
      // Tick inside the duplicate chain, like the reference path: a
      // skewed key must not run deadline-blind. (Skipped when no policy
      // is attached -- both calls are no-ops then.)
      if (!idle) GSOPT_RETURN_IF_ERROR(ctx.Tick("join"));
      int64_t j = table.entry(e).row;
      // Duplicate chains jump across the build side; start pulling the
      // next match's row while this one is being copied out.
      int32_t e_next = table.entry(e).next;
      if (e_next >= 0) Prefetch(&b.row(table.entry(e_next).row));
      if (st != nullptr) ++st->residual_evals;
      if (!has_residual) {
        // No residual: build the output row in place, skipping the
        // intermediate concat tuple entirely.
        res.a_matched[static_cast<size_t>(gi)] = 1;
        res.b_matched[static_cast<size_t>(j)] = 1;
        res.out.AddConcat(a.row(gi), b.row(j));
        if (!idle) GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "join"));
        continue;
      }
      Tuple t = Tuple::Concat(a.row(gi), b.row(j));
      if (residual.Satisfied(t, out_schema)) {
        res.a_matched[static_cast<size_t>(gi)] = 1;
        res.b_matched[static_cast<size_t>(j)] = 1;
        res.out.Add(std::move(t));
        GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "join"));
      }
    }
    return Status::OK();
  };
  std::vector<int32_t> bsel;    // batch rows surviving the filter pass
  std::vector<uint64_t> bhash;  // their key hashes, reused by Find
  uint64_t bchecks = 0, brejects = 0, bfp = 0;
  bool bloom_reserved = false;
  // Cleared at the first-batch calibration point when the observed reject
  // rate says the filter pass costs more than it saves (kAuto only).
  bool bloom_live = bloom.enabled();
  for (int64_t begin = 0; begin < a.NumRows(); begin += kBatchRows) {
    int64_t end = std::min<int64_t>(begin + kBatchRows, a.NumRows());
    GSOPT_RETURN_IF_ERROR(ctx.Tick("join"));
    GatherColumnsInto(a, a_cols, begin, end, &pcols);
    if (st != nullptr) ++st->batches;
    if (bloom_live) {
      // Filter pass: a streaming hash plus one filter probe per row
      // refines the batch's selection before any key bytes are
      // materialized -- rejected rows never build their key string.
      bsel.clear();
      bhash.clear();
      uint64_t batch_checks = 0;
      for (int64_t i = 0; i < end - begin; ++i) {
        uint64_t h = 0;
        if (!HashBatchKeyRow(pcols, i, &h)) {
          if (st != nullptr) ++st->null_key_skips;
          continue;
        }
        ++batch_checks;
        if (!bloom.MayContain(h)) {
          ++brejects;
          continue;
        }
        bsel.push_back(static_cast<int32_t>(i));
        bhash.push_back(h);
      }
      bchecks += batch_checks;
      if (st != nullptr) st->probe_rows += batch_checks;
      // Reserve once, from the first batch's observed pass rate
      // extrapolated over the whole probe side. Re-reserving per batch
      // would reallocate the fat-tuple vector every batch (reserve() to
      // an exact growing target defeats geometric growth); after this
      // one estimate, ordinary push_back growth takes over.
      // Calibration: once enough probes have been checked, disarm the
      // filter for the remaining batches when it is not rejecting enough
      // of them to pay for itself.
      if (ctx.bloom == BloomMode::kAuto &&
          bchecks >= kBloomCalibrateChecks &&
          !BloomStillWinning(bchecks, brejects)) {
        bloom_live = false;
      }
      if (!bloom_reserved && bchecks > 0 && mean_bucket > 0) {
        bloom_reserved = true;
        // Disarmed joins get the full off-path estimate; engaged ones
        // scale it by the observed pass rate plus a 1/8 pad (an
        // exact-fit reserve that undershoots by one row forces a
        // whole-vector regrowth at the very end).
        uint64_t pass =
            bloom_live ? bchecks - brejects + bchecks / 8 : bchecks;
        uint64_t expected = static_cast<uint64_t>(a.NumRows()) *
                            mean_bucket * std::min(pass, bchecks) / bchecks;
        res.out.Reserve(
            static_cast<int64_t>(std::min(expected, kMaxReserve)));
      } else if (bloom_reserved && !bloom_live && mean_bucket > 0) {
        // Just disarmed after the sized-while-engaged reserve: regrow
        // once to the off-path estimate instead of paying geometric
        // regrowth on the now-unfiltered output.
        uint64_t expected =
            static_cast<uint64_t>(a.NumRows()) * mean_bucket;
        res.out.Reserve(
            static_cast<int64_t>(std::min(expected, kMaxReserve)));
      }
      for (size_t k = 0; k < bsel.size(); ++k) {
        int64_t i = bsel[k];
        key.clear();
        AppendBatchKey(pcols, i, &key);  // non-NULL: hashed above
        int32_t e = table.Find(bhash[k], key.data(),
                               static_cast<uint32_t>(key.size()), arenas);
        if (e < 0) ++bfp;
        GSOPT_RETURN_IF_ERROR(walk_chain(begin + i, e));
      }
      continue;
    }
    for (int64_t i = 0; i < end - begin; ++i) {
      key.clear();
      if (!AppendBatchKey(pcols, i, &key)) {
        if (st != nullptr) ++st->null_key_skips;
        continue;
      }
      if (st != nullptr) ++st->probe_rows;
      int32_t e = table.Find(HashKeyBytes(key), key.data(),
                             static_cast<uint32_t>(key.size()), arenas);
      GSOPT_RETURN_IF_ERROR(walk_chain(begin + i, e));
    }
  }
  if (st != nullptr && bchecks > 0) {
    st->bloom = true;
    st->bloom_checks += bchecks;
    st->bloom_rejects += brejects;
    st->bloom_false_positives += bfp;
  }
  if (st != nullptr) {
    st->rows_in += static_cast<uint64_t>(a.NumRows()) +
                   static_cast<uint64_t>(b.NumRows());
  }
  return res;
}

}  // namespace gsopt::exec::internal
