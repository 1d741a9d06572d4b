// The external sort operator and its ordering contract: comparator
// properties (NULL lowest, exact int/double unification past 2^53, NaN
// rules, key-class refinement), stability, multi-key ASC/DESC, spilled
// runs with bounded fan-in (temp files gone, ledger unwound), injected
// ENOSPC / short-write degradation to typed errors, the merge-join /
// sorted-aggregation paths against their hash twins, and a differential
// run of Sort against a naive copy-and-stable-sort reference.
#include "exec/sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/fault_injector.h"
#include "base/rng.h"
#include "base/spill_file.h"
#include "exec/aggregate.h"
#include "exec/eval.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

using exec::CheckSorted;
using exec::CompareValuesKeyClass;
using exec::CompareValuesTotal;
using exec::ExecContext;
using exec::JoinStrategy;
using exec::OperatorStats;
using exec::SortKey;
using exec::SortSpec;
using exec::SpillConfig;

Value I(int64_t v) { return Value::Int(v); }
Value D(double v) { return Value::Double(v); }
Value S(const char* v) { return Value::String(v); }
Value N() { return Value::Null(); }

SortSpec Asc(const std::string& rel, const std::string& col) {
  return {SortKey{Attribute{rel, col}, false}};
}

constexpr int64_t kTwo53 = 9007199254740992;  // 2^53

TEST(CompareValuesTotalTest, NullIsLowest) {
  EXPECT_LT(CompareValuesTotal(N(), I(-100)), 0);
  EXPECT_LT(CompareValuesTotal(N(), D(-1e300)), 0);
  EXPECT_LT(CompareValuesTotal(N(), S("")), 0);
  EXPECT_EQ(CompareValuesTotal(N(), N()), 0);
}

TEST(CompareValuesTotalTest, IntDoubleUnified) {
  EXPECT_EQ(CompareValuesTotal(I(1), D(1.0)), 0);
  EXPECT_LT(CompareValuesTotal(I(1), D(1.5)), 0);
  EXPECT_GT(CompareValuesTotal(I(2), D(1.5)), 0);
  EXPECT_LT(CompareValuesTotal(D(1.5), I(2)), 0);
}

TEST(CompareValuesTotalTest, ExactPastTwo53) {
  // int(2^53 + 1) casts to double as 2^53; the exact comparator must still
  // order it strictly after both int(2^53) and double(2^53).
  EXPECT_GT(CompareValuesTotal(I(kTwo53 + 1), D(static_cast<double>(kTwo53))),
            0);
  EXPECT_LT(CompareValuesTotal(D(static_cast<double>(kTwo53)), I(kTwo53 + 1)),
            0);
  EXPECT_EQ(CompareValuesTotal(I(kTwo53), D(static_cast<double>(kTwo53))), 0);
  // Huge doubles clear every int64.
  EXPECT_LT(CompareValuesTotal(I(INT64_MAX), D(1e300)), 0);
  EXPECT_GT(CompareValuesTotal(I(INT64_MIN), D(-1e300)), 0);
}

TEST(CompareValuesTotalTest, NanGreatestNumberAndEqualsItself) {
  Value nan = D(std::nan(""));
  EXPECT_GT(CompareValuesTotal(nan, D(1e300)), 0);
  EXPECT_GT(CompareValuesTotal(nan, I(INT64_MAX)), 0);
  EXPECT_EQ(CompareValuesTotal(nan, nan), 0);
  // ...but every number, NaN included, orders before every string.
  EXPECT_LT(CompareValuesTotal(nan, S("")), 0);
}

TEST(CompareValuesKeyClassTest, RefinesOnlyTheInexactCorner) {
  // Within the exact range the key classes are the magnitude classes.
  EXPECT_EQ(CompareValuesKeyClass(I(5), D(5.0)), 0);
  EXPECT_EQ(CompareValuesKeyClass(I(kTwo53), D(static_cast<double>(kTwo53))),
            0);
  // Past 2^53 an int64 and a magnitude-equal double encode to distinct
  // hash keys, so the key-class order must separate them (either way, but
  // consistently).
  const int64_t two54 = kTwo53 * 2;
  int c = CompareValuesKeyClass(I(two54), D(static_cast<double>(two54)));
  EXPECT_NE(c, 0);
  EXPECT_EQ(CompareValuesKeyClass(D(static_cast<double>(two54)), I(two54)),
            -c);
  // The refinement never contradicts the total order.
  EXPECT_EQ(CompareValuesTotal(I(two54), D(static_cast<double>(two54))), 0);
}

TEST(CompareValuesKeyClassTest, SameTypeEqualityIsValueEquality) {
  // -0.0 and 0.0 share one key (AppendValueKey folds -0.0), as does every
  // NaN; an equal int or string pair is one class too.
  EXPECT_EQ(CompareValuesKeyClass(D(-0.0), D(0.0)), 0);
  EXPECT_EQ(CompareValuesKeyClass(D(0.0), I(0)), 0);
  EXPECT_EQ(CompareValuesKeyClass(D(std::nan("")), D(-std::nan(""))), 0);
  EXPECT_EQ(CompareValuesKeyClass(I(kTwo53 + 1), I(kTwo53 + 1)), 0);
  EXPECT_EQ(CompareValuesKeyClass(S("same"), S("same")), 0);
  EXPECT_EQ(CompareValuesKeyClass(N(), N()), 0);
  // Past 2^53 adjacent ints stay distinct and ordered by value.
  EXPECT_LT(CompareValuesKeyClass(I(kTwo53 + 1), I(kTwo53 + 2)), 0);
  EXPECT_GT(CompareValuesKeyClass(I(-kTwo53 - 1), I(-kTwo53 - 2)), 0);
  // An int past 2^53 and a double of the same value are two classes.
  const int64_t two54 = kTwo53 * 2;
  EXPECT_NE(CompareValuesKeyClass(I(-two54), D(-static_cast<double>(two54))),
            0);
}

TEST(SortTest, MultiKeyDirectionsAndNullPlacement) {
  Relation r = MakeRelation("r", {"a", "b"},
                            {{I(2), I(1)},
                             {N(), I(9)},
                             {I(1), N()},
                             {I(1), I(5)},
                             {I(2), I(0)}});
  SortSpec spec = {SortKey{Attribute{"r", "a"}, false},
                   SortKey{Attribute{"r", "b"}, true}};
  Relation out = *exec::Sort(r, spec);
  ASSERT_EQ(out.NumRows(), 5);
  EXPECT_TRUE(CheckSorted(out, spec).ok());
  // NULLs are lowest: first under ASC on a; last under DESC on b.
  EXPECT_TRUE(out.row(0).values[0].is_null());
  EXPECT_EQ(out.row(1).values[0].AsInt(), 1);
  EXPECT_EQ(out.row(1).values[1].AsInt(), 5);  // DESC: 5 before NULL
  EXPECT_TRUE(out.row(2).values[1].is_null());
  EXPECT_EQ(out.row(3).values[1].AsInt(), 1);  // a=2: DESC b -> 1, 0
  EXPECT_EQ(out.row(4).values[1].AsInt(), 0);
}

TEST(SortTest, StableOnEqualKeys) {
  // Equal sort keys keep input order: b is a serial number.
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 50; ++i) rows.push_back({I(i % 3), I(i)});
  Relation r = MakeRelation("r", {"a", "b"}, rows);
  Relation out = *exec::Sort(r, Asc("r", "a"));
  int64_t prev_a = -1, prev_b = -1;
  for (int64_t i = 0; i < out.NumRows(); ++i) {
    int64_t a = out.row(i).values[0].AsInt();
    int64_t b = out.row(i).values[1].AsInt();
    if (a == prev_a) EXPECT_GT(b, prev_b) << "stability broken at row " << i;
    prev_a = a;
    prev_b = b;
  }
}

TEST(SortTest, MissingAttributeIsInvalidArgument) {
  Relation r = MakeRelation("r", {"a"}, {{I(1)}});
  auto out = exec::Sort(r, Asc("r", "zz"));
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckSortedTest, ReportsFirstViolation) {
  Relation r = MakeRelation("r", {"a"}, {{I(1)}, {I(3)}, {I(2)}});
  Status s = CheckSorted(r, Asc("r", "a"));
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("1..2"), std::string::npos) << s.ToString();
  EXPECT_TRUE(CheckSorted(r, {SortKey{Attribute{"r", "a"}, true}}).code() ==
              StatusCode::kInternal);
}

Relation BigTable(uint64_t seed, int rows) {
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = rows;
  opt.domain = 50;
  opt.null_fraction = 0.15;
  return MakeRandomRelation("r1", {"a", "b", "c"}, opt, &rng);
}

TEST(ExternalSortTest, SpilledRunsMatchInMemoryAndCleanUp) {
  Relation r = BigTable(7, 600);
  SortSpec spec = {SortKey{Attribute{"r1", "a"}, false},
                   SortKey{Attribute{"r1", "b"}, true}};
  Relation reference = *exec::Sort(r, spec);

  ResourceBudget budget;
  budget.WithMaxMemory(4 * 1024);
  SpillConfig cfg;
  cfg.enabled = true;
  OperatorStats stats;
  ExecContext ctx;
  ctx.budget = &budget;
  ctx.stats = &stats;
  ctx.spill = &cfg;
  auto spilled = exec::Sort(r, spec, ctx);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_GT(stats.sort_runs, 1u) << "cap never tripped; test is vacuous";
  EXPECT_TRUE(stats.spilled);
  EXPECT_GT(stats.spill_bytes_written, 0u);
  EXPECT_EQ(SpillFile::LiveCount(), 0u);
  EXPECT_EQ(budget.memory_charged(), 0u);
  EXPECT_TRUE(CheckSorted(*spilled, spec).ok());
  // Same rows in the same order, not just the same bag: the external path
  // keeps the stability tie-break through run files.
  ASSERT_EQ(spilled->NumRows(), reference.NumRows());
  for (int64_t i = 0; i < reference.NumRows(); ++i) {
    for (size_t c = 0; c < reference.row(i).values.size(); ++c) {
      EXPECT_TRUE(Value::IdentityEquals(reference.row(i).values[c],
                                        spilled->row(i).values[c]))
          << "row " << i << " col " << c;
    }
  }
}

TEST(ExternalSortTest, ManyRunsTakeExtraMergePasses) {
  Relation r = BigTable(8, 1500);
  ResourceBudget budget;
  budget.WithMaxMemory(1024);  // tiny: dozens of runs, fan-in 8 forces passes
  SpillConfig cfg;
  cfg.enabled = true;
  OperatorStats stats;
  ExecContext ctx;
  ctx.budget = &budget;
  ctx.stats = &stats;
  ctx.spill = &cfg;
  auto out = exec::Sort(r, Asc("r1", "a"), ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(stats.sort_runs, 8u);
  EXPECT_GE(stats.sort_merge_passes, 1u);
  EXPECT_EQ(SpillFile::LiveCount(), 0u);
  EXPECT_TRUE(CheckSorted(*out, Asc("r1", "a")).ok());
}

TEST(ExternalSortTest, MemoryTripWithoutSpillingIsResourceExhausted) {
  Relation r = BigTable(9, 400);
  ResourceBudget budget;
  budget.WithMaxMemory(2 * 1024);
  ExecContext ctx;
  ctx.budget = &budget;  // no SpillConfig: the trip must surface
  auto out = exec::Sort(r, Asc("r1", "a"), ctx);
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.memory_charged(), 0u);
}

TEST(ExternalSortTest, InjectedSpillFaultsDegradeToTypedErrors) {
  Relation r = BigTable(10, 600);
  int clean = 0, failed = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    FaultInjector::Options fo;
    fo.seed = seed;
    fo.period = 4;
    fo.site_mask = FaultInjector::MaskOf(
        {FaultSite::kSpillOpen, FaultSite::kSpillWrite, FaultSite::kSpillRead});
    FaultInjector fault(fo);
    ResourceBudget budget;
    budget.WithMaxMemory(4 * 1024);
    SpillConfig cfg;
    cfg.enabled = true;
    ExecContext ctx;
    ctx.budget = &budget;
    ctx.spill = &cfg;
    ctx.fault = &fault;
    auto out = exec::Sort(r, Asc("r1", "a"), ctx);
    if (out.ok()) {
      ++clean;
      EXPECT_TRUE(CheckSorted(*out, Asc("r1", "a")).ok());
    } else {
      ++failed;
      EXPECT_TRUE(out.status().code() == StatusCode::kResourceExhausted ||
                  out.status().code() == StatusCode::kUnavailable)
          << out.status().ToString();
    }
    EXPECT_EQ(SpillFile::LiveCount(), 0u) << "seed " << seed;
    EXPECT_EQ(budget.memory_charged(), 0u) << "seed " << seed;
  }
  EXPECT_GT(failed, 0) << "no injected fault ever fired; test is vacuous";
}

// --- merge join vs hash join ---

Relation JoinSideA(uint64_t seed) {
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = 120;
  opt.domain = 12;
  opt.null_fraction = 0.2;
  return MakeRandomRelation("r1", {"a", "b"}, opt, &rng);
}
Relation JoinSideB(uint64_t seed) {
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = 140;
  opt.domain = 12;
  opt.null_fraction = 0.2;
  return MakeRandomRelation("r2", {"a", "b"}, opt, &rng);
}

TEST(MergeJoinTest, BagEqualsHashJoinWithNullsAndResidual) {
  Relation a = JoinSideA(31);
  Relation b = JoinSideB(32);
  Predicate p({MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"),
               MakeAtom("r1", "b", CmpOp::kLt, "r2", "b")});
  ExecContext hash_ctx;
  hash_ctx.join = JoinStrategy::kHashOnly;
  Relation hash = *exec::InnerJoin(a, b, p, hash_ctx);

  OperatorStats stats;
  ExecContext merge_ctx;
  merge_ctx.join = JoinStrategy::kMergeOnly;
  merge_ctx.stats = &stats;
  Relation merge = *exec::InnerJoin(a, b, p, merge_ctx);
  EXPECT_TRUE(stats.merge_path);
  EXPECT_TRUE(Relation::BagEquals(hash, merge));
}

TEST(MergeJoinTest, MixedIntDoubleKeysMatchHashKeyClasses) {
  // Keys mixing ints, magnitude-equal doubles, fractions and NULLs: the
  // merge join's equality partition must be AppendValueKey's, not the
  // coarser magnitude partition.
  Relation a = MakeRelation(
      "r1", {"a"},
      {{I(1)}, {D(1.0)}, {D(1.5)}, {I(kTwo53 * 2)},
       {D(static_cast<double>(kTwo53 * 2))}, {N()}, {D(std::nan(""))}});
  Relation b = MakeRelation(
      "r2", {"a"},
      {{D(1.0)}, {I(1)}, {I(kTwo53 * 2)},
       {D(static_cast<double>(kTwo53 * 2))}, {N()}, {D(std::nan(""))}});
  Predicate p(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"));
  ExecContext hash_ctx;
  hash_ctx.join = JoinStrategy::kHashOnly;
  ExecContext merge_ctx;
  merge_ctx.join = JoinStrategy::kMergeOnly;
  Relation hash = *exec::InnerJoin(a, b, p, hash_ctx);
  Relation merge = *exec::InnerJoin(a, b, p, merge_ctx);
  EXPECT_TRUE(Relation::BagEquals(hash, merge));
  EXPECT_GT(merge.NumRows(), 0);
}

TEST(MergeJoinTest, OuterJoinPaddingMatchesHash) {
  Relation a = JoinSideA(41);
  Relation b = JoinSideB(42);
  Predicate p(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"));
  for (auto flavor : {0, 1, 2}) {
    auto run = [&](JoinStrategy js) {
      ExecContext ctx;
      ctx.join = js;
      switch (flavor) {
        case 0: return exec::LeftOuterJoin(a, b, p, ctx);
        case 1: return exec::RightOuterJoin(a, b, p, ctx);
        default: return exec::FullOuterJoin(a, b, p, ctx);
      }
    };
    Relation hash = *run(JoinStrategy::kHashOnly);
    Relation merge = *run(JoinStrategy::kMergeOnly);
    EXPECT_TRUE(Relation::BagEquals(hash, merge)) << "flavor " << flavor;
  }
}

TEST(MergeJoinTest, SpilledMergeMatchesHash) {
  Relation a = JoinSideA(51);
  Relation b = JoinSideB(52);
  Predicate p(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"));
  ExecContext hash_ctx;
  hash_ctx.join = JoinStrategy::kHashOnly;
  Relation hash = *exec::InnerJoin(a, b, p, hash_ctx);

  // 8KB: small enough that each side's sort staging (~12KB) spills into
  // runs, large enough that the per-key equality blocks (~1KB per side at
  // domain 12) fit -- block staging has no spill degradation by design.
  ResourceBudget budget;
  budget.WithMaxMemory(8 * 1024);
  SpillConfig cfg;
  cfg.enabled = true;
  OperatorStats stats;
  ExecContext ctx;
  ctx.join = JoinStrategy::kMergeOnly;
  ctx.budget = &budget;
  ctx.spill = &cfg;
  ctx.stats = &stats;
  auto merge = exec::InnerJoin(a, b, p, ctx);
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  EXPECT_TRUE(stats.spilled);
  EXPECT_GT(stats.sort_runs, 0u);
  EXPECT_EQ(SpillFile::LiveCount(), 0u);
  EXPECT_EQ(budget.memory_charged(), 0u);
  EXPECT_TRUE(Relation::BagEquals(hash, *merge));
}

// --- differential: the kernels against deliberately naive references ---

// A value from a pool that stresses the ordering contract: NULLs, heavily
// duplicated small ints, doubles equal to them (-0.0 included), fractions,
// NaN, ints and doubles around and past 2^53, and strings that tie on
// their first seven bytes or differ only by a trailing NUL.
Value OddValue(Rng* rng) {
  switch (rng->Uniform(0, 11)) {
    case 0:
      return N();
    case 1:
    case 2:
    case 3:
      return I(rng->Uniform(-3, 3));
    case 4:
      return D(static_cast<double>(rng->Uniform(-3, 3)));
    case 5:
      return D(rng->Uniform(0, 1) != 0 ? -0.0 : 0.5 * rng->Uniform(-5, 5));
    case 6:
      return D(rng->Uniform(0, 1) != 0 ? std::nan("") : -std::nan(""));
    case 7:
      return I(kTwo53 * rng->Uniform(1, 2) + rng->Uniform(-2, 2));
    case 8:
      return D(static_cast<double>(kTwo53 * rng->Uniform(1, 2)));
    case 9:
      return I(-kTwo53 * 2 + rng->Uniform(-1, 1));
    default: {
      static const std::string kStrings[] = {
          "",         "a",         std::string("a\0", 2), "abcdefg",
          "abcdefgh", "abcdefgz",  "abcdefgh1",           "b"};
      return Value::String(kStrings[rng->Uniform(0, 7)]);
    }
  }
}

Relation OddRelation(const std::string& name, uint64_t seed, int rows) {
  Rng rng(seed);
  std::vector<std::vector<Value>> data;
  for (int i = 0; i < rows; ++i) {
    data.push_back({OddValue(&rng), OddValue(&rng), OddValue(&rng)});
  }
  return MakeRelation(name, {"a", "b", "c"}, data);
}

// The naive reference: copy the rows, then stable-sort the copies with
// the contract's comparator.
Relation ReferenceSort(const Relation& r, const SortSpec& spec) {
  std::vector<Tuple> rows = r.rows();
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const Tuple& x, const Tuple& y) {
                     for (const SortKey& k : spec) {
                       int i = r.schema().Find(k.attr.rel, k.attr.name);
                       int c = CompareValuesTotal(x.values[i], y.values[i]);
                       if (k.desc) c = -c;
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });
  Relation out(r.schema(), r.vschema());
  for (Tuple& t : rows) out.Add(std::move(t));
  return out;
}

bool SameBytes(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return a.AsInt() == b.AsInt();
    case ValueType::kDouble: {
      double x = a.AsDouble(), y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof x) == 0;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

// The same rows in the same order, bit for bit: value types, payloads
// (doubles by their bits, so -0.0 and NaN signs count) and row ids.
::testing::AssertionResult RowsIdentical(const Relation& a,
                                         const Relation& b) {
  if (a.NumRows() != b.NumRows()) {
    return ::testing::AssertionFailure()
           << a.NumRows() << " rows vs " << b.NumRows();
  }
  for (int64_t i = 0; i < a.NumRows(); ++i) {
    const Tuple& x = a.row(i);
    const Tuple& y = b.row(i);
    bool same = x.values.size() == y.values.size() &&
                x.vids.size() == y.vids.size();
    for (size_t c = 0; same && c < x.values.size(); ++c) {
      same = SameBytes(x.values[c], y.values[c]);
    }
    for (size_t c = 0; same && c < x.vids.size(); ++c) {
      same = x.vids[c] == y.vids[c];
    }
    if (!same) return ::testing::AssertionFailure() << "row " << i << " differs";
  }
  return ::testing::AssertionSuccess();
}

std::vector<SortSpec> OddSpecs() {
  auto key = [](const char* col, bool desc) {
    return SortKey{Attribute{"r1", col}, desc};
  };
  return {{key("a", false)},
          {key("a", true)},
          {key("b", true), key("a", false)},
          {key("c", false), key("a", true), key("b", true)}};
}

TEST(DifferentialSortTest, MatchesNaiveReferenceInMemoryAndSpilled) {
  uint64_t spilled_sorts = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Relation r = OddRelation("r1", seed, 150 + 20 * static_cast<int>(seed));
    for (const SortSpec& spec : OddSpecs()) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " by " +
                   exec::SortSpecToString(spec));
      Relation reference = ReferenceSort(r, spec);
      auto in_memory = exec::Sort(r, spec);
      ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
      EXPECT_TRUE(RowsIdentical(reference, *in_memory));

      ResourceBudget budget;
      budget.WithMaxMemory(4 * 1024);
      SpillConfig cfg;
      cfg.enabled = true;
      OperatorStats stats;
      ExecContext ctx;
      ctx.budget = &budget;
      ctx.spill = &cfg;
      ctx.stats = &stats;
      auto spilled = exec::Sort(r, spec, ctx);
      ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
      EXPECT_TRUE(RowsIdentical(reference, *spilled));
      EXPECT_EQ(SpillFile::LiveCount(), 0u);
      EXPECT_EQ(budget.memory_charged(), 0u);
      if (stats.sort_runs > 1) ++spilled_sorts;
    }
  }
  EXPECT_EQ(spilled_sorts, 12u * OddSpecs().size())
      << "the cap did not force spilled runs on every sort";
}

TEST(DifferentialSortTest, InputIsByteIdenticalAfterSort) {
  Relation r = OddRelation("r1", 99, 300);
  const Relation before = r;
  for (const SortSpec& spec : OddSpecs()) {
    ASSERT_TRUE(exec::Sort(r, spec).ok());
    ResourceBudget budget;
    budget.WithMaxMemory(4 * 1024);
    SpillConfig cfg;
    cfg.enabled = true;
    ExecContext ctx;
    ctx.budget = &budget;
    ctx.spill = &cfg;
    ASSERT_TRUE(exec::Sort(r, spec, ctx).ok());
  }
  EXPECT_TRUE(RowsIdentical(before, r));
}

// The multiset of (r1 row id, r2 row id) pairs a join produced: equal bags
// mean the same matches and the same padded rows (kNullRowId on padding).
// Relation::BagEquals cannot judge this pool: its IdentityLess compares an
// int and a double through a double cast, which is not a strict weak
// ordering past 2^53.
std::vector<std::vector<RowId>> RowIdBag(const Relation& r) {
  std::vector<std::vector<RowId>> bag;
  for (const Tuple& t : r.rows()) {
    bag.emplace_back(t.vids.begin(), t.vids.end());
  }
  std::sort(bag.begin(), bag.end());
  return bag;
}

// Merge join against the hash join on the odd value pool: single, double,
// residual-carrying and evaluated (2 * r2.b) keys; every join flavour, so
// the LOJ/ROJ/FOJ padding checks the merge path's matched flags; in memory
// and under a cap that spills both sides' sorts.
TEST(DifferentialSortTest, MergeJoinMatchesHashJoinOnOddKeys) {
  Atom doubled;
  doubled.lhs = Scalar::Column("r1", "a");
  doubled.op = CmpOp::kEq;
  doubled.rhs =
      Scalar::Arith(ArithOp::kMul, Scalar::Const(I(2)), Scalar::Column("r2", "b"));
  const std::vector<Predicate> preds = {
      Predicate(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a")),
      Predicate({MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"),
                 MakeAtom("r1", "b", CmpOp::kEq, "r2", "c")}),
      Predicate({MakeAtom("r1", "a", CmpOp::kEq, "r2", "b"),
                 MakeAtom("r1", "c", CmpOp::kLt, "r2", "c")}),
      Predicate(doubled)};
  bool spilled = false;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Relation a = OddRelation("r1", 100 + seed, 150);
    Relation b = OddRelation("r2", 200 + seed, 170);
    for (size_t pi = 0; pi < preds.size(); ++pi) {
      for (int flavor = 0; flavor < 4; ++flavor) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " pred " +
                     std::to_string(pi) + " flavor " + std::to_string(flavor));
        auto run = [&](ExecContext ctx) {
          switch (flavor) {
            case 0: return exec::InnerJoin(a, b, preds[pi], ctx);
            case 1: return exec::LeftOuterJoin(a, b, preds[pi], ctx);
            case 2: return exec::RightOuterJoin(a, b, preds[pi], ctx);
            default: return exec::FullOuterJoin(a, b, preds[pi], ctx);
          }
        };
        ExecContext hash_ctx;
        hash_ctx.join = JoinStrategy::kHashOnly;
        auto hash = run(hash_ctx);
        ASSERT_TRUE(hash.ok()) << hash.status().ToString();

        OperatorStats stats;
        ExecContext merge_ctx;
        merge_ctx.join = JoinStrategy::kMergeOnly;
        merge_ctx.stats = &stats;
        auto merge = run(merge_ctx);
        ASSERT_TRUE(merge.ok()) << merge.status().ToString();
        EXPECT_TRUE(stats.merge_path);
        EXPECT_EQ(RowIdBag(*hash), RowIdBag(*merge));

        ResourceBudget budget;
        budget.WithMaxMemory(24 * 1024);
        SpillConfig cfg;
        cfg.enabled = true;
        OperatorStats spill_stats;
        ExecContext spill_ctx = merge_ctx;
        spill_ctx.budget = &budget;
        spill_ctx.spill = &cfg;
        spill_ctx.stats = &spill_stats;
        auto capped = run(spill_ctx);
        ASSERT_TRUE(capped.ok()) << capped.status().ToString();
        EXPECT_EQ(RowIdBag(*hash), RowIdBag(*capped));
        EXPECT_EQ(SpillFile::LiveCount(), 0u);
        EXPECT_EQ(budget.memory_charged(), 0u);
        spilled = spilled || spill_stats.sort_runs > 1;
      }
    }
  }
  EXPECT_TRUE(spilled) << "the cap never spilled a merge join's sort";
}

// --- sorted aggregation vs hash aggregation ---

TEST(SortedAggregationTest, MatchesHashGrouping) {
  Relation r = BigTable(61, 300);
  exec::GroupBySpec spec;
  spec.group_cols.push_back(Attribute{"r1", "a"});
  exec::AggSpec agg;
  agg.func = exec::AggFunc::kSum;
  agg.input = Scalar::Column("r1", "b");
  agg.out_rel = "v";
  agg.out_name = "agg";
  spec.aggs.push_back(agg);

  ExecContext hash_ctx;
  hash_ctx.join = JoinStrategy::kHashOnly;
  Relation hash = *exec::GeneralizedProjection(r, spec, hash_ctx);

  ExecContext sorted_ctx;
  sorted_ctx.join = JoinStrategy::kMergeOnly;
  Relation sorted = *exec::GeneralizedProjection(r, spec, sorted_ctx);
  EXPECT_TRUE(Relation::BagEquals(hash, sorted));
}

TEST(SortedAggregationTest, DistinctAggMatchesHash) {
  Relation r = BigTable(62, 300);
  exec::GroupBySpec spec;
  spec.group_cols.push_back(Attribute{"r1", "a"});
  exec::AggSpec agg;
  agg.func = exec::AggFunc::kCount;
  agg.distinct = true;
  agg.input = Scalar::Column("r1", "c");
  agg.out_rel = "v";
  agg.out_name = "agg";
  spec.aggs.push_back(agg);

  ExecContext hash_ctx;
  hash_ctx.join = JoinStrategy::kHashOnly;
  Relation hash = *exec::GeneralizedProjection(r, spec, hash_ctx);
  ExecContext sorted_ctx;
  sorted_ctx.join = JoinStrategy::kMergeOnly;
  Relation sorted = *exec::GeneralizedProjection(r, spec, sorted_ctx);
  EXPECT_TRUE(Relation::BagEquals(hash, sorted));
}

}  // namespace
}  // namespace gsopt
