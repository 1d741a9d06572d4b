// Unit tests for the normalization wrapper calculus: selection and GS
// hoisting across each operator role, filter pushdown to base-relation
// scans, group-by crossing (preserved and null-supplied sides), opaque-unit
// fallbacks -- each rule checked for semantic preservation by execution.
#include "algebra/normalize.h"

#include <thread>

#include <gtest/gtest.h>

#include "algebra/execute.h"
#include "algebra/schema_infer.h"
#include "base/rng.h"
#include "hypergraph/querygraph.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Value I(int64_t v) { return Value::Int(v); }

Catalog MakeCatalog(uint64_t seed, int n) {
  Catalog cat;
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = 10;
  opt.domain = 3;
  opt.null_fraction = 0.15;
  AddRandomTables(n, opt, &rng, &cat);
  return cat;
}

Predicate P(const std::string& a, const std::string& b) {
  return Predicate(MakeAtom(a, "a", CmpOp::kEq, b, "a"));
}

// Normalize, rebuild via ApplyWrappers, and require equivalence.
void CheckRoundTrip(const NodePtr& q, const Catalog& cat) {
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok()) << nq.status().ToString();
  auto rebuilt = ApplyWrappers(*nq, nq->join_tree, cat);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  auto eq = ExecutionEquivalent(q, *rebuilt, cat);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq) << "query: " << q->ToString()
                   << "\nrebuilt: " << (*rebuilt)->ToString();
}

TEST(NormalizeTest, LeafAndFilteredLeafStayInTree) {
  Catalog cat = MakeCatalog(1, 2);
  NodePtr filtered = Node::Select(
      Node::Leaf("r1"), Predicate(MakeConstAtom("r1", "a", CmpOp::kGe, I(1))));
  NodePtr q = Node::Join(filtered, Node::Leaf("r2"), P("r1", "r2"));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_TRUE(nq->wrappers.empty());  // filter rides with the leaf
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, SelectionHoistsAcrossPreservedSide) {
  Catalog cat = MakeCatalog(2, 2);
  // sigma over a join subtree below the preserved side of a LOJ; the
  // conjunct spans two relations, so it cannot move down to a scan.
  NodePtr inner = Node::Join(Node::Leaf("r1"), Node::Leaf("r2"),
                             P("r1", "r2"));
  NodePtr filtered = Node::Select(
      inner, Predicate(MakeAtom("r1", "b", CmpOp::kGe, "r2", "b")));
  Catalog cat3 = MakeCatalog(2, 3);
  NodePtr q = Node::LeftOuterJoin(filtered, Node::Leaf("r3"),
                                  P("r2", "r3"));
  auto nq = NormalizeForReordering(q, cat3);
  ASSERT_TRUE(nq.ok());
  ASSERT_EQ(nq->wrappers.size(), 1u);
  EXPECT_TRUE(nq->wrappers[0].groups.empty());  // stays a plain selection
  CheckRoundTrip(q, cat3);
}

TEST(NormalizeTest, SelectionBecomesGsAcrossNullSide) {
  Catalog cat = MakeCatalog(3, 3);
  NodePtr inner = Node::Join(Node::Leaf("r2"), Node::Leaf("r3"),
                             P("r2", "r3"));
  NodePtr filtered = Node::Select(
      inner, Predicate(MakeAtom("r2", "b", CmpOp::kGe, "r3", "b")));
  // Filtered subtree on the null-supplying side: a two-relation conjunct
  // must hoist as a GS preserving the other side.
  NodePtr q = Node::LeftOuterJoin(Node::Leaf("r1"), filtered, P("r1", "r2"));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  ASSERT_EQ(nq->wrappers.size(), 1u);
  ASSERT_EQ(nq->wrappers[0].groups.size(), 1u);
  EXPECT_EQ(nq->wrappers[0].groups[0].count("r1"), 1u);
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, SelectionAcrossFullOuterJoin) {
  Catalog cat = MakeCatalog(4, 3);
  NodePtr inner = Node::Join(Node::Leaf("r2"), Node::Leaf("r3"),
                             P("r2", "r3"));
  NodePtr filtered = Node::Select(
      inner, Predicate(MakeConstAtom("r3", "c", CmpOp::kNe, I(0))));
  NodePtr q = Node::FullOuterJoin(Node::Leaf("r1"), filtered, P("r1", "r2"));
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, GroupByPreservedSidePullsThroughLoj) {
  Catalog cat = MakeCatalog(5, 3);
  NodePtr base = Node::Join(Node::Leaf("r1"), Node::Leaf("r2"),
                            P("r1", "r2"));
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r1", "b"}, Attribute{"r2", "b"}};
  exec::AggSpec agg;
  agg.func = exec::AggFunc::kCount;
  agg.input = Scalar::Column("r1", "c");
  agg.out_rel = "V";
  agg.out_name = "c";
  spec.aggs = {agg};
  NodePtr view = Node::GroupBy(base, spec);
  Predicate p;
  p.AddAtom(MakeAtom("r1", "b", CmpOp::kEq, "r3", "b"));
  p.AddAtom(MakeAtom("r3", "a", CmpOp::kLe, "V", "c"));  // agg-referencing
  NodePtr q = Node::LeftOuterJoin(view, Node::Leaf("r3"), p);

  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  // All three relations reorderable; GP wrapper followed by a GS whose
  // preserved group carries the view side plus the aggregate qualifier.
  EXPECT_EQ(nq->join_tree->BaseRels().size(), 3u);
  bool gs_with_agg_rel = false;
  for (const Wrapper& w : nq->wrappers) {
    if (w.kind == Wrapper::Kind::kGeneralizedSelection) {
      for (const auto& g : w.groups) {
        if (g.count("V")) gs_with_agg_rel = true;
      }
    }
  }
  EXPECT_TRUE(gs_with_agg_rel);
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, GroupByNullSideAddsPresenceGuardAndDropColumn) {
  Catalog cat = MakeCatalog(6, 2);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r2", "a"}};
  exec::AggSpec agg;
  agg.func = exec::AggFunc::kCountStar;
  agg.out_rel = "V";
  agg.out_name = "c";
  spec.aggs = {agg};
  NodePtr view = Node::GroupBy(Node::Leaf("r2"), spec);
  Predicate p;
  p.AddAtom(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"));
  p.AddAtom(MakeAtom("r1", "b", CmpOp::kLt, "V", "c"));
  NodePtr q = Node::LeftOuterJoin(Node::Leaf("r1"), view, p);

  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_FALSE(nq->drop_cols.empty());  // the auxiliary presence count
  bool aux_guard = false;
  for (const Wrapper& w : nq->wrappers) {
    if (w.kind == Wrapper::Kind::kGeneralizedSelection &&
        w.pred.ToString().find("#aux") != std::string::npos) {
      aux_guard = true;
    }
  }
  EXPECT_TRUE(aux_guard);
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, FojOverGroupByFallsBackToOpaqueUnit) {
  Catalog cat = MakeCatalog(7, 2);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r2", "a"}};
  exec::AggSpec agg;
  agg.func = exec::AggFunc::kCountStar;
  agg.out_rel = "V";
  agg.out_name = "c";
  spec.aggs = {agg};
  NodePtr view = Node::GroupBy(Node::Leaf("r2"), spec);
  NodePtr q = Node::FullOuterJoin(Node::Leaf("r1"), view, P("r1", "r2"));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_TRUE(nq->wrappers.empty());  // view materialized inside the tree
  // The query graph still forms, with the view as a unit.
  auto qg = BuildQueryGraph(nq->join_tree, cat);
  ASSERT_TRUE(qg.ok());
  EXPECT_EQ(qg->hypergraph.NumRelations(), 2);
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, TwoGroupBysOneNodeMaterializesOneSide) {
  Catalog cat = MakeCatalog(8, 2);
  auto make_view = [&](const std::string& rel, const std::string& out_rel) {
    exec::GroupBySpec spec;
    spec.group_cols = {Attribute{rel, "a"}};
    exec::AggSpec agg;
    agg.func = exec::AggFunc::kCountStar;
    agg.out_rel = out_rel;
    agg.out_name = "c";
    spec.aggs = {agg};
    return Node::GroupBy(Node::Leaf(rel), spec);
  };
  NodePtr q = Node::Join(make_view("r1", "U"), make_view("r2", "W"),
                         P("r1", "r2"));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  CheckRoundTrip(q, cat);
}

// The filter unit Select(Leaf rel) in `n`, or null.
NodePtr ScanFilter(const NodePtr& n, const std::string& rel) {
  if (n == nullptr) return nullptr;
  if (n->kind() == OpKind::kSelect && n->left()->kind() == OpKind::kLeaf &&
      n->left()->table() == rel) {
    return n;
  }
  if (NodePtr l = ScanFilter(n->left(), rel)) return l;
  return ScanFilter(n->right(), rel);
}

// Every wrapper's predicate, rendered.
std::string WrapperPreds(const NormalizedQuery& nq) {
  std::string out;
  for (const Wrapper& w : nq.wrappers) out += w.pred.ToString() + ";";
  return out;
}

Predicate Conj(std::vector<Atom> atoms) { return Predicate(std::move(atoms)); }

TEST(PushdownTest, Example21FilterLandsOnR1Unit) {
  Catalog cat = MakeCatalog(11, 3);
  // Example 2.1: (r1 LOJ r2) LOJ_{r1-r3 AND r2-r3} r3 WHERE r1.a <= 1.
  Predicate p13_23 = Conj({MakeAtom("r1", "b", CmpOp::kEq, "r3", "b"),
                           MakeAtom("r2", "c", CmpOp::kEq, "r3", "c")});
  NodePtr t = Node::LeftOuterJoin(
      Node::LeftOuterJoin(Node::Leaf("r1"), Node::Leaf("r2"), P("r1", "r2")),
      Node::Leaf("r3"), p13_23);
  NodePtr q =
      Node::Select(t, Predicate(MakeConstAtom("r1", "a", CmpOp::kLe, I(1))));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok()) << nq.status().ToString();
  EXPECT_TRUE(nq->wrappers.empty()) << WrapperPreds(*nq);
  NodePtr r1 = ScanFilter(nq->join_tree, "r1");
  ASSERT_NE(r1, nullptr) << nq->join_tree->ToString();
  EXPECT_EQ(r1->pred().ToString(),
            Predicate(MakeConstAtom("r1", "a", CmpOp::kLe, I(1))).ToString());
  EXPECT_EQ(ScanFilter(nq->join_tree, "r2"), nullptr);
  EXPECT_EQ(ScanFilter(nq->join_tree, "r3"), nullptr);
  // The filtered unit is one reorderable relation of the query graph.
  auto qg = BuildQueryGraph(nq->join_tree, cat);
  ASSERT_TRUE(qg.ok());
  EXPECT_EQ(qg->hypergraph.NumRelations(), 3);
  CheckRoundTrip(q, cat);
}

TEST(PushdownTest, IsNullOnNullSuppliedSideStaysAbove) {
  Catalog cat = MakeCatalog(12, 2);
  NodePtr loj =
      Node::LeftOuterJoin(Node::Leaf("r1"), Node::Leaf("r2"), P("r1", "r2"));
  // IS NULL on the null-supplied r2 is TRUE on padded rows: below the LOJ
  // it would filter r2 before padding and change the answer.
  NodePtr q = Node::Select(
      loj, Predicate(MakeIsNullAtom("r2", "b", /*negated=*/false)));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_EQ(ScanFilter(nq->join_tree, "r2"), nullptr);
  ASSERT_EQ(nq->wrappers.size(), 1u);
  EXPECT_NE(WrapperPreds(*nq).find("IS NULL"), std::string::npos);
  CheckRoundTrip(q, cat);

  // The same test on the preserved r1 commutes with the LOJ and moves.
  NodePtr q2 = Node::Select(
      loj, Predicate(MakeIsNullAtom("r1", "b", /*negated=*/false)));
  auto nq2 = NormalizeForReordering(q2, cat);
  ASSERT_TRUE(nq2.ok());
  EXPECT_TRUE(nq2->wrappers.empty());
  EXPECT_NE(ScanFilter(nq2->join_tree, "r1"), nullptr);
  CheckRoundTrip(q2, cat);
}

TEST(PushdownTest, FullOuterJoinOperandsAreNeverFiltered) {
  Catalog cat = MakeCatalog(13, 3);
  NodePtr foj =
      Node::FullOuterJoin(Node::Leaf("r1"), Node::Leaf("r2"), P("r1", "r2"));
  NodePtr q = Node::Select(
      Node::Join(foj, Node::Leaf("r3"), P("r2", "r3")),
      Conj({MakeConstAtom("r1", "b", CmpOp::kGe, I(1)),
            MakeConstAtom("r2", "b", CmpOp::kGe, I(1)),
            MakeConstAtom("r3", "b", CmpOp::kGe, I(1))}));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_EQ(ScanFilter(nq->join_tree, "r1"), nullptr);
  EXPECT_EQ(ScanFilter(nq->join_tree, "r2"), nullptr);
  EXPECT_NE(ScanFilter(nq->join_tree, "r3"), nullptr);  // inner-join side
  const std::string kept = WrapperPreds(*nq);
  EXPECT_NE(kept.find("r1.b"), std::string::npos) << kept;
  EXPECT_NE(kept.find("r2.b"), std::string::npos) << kept;
  EXPECT_EQ(kept.find("r3.b"), std::string::npos) << kept;
  CheckRoundTrip(q, cat);
}

TEST(PushdownTest, FilterOnViewAggregateStaysHoisted) {
  Catalog cat = MakeCatalog(14, 2);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r2", "a"}};
  exec::AggSpec agg;
  agg.func = exec::AggFunc::kCountStar;
  agg.out_rel = "V";
  agg.out_name = "c";
  spec.aggs = {agg};
  NodePtr view = Node::GroupBy(Node::Leaf("r2"), spec);
  NodePtr q = Node::Select(
      Node::Join(Node::Leaf("r1"), view, P("r1", "r2")),
      Conj({MakeConstAtom("V", "c", CmpOp::kGe, I(2)),
            MakeConstAtom("r2", "a", CmpOp::kGe, I(1)),
            MakeConstAtom("r1", "b", CmpOp::kGe, I(1))}));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  // r1 moves down; the aggregate conjunct and the one on the view's
  // grouping column stop at the GROUP BY and stay above it.
  EXPECT_NE(ScanFilter(nq->join_tree, "r1"), nullptr);
  EXPECT_EQ(ScanFilter(nq->join_tree, "r2"), nullptr);
  ASSERT_FALSE(nq->wrappers.empty());
  const Wrapper& top = nq->wrappers.back();
  EXPECT_EQ(top.kind, Wrapper::Kind::kGeneralizedSelection);
  EXPECT_NE(top.pred.ToString().find("V.c"), std::string::npos);
  EXPECT_NE(top.pred.ToString().find("r2.a"), std::string::npos);
  EXPECT_EQ(top.pred.ToString().find("r1.b"), std::string::npos);
  CheckRoundTrip(q, cat);
}

TEST(PushdownTest, MixedConjunctionSplits) {
  Catalog cat = MakeCatalog(15, 3);
  // r3 ROJ (sigma_{r1.c >= 0}(r1) JOIN r2): r1 and r2 are preserved.
  NodePtr filtered_r1 = Node::Select(
      Node::Leaf("r1"), Predicate(MakeConstAtom("r1", "c", CmpOp::kGe, I(0))));
  NodePtr t = Node::RightOuterJoin(
      Node::Leaf("r3"), Node::Join(filtered_r1, Node::Leaf("r2"),
                                   P("r1", "r2")),
      P("r3", "r1"));
  NodePtr q = Node::Select(
      t, Conj({MakeConstAtom("r1", "b", CmpOp::kGe, I(1)),
               MakeConstAtom("r2", "b", CmpOp::kLe, I(1)),
               MakeIsNullAtom("r2", "c", /*negated=*/true),
               MakeAtom("r1", "a", CmpOp::kEq, "r3", "a"),
               MakeConstAtom("r3", "b", CmpOp::kGe, I(1))}));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  NodePtr r1 = ScanFilter(nq->join_tree, "r1");
  NodePtr r2 = ScanFilter(nq->join_tree, "r2");
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(r1->pred().NumAtoms(), 2);  // merged with the filter on r1
  EXPECT_EQ(r2->pred().NumAtoms(), 2);
  // r3 is null-supplied by the ROJ; the two-relation conjunct spans.
  EXPECT_EQ(ScanFilter(nq->join_tree, "r3"), nullptr);
  ASSERT_EQ(nq->wrappers.size(), 1u);
  EXPECT_EQ(nq->wrappers[0].pred.NumAtoms(), 2);
  CheckRoundTrip(q, cat);
}

// Normalization keeps no state between calls: two threads normalizing
// concurrently get the same auxiliary column names as a lone call.
TEST(NormalizeConcurrencyTest, TwoThreadsNormalizeTheSameQuery) {
  Catalog cat = MakeCatalog(16, 2);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r2", "a"}};
  exec::AggSpec agg;
  agg.func = exec::AggFunc::kCountStar;
  agg.out_rel = "V";
  agg.out_name = "c";
  spec.aggs = {agg};
  Predicate p;
  p.AddAtom(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"));
  p.AddAtom(MakeAtom("r1", "b", CmpOp::kLt, "V", "c"));
  NodePtr q = Node::LeftOuterJoin(Node::Leaf("r1"),
                                  Node::GroupBy(Node::Leaf("r2"), spec), p);
  auto render = [&]() -> std::string {
    auto nq = NormalizeForReordering(q, cat);
    if (!nq.ok()) return nq.status().ToString();
    auto rebuilt = ApplyWrappers(*nq, nq->join_tree, cat);
    return rebuilt.ok() ? (*rebuilt)->ToString() : rebuilt.status().ToString();
  };
  const std::string expected = render();
  ASSERT_NE(expected.find("present0"), std::string::npos) << expected;
  int mismatches[2] = {0, 0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 200; ++i) {
        if (render() != expected) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
}

TEST(SchemaInferTest, MatchesExecutionSchemas) {
  Catalog cat = MakeCatalog(9, 3);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r1", "a"}};
  exec::AggSpec agg;
  agg.func = exec::AggFunc::kSum;
  agg.input = Scalar::Column("r1", "b");
  agg.out_rel = "V";
  agg.out_name = "s";
  spec.aggs = {agg};
  for (NodePtr q : {
           Node::Join(Node::Leaf("r1"), Node::Leaf("r2"), P("r1", "r2")),
           Node::FullOuterJoin(Node::Leaf("r1"), Node::Leaf("r2"),
                               P("r1", "r2")),
           Node::GroupBy(Node::Leaf("r1"), spec),
           Node::Project(Node::Leaf("r1"), {Attribute{"r1", "c"}}),
           Node::GeneralizedSelection(
               Node::Join(Node::Leaf("r1"), Node::Leaf("r2"), P("r1", "r2")),
               P("r1", "r2"), {exec::PreservedGroup{"r1"}}),
       }) {
    auto inferred = InferSchema(q, cat);
    auto executed = Execute(q, cat);
    ASSERT_TRUE(inferred.ok()) << q->ToString();
    ASSERT_TRUE(executed.ok());
    EXPECT_EQ(inferred->ToString(), executed->schema().ToString())
        << q->ToString();
  }
}

TEST(SchemaInferTest, ErrorsOnUnknownColumnsAndTables) {
  Catalog cat = MakeCatalog(10, 1);
  EXPECT_FALSE(InferSchema(Node::Leaf("nope"), cat).ok());
  EXPECT_FALSE(
      InferSchema(Node::Project(Node::Leaf("r1"), {Attribute{"r1", "zz"}}),
                  cat)
          .ok());
}

}  // namespace
}  // namespace gsopt
