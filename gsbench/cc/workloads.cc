#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "algebra/execute.h"
#include "base/rng.h"
#include "core/plan_cache.h"
#include "relational/datagen.h"
#include "sql/binder.h"

namespace gsbench {

using gsopt::Catalog;
using gsopt::Rng;
using gsopt::Value;

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (WorkloadKind k : {WorkloadKind::kAnalyticWarm, WorkloadKind::kAdhocCold,
                         WorkloadKind::kServeMixed}) {
    if (WorkloadName(k) == name) {
      *kind = k;
      return true;
    }
  }
  return false;
}

std::string WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kAnalyticWarm:
      return "analytic_warm";
    case WorkloadKind::kAdhocCold:
      return "adhoc_cold";
    case WorkloadKind::kServeMixed:
      return "serve_mixed";
  }
  return "?";
}

namespace {

// A table whose column i holds every value of [0, domains[i]) equally
// often (within one), plus round(null_frac * rows) NULLs, in a seeded
// random order; a domain of 0 makes the column the row number (a unique
// key). Seeds therefore change which values share a row, never a column's
// row count, distinct count or NULL fraction -- the statistics the cost
// model reads -- so every seed gets the same plans.
void AddTable(Catalog* cat, const std::string& name,
              const std::vector<std::string>& cols,
              const std::vector<int64_t>& domains, int64_t rows,
              double null_frac, Rng* rng) {
  std::vector<std::vector<Value>> data(static_cast<size_t>(rows));
  const int64_t nulls = std::llround(null_frac * static_cast<double>(rows));
  for (int64_t d : domains) {
    std::vector<Value> column;
    column.reserve(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) {
      if (d == 0) {
        column.push_back(Value::Int(i));
      } else if (i < nulls) {
        column.push_back(Value::Null());
      } else {
        column.push_back(Value::Int(i % d));
      }
    }
    if (d != 0) {
      for (int64_t i = rows - 1; i > 0; --i) {
        std::swap(column[static_cast<size_t>(i)],
                  column[static_cast<size_t>(rng->Uniform(0, i))]);
      }
    }
    for (int64_t i = 0; i < rows; ++i) {
      data[static_cast<size_t>(i)].push_back(
          std::move(column[static_cast<size_t>(i)]));
    }
  }
  GSOPT_CHECK(cat->Register(name, gsopt::MakeRelation(name, cols, data)).ok());
}

uint64_t StreamSeed(uint64_t seed, uint64_t i) {
  return seed * 0x9E3779B97F4A7C15ull + i * 0xD1B54A32D192ED03ull + 1;
}

// --- adhoc_cold shape generator -------------------------------------------
// Left-deep FROM lists over 64-row tables r1..r12 (a, b: 64 values; c: 4
// values), joined by inner, left and full outer joins whose ON predicates
// are conjunctions of column equalities. Every shape has the same feature
// counts for its size -- two complex predicates (a second conjunct on c
// reaching a different earlier item, so the predicate spans three
// relations), (joins - 1) / 3 left joins and one full outer join at random
// positions -- and every other shape puts a GROUP BY view (over one or two
// tables) among its items, which later predicates reference through its
// aggregate. Fixing the counts keeps the plan-search cost of a seed's
// shapes close to every other seed's; only positions and columns vary.
// Each shape also filters its first base table with a literal equality,
// and every third shape sorts its result.

struct Item {
  std::string alias;
  bool view = false;
  std::string from;  // text in the FROM clause
};

// The key-column side of an equality atom: a or b, or a view's group
// column.
std::string KeyCol(const Item& it, Rng* rng) {
  if (it.view) return it.alias + ".g";
  return it.alias + (rng->Bernoulli(0.5) ? ".a" : ".b");
}

// The low-cardinality side: c, or a view's aggregate output.
std::string SmallCol(const Item& it) {
  return it.alias + (it.view ? ".agg" : ".c");
}

constexpr int kAdhocTables = 12;
constexpr int64_t kAdhocRows = 64;

std::string MakeAdhocShape(int n, bool with_view, bool order_by, Rng* rng) {
  std::vector<int> tables(kAdhocTables);
  for (int i = 0; i < kAdhocTables; ++i) tables[i] = i + 1;
  for (int i = kAdhocTables - 1; i > 0; --i) {
    std::swap(tables[i], tables[rng->Uniform(0, i)]);
  }
  auto base = [](int t) {
    Item it;
    it.alias = "r" + std::to_string(t);
    it.from = it.alias;
    return it;
  };
  std::vector<Item> items;
  int used = 0;
  const int view_pos = with_view ? static_cast<int>(rng->Uniform(0, 2)) : -1;
  static const char* kAggs[] = {"COUNT", "SUM", "MIN", "MAX"};
  while (used < n) {
    if (static_cast<int>(items.size()) != view_pos) {
      items.push_back(base(tables[used++]));
      continue;
    }
    const bool two = rng->Bernoulli(0.5);
    const std::string x = "r" + std::to_string(tables[used++]);
    const std::string fn = kAggs[rng->Uniform(0, 3)];
    Item v;
    v.alias = "v";
    v.view = true;
    if (two) {
      const std::string y = "r" + std::to_string(tables[used++]);
      v.from = "(SELECT " + x + ".a AS g, " + fn + "(" + y +
               ".c) AS agg FROM " + x + " JOIN " + y + " ON " + x + ".b = " +
               y + ".b GROUP BY " + x + ".a) AS v";
    } else {
      v.from = "(SELECT " + x + ".a AS g, " + fn + "(" + x +
               ".c) AS agg FROM " + x + " GROUP BY " + x + ".a) AS v";
    }
    items.push_back(v);
  }

  // Join k attaches items[k]. Operators: (joins - 1) / 3 left joins and
  // one full outer join, the rest inner; two complex predicates, on joins
  // with at least two earlier items.
  const int joins = static_cast<int>(items.size()) - 1;
  std::vector<int> ops(static_cast<size_t>(joins), 0);
  const int lefts = (joins - 1) / 3;
  for (int i = 0; i < lefts; ++i) ops[static_cast<size_t>(i)] = 1;
  ops[static_cast<size_t>(lefts)] = 2;
  for (int i = joins - 1; i > 0; --i) {
    std::swap(ops[static_cast<size_t>(i)],
              ops[static_cast<size_t>(rng->Uniform(0, i))]);
  }
  std::vector<int> complex_at;
  for (int k = 2; k <= joins; ++k) complex_at.push_back(k);
  for (int i = static_cast<int>(complex_at.size()) - 1; i > 0; --i) {
    std::swap(complex_at[static_cast<size_t>(i)],
              complex_at[static_cast<size_t>(rng->Uniform(0, i))]);
  }
  complex_at.resize(2);

  std::string from = items[0].from;
  for (int k = 1; k <= joins; ++k) {
    static const char* kJoin[] = {" JOIN ", " LEFT JOIN ", " FULL OUTER JOIN "};
    const Item& cur = items[static_cast<size_t>(k)];
    const int first = static_cast<int>(rng->Uniform(0, k - 1));
    std::string on = KeyCol(cur, rng) + " = " +
                     KeyCol(items[static_cast<size_t>(first)], rng);
    if (k == complex_at[0] || k == complex_at[1]) {
      int second = static_cast<int>(rng->Uniform(0, k - 2));
      if (second >= first) ++second;
      on += " AND " + SmallCol(cur) + " = " +
            SmallCol(items[static_cast<size_t>(second)]);
    }
    from += kJoin[ops[static_cast<size_t>(k - 1)]] + cur.from + " ON " + on;
  }

  std::string select, first_col;
  for (size_t i = 0; i < items.size(); i += 2) {
    const std::string c = KeyCol(items[i], rng);
    if (first_col.empty()) first_col = c;
    select += (select.empty() ? "" : ", ") + c;
  }
  // A literal filter on the first base table, and on some shapes a sort.
  const Item& filtered = items[items[0].view ? 1 : 0];
  std::string sql = "SELECT " + select + " FROM " + from + " WHERE " +
                    filtered.alias + ".c = " +
                    std::to_string(rng->Uniform(0, 3));
  if (order_by) sql += " ORDER BY " + first_col;
  return sql;
}

}  // namespace

std::unique_ptr<Workload> Workload::Generate(WorkloadKind kind, uint64_t seed) {
  std::unique_ptr<Workload> w(new Workload());
  w->kind_ = kind;
  w->seed_ = seed;
  w->catalog_ = std::make_unique<Catalog>();
  Rng rng(seed);
  Catalog* cat = w->catalog_.get();
  switch (kind) {
    case WorkloadKind::kAnalyticWarm: {
      // Example 2.1's schema. r1 (16K rows x 4 columns, 3.3 MB of tuples)
      // is larger than a 2 MiB L2 cache; r1.a carries the parameterized
      // filter. Each r1 row joins about one r2 row on c and two r3 rows on
      // f, of which r2.e = r3.e keeps few.
      AddTable(cat, "r1", {"a", "b", "c", "f"}, {1000, 8, 4096, 2048}, 16384,
               0.0, &rng);
      AddTable(cat, "r2", {"c", "d", "e"}, {4096, 1000, 1024}, 4096, 0.02,
               &rng);
      AddTable(cat, "r3", {"e", "f"}, {1024, 2048}, 4096, 0.02, &rng);
      w->templates_ = {
          // Example 2.1: the complex predicate r1.f=r3.f AND r2.e=r3.e
          // needs GS compensation when the LOJs are reordered.
          "SELECT * FROM r1 LEFT JOIN r2 ON r1.c = r2.c "
          "LEFT JOIN r3 ON r1.f = r3.f AND r2.e = r3.e WHERE r1.a <= $1",
          // Example 1.1: a COUNT view whose ON predicate refers to the
          // aggregate.
          "SELECT r1.a, r1.b, v.cnt FROM r1 LEFT JOIN "
          "(SELECT r2.c AS c, COUNT(r2.d) AS cnt FROM r2 GROUP BY r2.c) AS v "
          "ON r1.c = v.c AND r1.b < 2 * v.cnt WHERE r1.a <= $1",
          // A join followed by GROUP BY (and a sort of its groups).
          "SELECT r1.b, COUNT(r2.d) AS n, SUM(r2.e) AS s FROM r1 "
          "JOIN r2 ON r1.c = r2.c WHERE r1.a <= $1 GROUP BY r1.b ORDER BY n",
          // ORDER BY on the join key: the merge-join path.
          "SELECT r1.c, r1.a, r2.d FROM r1 JOIN r2 ON r1.c = r2.c "
          "WHERE r1.a <= $1 ORDER BY r1.c",
      };
      // $1 bounds r1.a to [9, 49]: 1%-5% of r1 passes the filter. The
      // values are the same for every seed, so seeds differ only in data
      // and request order, not in how much work a request does.
      for (int k = 0; k < 16; ++k) w->params_.push_back(9 + (40 * k + 7) / 15);
      break;
    }
    case WorkloadKind::kAdhocCold: {
      for (int t = 1; t <= kAdhocTables; ++t) {
        AddTable(cat, "r" + std::to_string(t), {"a", "b", "c"},
                 {kAdhocRows, kAdhocRows, 4}, kAdhocRows, 0.05, &rng);
      }
      // 5x the default plan-cache capacity (256), and more texts than the
      // statement-text memo holds (1024), so cycling them in order misses
      // both caches on every request.
      constexpr size_t kShapes = 1280;
      std::set<std::string> seen;
      // Shape i has 6 + i % 5 relations, a view when i is even and an
      // ORDER BY when i % 3 == 0, so every window of 30 consecutive shapes
      // has the same feature mix.
      while (w->shapes_.size() < kShapes) {
        const size_t i = w->shapes_.size();
        std::string s = MakeAdhocShape(6 + static_cast<int>(i % 5), i % 2 == 0,
                                       i % 3 == 0, &rng);
        if (seen.insert(s).second) w->shapes_.push_back(std::move(s));
      }
      break;
    }
    case WorkloadKind::kServeMixed: {
      // r1.a is a unique key for point lookups; r1.b = r2.b joins ~4 rows,
      // r2.d = r3.d about one.
      AddTable(cat, "r1", {"a", "b", "c"}, {0, 256, 1000}, 1024, 0.0, &rng);
      AddTable(cat, "r2", {"b", "d", "e"}, {256, 1000, 16}, 1024, 0.0, &rng);
      AddTable(cat, "r3", {"d", "f"}, {1000, 64}, 1024, 0.0, &rng);
      w->templates_ = {
          "SELECT * FROM r1 WHERE r1.a = $1",
          "SELECT r1.a, r1.c, r2.d FROM r1 JOIN r2 ON r1.b = r2.b "
          "WHERE r1.a = $1",
      };
      // 48 one-shot texts over six small-result shapes (grouping, join,
      // sort, outer join, three-way join): the pool fits in both the plan
      // cache and the statement-text memo.
      for (int i = 0; i < 48; ++i) {
        const std::string k = std::to_string(rng.Uniform(0, 15));
        const std::string m = std::to_string(rng.Uniform(0, 1023));
        switch (i % 6) {
          case 0:
            w->shapes_.push_back("SELECT r2.b, COUNT(r2.d) AS n FROM r2 "
                                 "WHERE r2.e = " + k + " GROUP BY r2.b");
            break;
          case 1:
            w->shapes_.push_back("SELECT r1.a, r2.d FROM r1 JOIN r2 ON "
                                 "r1.b = r2.b WHERE r1.a = " + m +
                                 " AND r2.e = " + k);
            break;
          case 2:
            w->shapes_.push_back("SELECT r1.b, r1.c FROM r1 WHERE r1.a = " +
                                 m + " ORDER BY r1.c");
            break;
          case 3:
            w->shapes_.push_back("SELECT r1.a, r2.d FROM r1 LEFT JOIN r2 ON "
                                 "r1.b = r2.b AND r2.e = " + k +
                                 " WHERE r1.a = " + m);
            break;
          case 4:
            w->shapes_.push_back("SELECT r1.a, r2.d, r3.f FROM r1 JOIN r2 ON "
                                 "r1.b = r2.b JOIN r3 ON r2.d = r3.d "
                                 "WHERE r1.a = " + m);
            break;
          default:
            w->shapes_.push_back("SELECT r2.e, MAX(r2.d) AS top FROM r2 "
                                 "WHERE r2.b = " + std::to_string(
                                     rng.Uniform(0, 255)) +
                                 " GROUP BY r2.e");
            break;
        }
      }
      break;
    }
  }
  return w;
}

Request Workload::At(uint64_t i) const {
  Request r;
  switch (kind_) {
    case WorkloadKind::kAnalyticWarm: {
      // Template order is a fixed cycle in which Example 2.1 is every other
      // request: a seed changes only data and parameters, never the mix,
      // and the median lands inside Example 2.1's latency mode rather than
      // on the boundary between two templates' modes.
      static const int kCycle[] = {0, 1, 0, 2, 0, 3};
      Rng rng(StreamSeed(seed_, i));
      r.kind = Request::Kind::kExecute;
      r.stmt = kCycle[i % 6];
      r.params = {Value::Int(params_[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(params_.size()) - 1))])};
      break;
    }
    case WorkloadKind::kAdhocCold:
      r.kind = Request::Kind::kQuery;
      r.sql = shapes_[i % shapes_.size()];
      break;
    case WorkloadKind::kServeMixed: {
      // A fixed cycle of ten: six point lookups, three joins, one QUERY.
      // Point lookups are the majority so the median sits inside their
      // latency mode instead of on the boundary with the joins'. Requests
      // alternate between two connections, so both walk the cycle at half
      // speed and see the same mix. QUERY requests walk the pool in order,
      // so any 60 consecutive requests include every shape.
      static const int kCycle[] = {0, 1, 0, 0, 1, 0, -1, 0, 1, 0};
      Rng rng(StreamSeed(seed_, i));
      const int stmt = kCycle[(i / 2) % 10];
      if (stmt < 0) {
        const uint64_t query_number = 2 * (i / 20) + i % 2;
        r.kind = Request::Kind::kQuery;
        r.sql = shapes_[query_number % shapes_.size()];
      } else {
        r.kind = Request::Kind::kExecute;
        r.stmt = stmt;
        r.params = {Value::Int(rng.Uniform(0, 1023))};
      }
      break;
    }
  }
  return r;
}

SessionRunner::SessionRunner(const Workload& w)
    : w_(w), session_(w.catalog()) {
  stmts_.resize(w.templates().size());
}

gsopt::Status SessionRunner::PrepareAll() {
  for (size_t i = 0; i < w_.templates().size(); ++i) {
    Request r;
    r.kind = Request::Kind::kPrepare;
    r.stmt = static_cast<int>(i);
    auto got = Serve(r);
    if (!got.ok()) return got.status();
  }
  return gsopt::Status::OK();
}

gsopt::StatusOr<gsopt::QueryResult> SessionRunner::Serve(const Request& r) {
  switch (r.kind) {
    case Request::Kind::kQuery:
      return session_.Query(r.sql);
    case Request::Kind::kExecute:
      if (!stmts_[static_cast<size_t>(r.stmt)]) {
        return gsopt::Status::InvalidArgument("statement not prepared");
      }
      return stmts_[static_cast<size_t>(r.stmt)]->Execute(r.params);
    case Request::Kind::kPrepare: {
      auto stmt = session_.Prepare(w_.templates()[static_cast<size_t>(r.stmt)]);
      if (!stmt.ok()) return stmt.status();
      stmts_[static_cast<size_t>(r.stmt)] = *stmt;
      gsopt::QueryResult out;
      out.plan_cost = stmt->plan_cost();
      out.cache_hit = stmt->cache_hit();
      return out;
    }
  }
  return gsopt::Status::Internal("unknown request kind");
}

gsopt::StatusOr<Fingerprint> ReferenceFingerprint(const Workload& w,
                                                  const Request& r) {
  const std::string& sql = r.kind == Request::Kind::kQuery
                               ? r.sql
                               : w.templates()[static_cast<size_t>(r.stmt)];
  GSOPT_ASSIGN_OR_RETURN(gsopt::NodePtr tree,
                         gsopt::sql::ParseAndBind(sql, w.catalog()));
  if (r.kind == Request::Kind::kPrepare) return Fingerprint{};
  GSOPT_ASSIGN_OR_RETURN(gsopt::NodePtr bound,
                         gsopt::SubstituteParams(tree, r.params));
  gsopt::ExecuteOptions pinned;
  pinned.WithBatchMode(gsopt::exec::BatchMode::kOff)
      .WithBloomMode(gsopt::exec::BloomMode::kOff)
      .WithJoinStrategy(gsopt::exec::JoinStrategy::kHashOnly);
  GSOPT_ASSIGN_OR_RETURN(gsopt::Relation rows,
                         gsopt::Execute(bound, w.catalog(), pinned));
  return FingerprintOf(rows);
}

}  // namespace gsbench
