#include "exec/sort.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "base/spill_file.h"
#include "exec/join_internal.h"
#include "exec/keys.h"
#include "exec/spill.h"

namespace gsopt::exec {

namespace {

using internal::ApproxTupleBytes;
using internal::HashPlan;
using internal::JoinCoreResult;
using internal::Prefetch;
using internal::ReadTupleRecord;
using internal::WriteTupleRecord;

// How many sorted positions ahead of the reader the in-memory stage
// prefetches a row: rows are read in place in sorted order, scattered over
// the input relation.
constexpr size_t kPrefetchAhead = 16;

// Maximum spilled runs merged at once. Past this the external sort takes
// an extra pass (merge kMergeFanIn runs into one, repeat), so the final
// streaming merge holds a bounded number of head tuples.
constexpr size_t kMergeFanIn = 8;

// Exact comparison of an int64 against a double. Routing the int through
// a double cast (as SQL comparison does) is fine for 3VL predicates but is
// NOT a strict weak ordering past 2^53: int(2^53+1) casts to 2^53, making
// it "equal" to double(2^53) while int-int comparison orders it after
// int(2^53) -- an intransitivity std::sort may turn into UB. The sort path
// therefore compares exactly: NaN stays greatest (CompareDoubles rule).
int CompareIntDouble(int64_t i, double d) {
  if (std::isnan(d)) return -1;
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63
  if (d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  double fd = std::floor(d);
  int64_t di = static_cast<int64_t>(fd);  // |fd| <= 2^63 - 1 after guards
  if (i != di) return i < di ? -1 : 1;
  return d > fd ? -1 : 0;  // equal integer part: a fraction makes d larger
}

}  // namespace

std::string SortSpecToString(const SortSpec& spec) {
  std::string s;
  for (size_t i = 0; i < spec.size(); ++i) {
    if (i) s += ", ";
    s += spec[i].ToString();
  }
  return s;
}

int CompareValuesTotal(const Value& a, const Value& b) {
  auto rank = [](const Value& v) {
    switch (v.type()) {
      case ValueType::kNull:
        return 0;
      case ValueType::kInt:
      case ValueType::kDouble:
        return 1;
      case ValueType::kString:
        return 2;
    }
    return 3;
  };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 0) return 0;  // NULL == NULL, lowest
  if (ra == 1) {
    bool ai = a.type() == ValueType::kInt, bi = b.type() == ValueType::kInt;
    if (ai && bi) {
      int64_t x = a.AsInt(), y = b.AsInt();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    if (ai) return CompareIntDouble(a.AsInt(), b.AsDouble());
    if (bi) return -CompareIntDouble(b.AsInt(), a.AsDouble());
    return CompareDoubles(a.AsDouble(), b.AsDouble());
  }
  int c = a.AsString().compare(b.AsString());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

int CompareValuesKeyClass(const Value& a, const Value& b) {
  int c = CompareValuesTotal(a, b);
  if (c != 0) return c;
  // Equal by value. The hash paths' key classes are finer in one corner
  // only: an int64 and a double that agree numerically past the 2^53 exact
  // range encode to distinct keys (AppendValueKey). Order such pairs by
  // their encodings so the merge join's equality partition is exactly
  // AppendValueKey's; every other value-equal pair shares one encoding.
  const bool mixed =
      (a.type() == ValueType::kInt && b.type() == ValueType::kDouble) ||
      (a.type() == ValueType::kDouble && b.type() == ValueType::kInt);
  if (!mixed) return 0;
  std::string ka, kb;
  AppendValueKey(a, &ka);
  AppendValueKey(b, &kb);
  c = ka.compare(kb);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

namespace {

// One sort key of a stream: column `col` of the row, read in place, or
// (col < 0) `expr` evaluated once per staged row.
struct KeyRef {
  int col = -1;
  ScalarPtr expr;
};

// An order-preserving 64-bit prefix of a value under CompareValuesTotal:
// a < b implies Abbreviate(a) <= Abbreviate(b), and equal values share one
// prefix. The in-memory sort compares prefixes first and reads the values
// only when two prefixes tie (the abbreviated-key technique), which keeps
// most comparisons off the rows.
uint64_t Abbreviate(const Value& v) {
  constexpr uint64_t kNumbers = uint64_t{1} << 62;
  constexpr uint64_t kStrings = uint64_t{2} << 62;
  switch (v.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt:
    case ValueType::kDouble: {
      // Rounding an int64 to a double is monotone, and so is mapping IEEE
      // bits to unsigned order by flipping the sign bit (all bits when
      // negative). -0.0 folds onto 0.0; NaN, the greatest number, takes
      // the top of the range.
      double d = v.AsDouble();
      if (std::isnan(d)) return kStrings - 1;
      if (d == 0) d = 0;
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      bits = (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
      return kNumbers | (bits >> 2);
    }
    case ValueType::kString: {
      // The first seven bytes, big-endian and zero-padded.
      const std::string& str = v.AsString();
      uint64_t p = 0;
      for (size_t i = 0; i < 7; ++i) {
        p = (p << 8) |
            (i < str.size() ? static_cast<unsigned char>(str[i]) : 0u);
      }
      return kStrings | p;
    }
  }
  return 0;
}

const Value& KeyAt(const Value* const* keys, size_t k) { return *keys[k]; }
const Value& KeyAt(const std::vector<Value>& keys, size_t k) {
  return keys[k];
}

struct KeyCmp {
  std::vector<char> desc;  // one flag per key
  bool key_class = false;

  // Keys are pointer arrays (the in-memory stage and merge-join blocks) or
  // value vectors (spilled run heads).
  template <typename Keys>
  int Compare(const Keys& a, const Keys& b) const {
    for (size_t k = 0; k < desc.size(); ++k) {
      const Value& x = KeyAt(a, k);
      const Value& y = KeyAt(b, k);
      int c = key_class ? CompareValuesKeyClass(x, y)
                        : CompareValuesTotal(x, y);
      if (desc[k]) c = -c;
      if (c != 0) return c;
    }
    return 0;
  }
};

// A spilled run's current record: the tuple read back, its re-evaluated
// keys and its original index in the input relation (the stability
// tie-break; the merge join's globally-indexed matched bitmaps).
struct Head {
  Tuple t;
  std::vector<Value> keys;
  int64_t orig = 0;
};

// Produces a relation's rows in sorted order. In memory the stage is a
// permutation of row indices sorted over the rows' key values, which are
// read in place from the relation (column keys) or from one flat array
// (evaluated keys), so no row is copied before it is output. When the
// staged rows trip the budget they go out as sorted SpillFile runs of full
// tuples, merged with bounded fan-in. Single-threaded, local to one
// operator invocation, so every run file is destroyed (LiveCount back to
// zero) before the operator returns.
class SortedStream {
 public:
  struct BlockRow {
    const Tuple* t;
    int64_t orig;
  };
  // A maximal run of key-equal rows in stable order, and the key values
  // they share. Rows point into the input relation, or into the stream's
  // own buffer when spilled; valid until the next NextBlock call.
  struct Block {
    std::vector<BlockRow> rows;
    std::vector<const Value*> keys;

    bool empty() const { return rows.empty(); }
  };

  // `skip_null` drops rows with a NULL key from the stream (the merge
  // join's NULL-key skip; the Sort operator keeps all rows).
  SortedStream(const Relation& src, std::vector<KeyRef> keys, bool skip_null,
               KeyCmp cmp, const ExecContext& ctx, const char* stage)
      : src_(src),
        keys_(std::move(keys)),
        skip_null_(skip_null),
        cmp_(std::move(cmp)),
        ctx_(ctx),
        stage_(stage),
        idle_(ctx.fault == nullptr && ctx.budget == nullptr),
        mem_(ctx) {}

  Status Init() {
    for (int64_t i = 0; i < src_.NumRows(); ++i) {
      GSOPT_RETURN_IF_ERROR(ctx_.Tick(stage_));
      const Tuple& t = src_.row(i);
      if (!EvalRowKeys(t)) {
        ++skipped_;
        continue;
      }
      Status cs = mem_.Charge(RowBytes(t), stage_);
      if (!cs.ok()) {
        // The staged rows no longer fit (or an alloc fault fired). With
        // spilling enabled, flush what we have as a sorted run and keep
        // going with an empty stage; otherwise surface the trip.
        if (!ctx_.SpillEnabled()) return cs;
        GSOPT_RETURN_IF_ERROR(FlushRun());
        GSOPT_RETURN_IF_ERROR(mem_.Charge(RowBytes(t), stage_));
      }
      staged_.push_back(i);
      for (Value& v : row_keys_) evaluated_.push_back(std::move(v));
    }
    if (runs_.empty()) {
      SortStage();
      return Status::OK();
    }
    if (!staged_.empty()) GSOPT_RETURN_IF_ERROR(FlushRun());
    GSOPT_RETURN_IF_ERROR(MergeToFanIn());
    return LoadHeads();
  }

  // Appends the next row in order to *out: copied from the input relation
  // in memory, moved out of its run when spilled. *ok = false when
  // exhausted.
  Status AppendNext(Relation* out, bool* ok) {
    if (runs_.empty()) {
      *ok = pos_ < order_.size();
      if (*ok) {
        PrefetchAhead();
        out->Add(SortedRow(pos_++));
      }
      return Status::OK();
    }
    GSOPT_RETURN_IF_ERROR(PopHead(&out_head_, ok));
    if (*ok) out->Add(std::move(out_head_.t));
    return Status::OK();
  }

  // Collects the next maximal block of key-equal rows (in stable order).
  // Empty block = exhausted. Each row is charged against `block_mem` at
  // the staging rate, in memory as well as spilled, so where the cap trips
  // does not depend on whether the stage spilled.
  Status NextBlock(Block* block, OpMemory* block_mem) {
    block->rows.clear();
    block->keys.clear();
    if (runs_.empty()) {
      if (pos_ >= order_.size()) return Status::OK();
      const Entry head = order_[pos_];
      const Value* const* first = KeysAt(head.pos);
      do {
        PrefetchAhead();
        const int64_t orig = staged_[order_[pos_++].pos];
        if (!idle_) {
          GSOPT_RETURN_IF_ERROR(
              block_mem->Charge(RowBytes(src_.row(orig)), stage_));
        }
        block->rows.push_back({&src_.row(orig), orig});
      } while (pos_ < order_.size() && order_[pos_].prefix == head.prefix &&
               cmp_.Compare(KeysAt(order_[pos_].pos), first) == 0);
      block->keys.assign(first, first + keys_.size());
      return Status::OK();
    }
    if (!pending_valid_) {
      GSOPT_RETURN_IF_ERROR(PopHead(&pending_, &pending_valid_));
      if (!pending_valid_) return Status::OK();
    }
    size_t n = 0;
    for (;;) {
      GSOPT_RETURN_IF_ERROR(block_mem->Charge(RowBytes(pending_.t), stage_));
      if (n == block_heads_.size()) block_heads_.emplace_back();
      std::swap(block_heads_[n++], pending_);
      GSOPT_RETURN_IF_ERROR(PopHead(&pending_, &pending_valid_));
      if (!pending_valid_ ||
          cmp_.Compare(pending_.keys, block_heads_[0].keys) != 0) {
        break;  // pending_ (if any) starts the next block
      }
    }
    for (size_t i = 0; i < n; ++i) {
      block->rows.push_back({&block_heads_[i].t, block_heads_[i].orig});
    }
    for (const Value& v : block_heads_[0].keys) block->keys.push_back(&v);
    return Status::OK();
  }

  uint64_t skipped() const { return skipped_; }

  // Staged rows per distinct first-key prefix, rounded up: the mean block
  // size of an in-memory stream (distinct keys sharing a prefix only raise
  // it). 1 once the stream has spilled.
  uint64_t MeanBlockRows() const {
    if (order_.empty()) return 1;
    uint64_t distinct = 1;
    for (size_t i = 1; i < order_.size(); ++i) {
      if (order_[i].prefix != order_[i - 1].prefix) ++distinct;
    }
    return (order_.size() + distinct - 1) / distinct;
  }
  uint64_t total_runs() const { return total_runs_; }
  uint64_t merge_passes() const { return merge_passes_; }
  bool external() const { return total_runs_ > 0; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  struct Run {
    SpillFile file;
    int64_t count = 0;   // records in the file
    int64_t cursor = 0;  // records consumed
  };

  // Memory charged per staged row: the footprint a staged copy of the row
  // and its keys used to have, so the cap trips at the same row as it
  // always did and spilled runs keep their size.
  uint64_t RowBytes(const Tuple& t) const {
    return ApproxTupleBytes(t) + 24 * static_cast<uint64_t>(keys_.size()) +
           48;
  }

  // Evaluates the expression keys of `t` into row_keys_ (column keys stay
  // in place); false when the row leaves the stream on a NULL key.
  bool EvalRowKeys(const Tuple& t) {
    row_keys_.clear();
    for (const KeyRef& k : keys_) {
      if (k.col >= 0) {
        if (skip_null_ && t.values[k.col].is_null()) return false;
        continue;
      }
      row_keys_.push_back(k.expr->Eval(t, src_.schema()));
      if (skip_null_ && row_keys_.back().is_null()) return false;
    }
    return true;
  }

  const Value* const* KeysAt(size_t pos) const {
    return key_ptrs_.data() + pos * keys_.size();
  }

  // The input row at sorted position i of the in-memory stage.
  const Tuple& SortedRow(size_t i) const {
    return src_.row(staged_[order_[i].pos]);
  }

  void PrefetchAhead() const {
    if (pos_ + kPrefetchAhead >= order_.size()) return;
    const char* row =
        reinterpret_cast<const char*>(&SortedRow(pos_ + kPrefetchAhead));
    for (size_t line = 0; line < sizeof(Tuple); line += 64) {
      Prefetch(row + line);
    }
  }

  // Points key_ptrs_ at every staged row's key values and sorts order_,
  // a permutation of stage positions, over them. Stage positions follow
  // input order, so the position tie-break makes the plain sort stable.
  void SortStage() {
    const size_t n = staged_.size();
    key_ptrs_.resize(n * keys_.size());
    order_.resize(n);
    const Value** kp = key_ptrs_.data();
    const Value* ev = evaluated_.data();
    for (size_t p = 0; p < n; ++p) {
      const Tuple& t = src_.row(staged_[p]);
      for (const KeyRef& k : keys_) {
        *kp++ = k.col >= 0 ? &t.values[k.col] : ev++;
      }
      uint64_t prefix = 0;
      if (!keys_.empty()) {
        prefix = Abbreviate(*KeysAt(p)[0]);
        if (cmp_.desc[0]) prefix = ~prefix;
      }
      order_[p] = Entry{prefix, p};
    }
    auto less = [this](const Entry& x, const Entry& y) {
      if (x.prefix != y.prefix) return x.prefix < y.prefix;
      int c = cmp_.Compare(KeysAt(x.pos), KeysAt(y.pos));
      return c != 0 ? c < 0 : x.pos < y.pos;
    };
    // Presorted-input short-circuit: one linear scan instead of the full
    // comparison sort. This is what makes a merge join over an already
    // ordered input cheap (the optimizer's interesting-order pass counts
    // on it).
    if (!std::is_sorted(order_.begin(), order_.end(), less)) {
      std::sort(order_.begin(), order_.end(), less);
    }
  }

  // Sorts the stage and writes it out as one run of full tuples.
  Status FlushRun() {
    SortStage();
    GSOPT_ASSIGN_OR_RETURN(
        SpillFile f, SpillFile::Create(SpillDir(), ctx_.fault));
    Run run{std::move(f), 0, 0};
    std::string scratch;
    for (const Entry& e : order_) {
      const int64_t orig = staged_[e.pos];
      GSOPT_RETURN_IF_ERROR(
          WriteTupleRecord(&run.file, src_.row(orig), orig, &scratch));
      ++run.count;
    }
    bytes_written_ += run.file.bytes_written();
    runs_.push_back(std::move(run));
    ++total_runs_;
    staged_.clear();
    evaluated_.clear();
    key_ptrs_.clear();
    order_.clear();
    mem_.Release();
    return Status::OK();
  }

  std::string SpillDir() const {
    return ctx_.spill != nullptr ? ctx_.spill->dir : std::string();
  }

  // Strict weak ordering with input-order tie-break: stable no matter how
  // rows moved between spilled runs.
  bool HeadLess(const Head& x, const Head& y) const {
    int c = cmp_.Compare(x.keys, y.keys);
    return c != 0 ? c < 0 : x.orig < y.orig;
  }

  // Reads the next record of run r into *h and re-evaluates its keys (rows
  // were filtered before being written, so none is NULL-skipped here).
  Status ReadOne(Run* r, Head* h) {
    GSOPT_RETURN_IF_ERROR(ReadTupleRecord(&r->file, &h->t, &h->orig));
    ++r->cursor;
    h->keys.clear();
    for (const KeyRef& k : keys_) {
      h->keys.push_back(k.col >= 0 ? h->t.values[k.col]
                                   : k.expr->Eval(h->t, src_.schema()));
    }
    return Status::OK();
  }

  // Merges groups of kMergeFanIn runs into single runs until at most
  // kMergeFanIn remain for the final streaming merge.
  Status MergeToFanIn() {
    while (runs_.size() > kMergeFanIn) {
      ++merge_passes_;
      std::vector<Run> next;
      for (size_t base = 0; base < runs_.size(); base += kMergeFanIn) {
        size_t end = std::min(runs_.size(), base + kMergeFanIn);
        if (end - base == 1) {
          next.push_back(std::move(runs_[base]));
          continue;
        }
        std::vector<Head> heads(end - base);
        std::vector<char> live(end - base, 0);
        for (size_t r = base; r < end; ++r) {
          GSOPT_RETURN_IF_ERROR(runs_[r].file.Rewind());
          if (runs_[r].count > 0) {
            GSOPT_RETURN_IF_ERROR(ReadOne(&runs_[r], &heads[r - base]));
            live[r - base] = 1;
          }
        }
        GSOPT_ASSIGN_OR_RETURN(
            SpillFile f, SpillFile::Create(SpillDir(), ctx_.fault));
        Run merged{std::move(f), 0, 0};
        std::string scratch;
        for (;;) {
          GSOPT_RETURN_IF_ERROR(ctx_.Tick(stage_));
          size_t best = heads.size();
          for (size_t h = 0; h < heads.size(); ++h) {
            if (!live[h]) continue;
            if (best == heads.size() || HeadLess(heads[h], heads[best])) {
              best = h;
            }
          }
          if (best == heads.size()) break;
          GSOPT_RETURN_IF_ERROR(WriteTupleRecord(
              &merged.file, heads[best].t, heads[best].orig, &scratch));
          ++merged.count;
          Run& src = runs_[base + best];
          if (src.cursor < src.count) {
            GSOPT_RETURN_IF_ERROR(ReadOne(&src, &heads[best]));
          } else {
            live[best] = 0;
            bytes_read_ += src.file.bytes_read();
            src.file.Discard();
          }
        }
        bytes_written_ += merged.file.bytes_written();
        next.push_back(std::move(merged));
      }
      runs_ = std::move(next);
    }
    return Status::OK();
  }

  Status LoadHeads() {
    heads_.resize(runs_.size());
    head_live_.assign(runs_.size(), 0);
    for (size_t r = 0; r < runs_.size(); ++r) {
      GSOPT_RETURN_IF_ERROR(runs_[r].file.Rewind());
      runs_[r].cursor = 0;
      if (runs_[r].count > 0) {
        GSOPT_RETURN_IF_ERROR(ReadOne(&runs_[r], &heads_[r]));
        head_live_[r] = 1;
      }
    }
    return Status::OK();
  }

  // Swaps the least run head into *out (whose buffers the run's next read
  // reuses) and advances that run. *ok = false when every run is drained.
  Status PopHead(Head* out, bool* ok) {
    size_t best = heads_.size();
    for (size_t r = 0; r < heads_.size(); ++r) {
      if (!head_live_[r]) continue;
      if (best == heads_.size() || HeadLess(heads_[r], heads_[best])) {
        best = r;
      }
    }
    *ok = best < heads_.size();
    if (!*ok) return Status::OK();
    std::swap(*out, heads_[best]);
    Run& run = runs_[best];
    if (run.cursor < run.count) return ReadOne(&run, &heads_[best]);
    head_live_[best] = 0;
    bytes_read_ += run.file.bytes_read();
    run.file.Discard();
    return Status::OK();
  }

  const Relation& src_;
  const std::vector<KeyRef> keys_;
  const bool skip_null_;
  const KeyCmp cmp_;
  const ExecContext& ctx_;
  const char* stage_;
  // No fault injector and no budget: every charge is a no-op, so the
  // in-memory block path skips computing it (and the row read it needs).
  const bool idle_;
  OpMemory mem_;

  // The in-memory stage: input row index per stage position, the
  // evaluated keys of each position (expression keys only, in key order),
  // keys_.size() key pointers per position, and the sorted permutation of
  // positions with their first key's prefix.
  struct Entry {
    uint64_t prefix;
    size_t pos;
  };
  std::vector<int64_t> staged_;
  std::vector<Value> row_keys_;
  std::vector<Value> evaluated_;
  std::vector<const Value*> key_ptrs_;
  std::vector<Entry> order_;
  size_t pos_ = 0;

  std::vector<Run> runs_;
  std::vector<Head> heads_;
  std::vector<char> head_live_;
  Head out_head_;
  Head pending_;
  bool pending_valid_ = false;
  std::vector<Head> block_heads_;

  uint64_t skipped_ = 0;
  uint64_t total_runs_ = 0;
  uint64_t merge_passes_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t bytes_read_ = 0;
};

void FlushStreamStats(const SortedStream& s, OperatorStats* st) {
  if (st == nullptr) return;
  st->sort_runs += s.total_runs();
  st->sort_merge_passes += s.merge_passes();
  if (s.external()) {
    st->spilled = true;
    st->spill_bytes_written += s.bytes_written();
    st->spill_bytes_read += s.bytes_read();
  }
}

}  // namespace

StatusOr<Relation> Sort(const Relation& r, const SortSpec& spec,
                        const ExecContext& ctx) {
  std::vector<KeyRef> keys;
  KeyCmp cmp;
  for (const SortKey& k : spec) {
    int i = r.schema().Find(k.attr.rel, k.attr.name);
    if (i < 0) {
      return Status::InvalidArgument("sort: missing attribute " +
                                     k.attr.Qualified());
    }
    keys.push_back(KeyRef{i, nullptr});
    cmp.desc.push_back(k.desc ? 1 : 0);
  }
  OperatorStats* st = ctx.stats;
  if (st != nullptr) {
    st->rows_in += static_cast<uint64_t>(r.NumRows());
    st->sort_rows += static_cast<uint64_t>(r.NumRows());
  }
  SortedStream stream(r, std::move(keys), /*skip_null=*/false,
                      std::move(cmp), ctx, "sort");
  GSOPT_RETURN_IF_ERROR(stream.Init());

  Relation out(r.schema(), r.vschema());
  out.Reserve(r.NumRows());
  for (;;) {
    bool ok = false;
    GSOPT_RETURN_IF_ERROR(stream.AppendNext(&out, &ok));
    if (!ok) break;
    GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "sort"));
  }
  FlushStreamStats(stream, st);
  if (st != nullptr) st->rows_out += static_cast<uint64_t>(out.NumRows());
  return out;
}

Status CheckSorted(const Relation& r, const SortSpec& spec) {
  std::vector<int> idx;
  std::vector<char> desc;
  for (const SortKey& k : spec) {
    int i = r.schema().Find(k.attr.rel, k.attr.name);
    if (i < 0) {
      return Status::InvalidArgument("check-sorted: missing attribute " +
                                     k.attr.Qualified());
    }
    idx.push_back(i);
    desc.push_back(k.desc ? 1 : 0);
  }
  for (int64_t i = 1; i < r.NumRows(); ++i) {
    const Tuple& prev = r.row(i - 1);
    const Tuple& cur = r.row(i);
    for (size_t k = 0; k < idx.size(); ++k) {
      int c = CompareValuesTotal(prev.values[idx[k]], cur.values[idx[k]]);
      if (desc[k]) c = -c;
      if (c < 0) break;
      if (c > 0) {
        return Status::Internal(
            "rows " + std::to_string(i - 1) + ".." + std::to_string(i) +
            " violate ORDER BY " + SortSpecToString(spec) + ": " +
            prev.values[idx[k]].ToString() + " vs " +
            cur.values[idx[k]].ToString());
      }
    }
  }
  return Status::OK();
}

namespace internal {

StatusOr<JoinCoreResult> MergeJoinCore(const Relation& a, const Relation& b,
                                       const HashPlan& plan,
                                       const ExecContext& ctx) {
  JoinCoreResult res;
  Schema out_schema = Schema::Concat(a.schema(), b.schema());
  VirtualSchema out_vschema = VirtualSchema::Concat(a.vschema(), b.vschema());
  res.out = Relation(out_schema, out_vschema);
  res.a_matched.assign(static_cast<size_t>(a.NumRows()), 0);
  res.b_matched.assign(static_cast<size_t>(b.NumRows()), 0);
  OperatorStats* st = ctx.stats;
  if (st != nullptr) {
    st->merge_path = true;
    st->sort_rows += static_cast<uint64_t>(a.NumRows()) +
                     static_cast<uint64_t>(b.NumRows());
  }

  // Column keys are read in place; any other key scalar is evaluated once
  // per row. NULL never equi-matches under 3VL, so NULL-keyed rows leave
  // the merge entirely, exactly like EncodeKeys' skip on the hash path.
  auto side_keys = [](const Relation& r, const std::vector<ScalarPtr>& ks) {
    std::vector<KeyRef> refs;
    for (const ScalarPtr& k : ks) {
      int col = k->kind() == Scalar::Kind::kColumn
                    ? r.schema().Find(k->rel(), k->name())
                    : -1;
      refs.push_back(col >= 0 ? KeyRef{col, nullptr} : KeyRef{-1, k});
    }
    return refs;
  };
  KeyCmp cmp{std::vector<char>(plan.a_keys.size(), 0), /*key_class=*/true};
  SortedStream sa(a, side_keys(a, plan.a_keys), /*skip_null=*/true, cmp, ctx,
                  "merge-join");
  SortedStream sb(b, side_keys(b, plan.b_keys), /*skip_null=*/true, cmp, ctx,
                  "merge-join");
  GSOPT_RETURN_IF_ERROR(sa.Init());
  GSOPT_RETURN_IF_ERROR(sb.Init());
  if (st != nullptr) st->null_key_skips += sa.skipped() + sb.skipped();

  // Pre-size the output the way the hash paths do: expect each a row to
  // match b's mean block. Clamped like their reservations, so a large
  // input cannot commit unbounded memory before the row cap or deadline
  // fires.
  constexpr uint64_t kMaxReserve = 1u << 20;
  const uint64_t expected =
      (static_cast<uint64_t>(a.NumRows()) - sa.skipped()) *
      sb.MeanBlockRows();
  res.out.Reserve(static_cast<int64_t>(std::min(expected, kMaxReserve)));
  Predicate residual(plan.residual);
  const bool has_residual = !plan.residual.empty();
  // With no fault injector and no budget, Tick and ChargeRows are no-ops;
  // checking that once keeps the per-pair loop free of dead policy probes
  // (the columnar join's idiom).
  const bool idle = ctx.fault == nullptr && ctx.budget == nullptr;
  SortedStream::Block ba, bb;
  OpMemory mem_a(ctx), mem_b(ctx);
  GSOPT_RETURN_IF_ERROR(sa.NextBlock(&ba, &mem_a));
  GSOPT_RETURN_IF_ERROR(sb.NextBlock(&bb, &mem_b));
  while (!ba.empty() && !bb.empty()) {
    GSOPT_RETURN_IF_ERROR(ctx.Tick("merge-join"));
    int c = cmp.Compare(ba.keys.data(), bb.keys.data());
    if (c < 0) {
      mem_a.Release();
      GSOPT_RETURN_IF_ERROR(sa.NextBlock(&ba, &mem_a));
      continue;
    }
    if (c > 0) {
      mem_b.Release();
      GSOPT_RETURN_IF_ERROR(sb.NextBlock(&bb, &mem_b));
      continue;
    }
    for (const SortedStream::BlockRow& x : ba.rows) {
      for (const SortedStream::BlockRow& y : bb.rows) {
        if (!idle) GSOPT_RETURN_IF_ERROR(ctx.Tick("merge-join"));
        if (st != nullptr) ++st->residual_evals;
        if (has_residual) {
          Tuple t = Tuple::Concat(*x.t, *y.t);
          if (!residual.Satisfied(t, out_schema)) continue;
          res.out.Add(std::move(t));
        } else {
          // No residual: build the output row in place, skipping the
          // intermediate concat tuple.
          res.out.AddConcat(*x.t, *y.t);
        }
        res.a_matched[static_cast<size_t>(x.orig)] = 1;
        res.b_matched[static_cast<size_t>(y.orig)] = 1;
        if (!idle) GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "merge-join"));
      }
    }
    mem_a.Release();
    mem_b.Release();
    GSOPT_RETURN_IF_ERROR(sa.NextBlock(&ba, &mem_a));
    GSOPT_RETURN_IF_ERROR(sb.NextBlock(&bb, &mem_b));
  }
  FlushStreamStats(sa, st);
  FlushStreamStats(sb, st);
  return res;
}

}  // namespace internal

}  // namespace gsopt::exec
