#include "common.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

namespace gsbench {

namespace {

void AppendValue(const gsopt::Value& v, std::string* out) {
  using gsopt::ValueType;
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt: {
      int64_t x = v.AsInt();
      out->append(reinterpret_cast<const char*>(&x), sizeof(x));
      break;
    }
    case ValueType::kDouble: {
      double d = v.AsDouble();
      if (d == 0.0) d = 0.0;                // -0.0 and +0.0 are one value
      if (std::isnan(d)) d = std::nan("");  // one NaN class
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      out->append(reinterpret_cast<const char*>(&bits), sizeof(bits));
      break;
    }
    case ValueType::kString: {
      const std::string& s = v.AsString();
      uint64_t n = s.size();
      out->append(reinterpret_cast<const char*>(&n), sizeof(n));
      out->append(s);
      break;
    }
  }
}

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Hash(const std::string& bytes, uint64_t seed) {
  uint64_t h = 1469598103934665603ull ^ seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return Mix(h);
}

// Column order that makes fingerprints independent of the plan's output
// column order: sorted by qualified name, ties kept in schema order.
std::vector<int> NameOrder(const std::vector<std::string>& names) {
  std::vector<int> order(names.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return names[a] < names[b]; });
  return order;
}

template <typename RowFn>
Fingerprint Combine(const std::vector<std::string>& names, size_t nrows,
                    RowFn value_at) {
  Fingerprint fp;
  std::vector<int> order = NameOrder(names);
  std::string header;
  for (int c : order) header += names[c] + '\n';
  fp.columns = Hash(header, 0);
  fp.rows = nrows;
  std::string row;
  for (size_t i = 0; i < nrows; ++i) {
    row.clear();
    for (int c : order) AppendValue(value_at(i, c), &row);
    fp.h1 += Hash(row, 0x243F6A8885A308D3ull);
    fp.h2 += Hash(row, 0x13198A2E03707344ull);
  }
  return fp;
}

}  // namespace

std::string Request::Key() const {
  if (kind == Kind::kQuery) return "Q|" + sql;
  std::string k = (kind == Kind::kPrepare ? "P|" : "E|") +
                  std::to_string(stmt);
  for (const gsopt::Value& v : params) k += "|" + v.ToString();
  return k;
}

Fingerprint FingerprintOf(const gsopt::Relation& r) {
  std::vector<std::string> names;
  for (int c = 0; c < r.schema().size(); ++c) {
    names.push_back(r.schema().attr(c).Qualified());
  }
  return Combine(names, static_cast<size_t>(r.NumRows()),
                 [&](size_t i, int c) -> const gsopt::Value& {
                   return r.rows()[i].values[static_cast<size_t>(c)];
                 });
}

Fingerprint FingerprintOf(const gsopt::server::WireResult& r) {
  return Combine(r.columns, r.rows.size(),
                 [&](size_t i, int c) -> const gsopt::Value& {
                   return r.rows[i][static_cast<size_t>(c)];
                 });
}

void ResultChecker::Observe(const std::string& key, const Fingerprint& fp) {
  Fingerprint f = fp;
  if (corrupt_first_) {
    f.h1 ^= 1;
    corrupt_first_ = false;
  }
  auto& seen = seen_[key];
  for (auto& [d, n] : seen.distinct) {
    if (d == f) {
      ++n;
      return;
    }
  }
  seen.distinct.emplace_back(f, 1);
}

std::vector<std::string> ResultChecker::PendingKeys() const {
  std::vector<std::string> keys;
  for (const auto& [key, seen] : seen_) {
    if (!seen.has_reference) keys.push_back(key);
  }
  return keys;
}

void ResultChecker::SetReference(const std::string& key,
                                 const Fingerprint& fp) {
  auto& seen = seen_[key];
  seen.has_reference = true;
  seen.reference = fp;
}

uint64_t ResultChecker::Mismatches() const {
  uint64_t bad = 0;
  for (const auto& [key, seen] : seen_) {
    for (const auto& [fp, n] : seen.distinct) {
      if (!seen.has_reference || fp != seen.reference) bad += n;
    }
  }
  return bad;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LatencySummary Summarize(std::vector<double> values) {
  LatencySummary s;
  s.samples = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  s.p50 = Median(values);
  // Index of the 0.99 quantile, pulled down until 10 samples lie beyond.
  size_t idx =
      static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  if (n >= 11 && n - 1 - idx < 10) idx = n - 11;
  if (n < 11) idx = 0;
  s.tail = values[idx];
  s.tail_percentile = static_cast<double>(idx + 1) / static_cast<double>(n);
  return s;
}

LatencySummary SummarizeWindows(const std::vector<double>& in_order) {
  const size_t k = in_order.size() / kLatencyWindow;
  if (k < 2) return Summarize(in_order);
  LatencySummary out;
  out.samples = in_order.size();
  out.windows = k;
  std::vector<double> p50s, tails;
  for (size_t w = 0; w < k; ++w) {
    const auto begin = in_order.begin() + w * kLatencyWindow;
    const auto end = w + 1 == k ? in_order.end() : begin + kLatencyWindow;
    const LatencySummary s = Summarize(std::vector<double>(begin, end));
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
    if (w == 0) out.tail_percentile = s.tail_percentile;
  }
  out.p50 = Median(p50s);
  out.tail = Median(tails);
  return out;
}

namespace {
// Keeps HostProbeMs's read pass from being optimized away.
volatile uint64_t probe_sink = 0;
}  // namespace

double HostProbeMs() {
  constexpr size_t kWords = (4u << 20) / sizeof(uint64_t);
  const Clock::time_point t0 = Clock::now();
  void* mem = ::mmap(nullptr, kWords * sizeof(uint64_t),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
  if (mem == MAP_FAILED) {
    std::fprintf(stderr, "gsbench: host probe: mmap failed\n");
    std::exit(1);
  }
  uint64_t* words = static_cast<uint64_t*>(mem);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < kWords; ++i) {
    h = (h ^ i) * 1099511628211ull;
    words[i] = h;
  }
  uint64_t sum = 0;
  for (size_t i = 0; i < kWords; ++i) sum += words[(i * 7919) & (kWords - 1)];
  ::munmap(mem, kWords * sizeof(uint64_t));
  const double ms = Micros(Clock::now() - t0) / 1000.0;
  probe_sink = sum;
  return ms;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string ReadFirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (in && std::getline(in, line)) return line;
  return "";
}

// The cgroup CPU limit as "<quota> <period>" (v2 cpu.max, or v1 cfs
// files), "max ..." when unlimited, "unknown" when neither is readable.
std::string CgroupCpuQuota() {
  std::string v2 = ReadFirstLine("/sys/fs/cgroup/cpu.max");
  if (!v2.empty()) return v2;
  std::string quota = ReadFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::string period = ReadFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  if (!quota.empty()) return quota + " " + period;
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

std::string MetadataJson(const std::string& workload, uint64_t seed,
                         double offered_rate, const std::string& git_rev) {
  std::ostringstream os;
  os << "{\"workload\": \"" << JsonEscape(workload) << "\", \"seed\": " << seed
     << ", \"offered_rate_per_s\": ";
  if (offered_rate > 0) {
    os << offered_rate;
  } else {
    os << "null";
  }
  os << ", \"git_rev\": \"" << JsonEscape(git_rev) << "\""
     << ", \"build_type\": \"" << GSBENCH_BUILD_TYPE << "\""
     << ", \"compiler\": \"" << JsonEscape(GSBENCH_COMPILER) << "\""
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cgroup_cpu_quota\": \"" << JsonEscape(CgroupCpuQuota()) << "\"}";
  return os.str();
}

void PrintResult(const std::string& workload, bool correct,
                 uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s = %.6g %s\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

}  // namespace gsbench
