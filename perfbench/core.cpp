#include "core.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    unsigned long long v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return (lower + upper) / 2;
}

Tail tail_of(std::vector<double> v) {
  // Percentiles in parts per 100000, so nearest ranks are exact integers.
  static constexpr std::uint64_t kLadder[] = {99999, 99990, 99900, 99000,
                                              90000};
  Tail t;
  t.samples = v.size();
  std::sort(v.begin(), v.end());
  for (const std::uint64_t p : kLadder) {
    const std::uint64_t n = v.size();
    const std::uint64_t rank = (p * n + 99999) / 100000;  // ceil(p·n)
    if (rank == 0 || n - rank < kTailBeyond) continue;
    t.present = true;
    t.percentile = static_cast<double>(p) / 1000.0;
    t.value = v[rank - 1];
    t.beyond = n - rank;
    return t;
  }
  return t;
}

// --- seeds -----------------------------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = mix64(seed ^ 0x6f72646572ull);
  for (std::size_t i = n; i > 1; --i) {
    state = mix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

// --- serve plan ------------------------------------------------------------

PlannedRequest plan_request(std::uint64_t seed, std::uint64_t index,
                            int specs) {
  const std::uint64_t h = mix64(mix64(seed ^ 0x7365727665ull) + index);
  PlannedRequest r;
  r.spec = static_cast<int>((h >> 8) % static_cast<std::uint64_t>(specs));
  r.miss = (h & 0xff) % kServeMissOneIn == 0;
  return r;
}

std::size_t miss_max_states(std::uint64_t index) {
  return (std::size_t{1} << 20) + 1 + static_cast<std::size_t>(index);
}

// --- golden gate -----------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::map<std::string, std::string> golden_records(const std::string& json) {
  // Canonical batch JSON puts one item record per line, indented four
  // spaces, comma-separated: `    {"name": "...", ...},`.
  static const std::string kPrefix = "    {\"name\": \"";
  std::map<std::string, std::string> records;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    std::string record = line.substr(4);
    if (!record.empty() && record.back() == ',') record.pop_back();
    const std::size_t name_end = line.find('"', kPrefix.size());
    if (name_end == std::string::npos) continue;
    records[line.substr(kPrefix.size(), name_end - kPrefix.size())] = record;
  }
  return records;
}

bool Gate::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return true;
  const long long n = ++failed_;
  if (n <= 5) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  if (n == 5) std::fprintf(stderr, "perfbench: (further failures not shown)\n");
  return false;
}

bool Gate::expect_bytes(const std::string& got, const std::string& want,
                        const std::string& what) {
  if (got == want) return check(true, what);
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  return check(false, what + ": output differs from the reference at byte " +
                          std::to_string(at));
}

// --- spans -----------------------------------------------------------------

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
      children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
  }
  std::vector<double> self(spans.size());
  std::vector<std::pair<double, double>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (const int c : children[i]) {
      const Span& child = spans[static_cast<std::size_t>(c)];
      const double a = std::max(s.start, child.start);
      const double b = std::min(s.end, child.end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, run_a = 0, run_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    self[i] = s.duration() - covered;
  }
  return self;
}

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::open(const char* name, long long unit, int parent) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t, t, parent, unit});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

void Tracer::record(const std::string& name, double start, double end,
                    int parent, long long unit) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, unit});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"traceEvents\": [\n";
  char buf[128];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf, "%.3f, \"dur\": %.3f", s.start * 1000.0,
                  s.duration() * 1000.0);
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << buf
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"unit\": " << s.unit << "}}";
  }
  out << "\n]}\n";
}

namespace {
thread_local int tls_current_span = -1;
thread_local long long tls_current_unit = -1;
}  // namespace

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, long long unit)
    : ScopedSpan(tracer, name, unit, tls_current_span) {}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, long long unit,
                       int parent)
    : tracer_(tracer) {
  if (!tracer_) return;
  id_ = tracer_->open(name, unit, parent);
  saved_parent_ = tls_current_span;
  saved_unit_ = tls_current_unit;
  tls_current_span = id_;
  tls_current_unit = unit;
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_) return;
  tracer_->close(id_);
  tls_current_span = saved_parent_;
  tls_current_unit = saved_unit_;
}

int ScopedSpan::current() { return tls_current_span; }
long long ScopedSpan::current_unit() { return tls_current_unit; }

// --- result line -----------------------------------------------------------

std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value))
      throw std::logic_error("metric " + m.name + " is not a finite number");
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
