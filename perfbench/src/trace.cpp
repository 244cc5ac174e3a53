#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <set>

namespace pb {

const char* intern(const std::string& name) {
  static std::mutex m;
  static std::set<std::string> names;  // node-based: element addresses are stable
  std::lock_guard<std::mutex> lk(m);
  return names.insert(name).first->c_str();
}

void SpanLog::merge(const SpanLog& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

double Agg::median_ns() const {
  if (dur_ns.empty()) return 0;
  std::vector<double> v = dur_ns;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

std::map<std::string, Agg> aggregate(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> covered(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.end >= 0 && s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end - s.start);
    }
  }
  std::map<std::string, Agg> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end < 0) continue;  // never closed: the request was lost
    const double dur = static_cast<double>(s.end - s.start);
    Agg& a = out[s.name];
    a.dur_ns.push_back(dur);
    a.work += s.work;
    a.total_ns += dur;
    a.self_ns += dur - covered[i];
  }
  return out;
}

bool write_trace(const SpanLog& log, const std::string& csv_path,
                 const std::string& summary_path) {
  std::FILE* f = std::fopen(csv_path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,req,work\n");
  for (const Span& s : log.spans()) {
    std::fprintf(f, "%s,%lld,%lld,%d,%llu,%.17g\n", s.name, static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent,
                 static_cast<unsigned long long>(s.req), s.work);
  }
  const bool csv_ok = std::fclose(f) == 0;
  f = std::fopen(summary_path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  const std::map<std::string, Agg> aggs = aggregate(log);
  std::size_t i = 0;
  for (const auto& [name, a] : aggs) {
    std::fprintf(f,
                 "  \"%s\": {\"count\": %zu, \"total_ms\": %.6f, \"self_ms\": %.6f, "
                 "\"median_us\": %.4f, \"work\": %.17g}%s\n",
                 name.c_str(), a.dur_ns.size(), a.total_ns / 1e6, a.self_ns / 1e6,
                 a.median_ns() / 1e3, a.work, ++i == aggs.size() ? "" : ",");
  }
  std::fprintf(f, "}\n");
  return std::fclose(f) == 0 && csv_ok;
}

}  // namespace pb
