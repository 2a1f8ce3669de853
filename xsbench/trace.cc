#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

namespace xsbench {

SpanLog* Tracer::NewLog(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>(capacity));
  return logs_.back().get();
}

std::vector<double> Tracer::TimesUs(const char* name, uint32_t flags,
                                    bool self) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& log : logs_) {
    const std::vector<Span>& spans = log->spans();
    // Time covered by each span's children. A parent always precedes its
    // children in the log, and a thread's children do not overlap.
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (std::strcmp(s.name, name) != 0 || (s.flags & flags) != flags ||
          s.end_ns == 0) {
        continue;
      }
      out.push_back((s.end_ns - s.start_ns - (self ? child_ns[i] : 0)) / 1e3);
    }
  }
  return out;
}

double Tracer::MedianUs(const char* name, uint32_t flags, bool self) const {
  std::vector<double> v = TimesUs(name, flags, self);
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

std::vector<double> Tracer::PerRequestSumsUs(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double> sums;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (std::strcmp(s.name, name) == 0 && s.end_ns != 0) {
        sums[s.req] += (s.end_ns - s.start_ns) / 1e3;
      }
    }
  }
  std::vector<double> out;
  for (const auto& [req, us] : sums) out.push_back(us);
  return out;
}

bool Tracer::WriteFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "log\tindex\tname\tstart_ns\tend_ns\tparent\treq\tflags\n");
  for (size_t l = 0; l < logs_.size(); ++l) {
    const std::vector<Span>& spans = logs_[l]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%s\t%lld\t%lld\t%d\t%llu\t%u\n", l, i,
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.req), s.flags);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace xsbench
