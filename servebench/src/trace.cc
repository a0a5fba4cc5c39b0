#include "trace.h"

#include <cstdio>

#include "stats.h"

namespace servebench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRequest:
      return "request";
    case SpanName::kGetProximity:
      return "ProximityProvider::GetProximity";
    case SpanName::kEngineQuery:
      return "SocialSearchEngine::Query";
    case SpanName::kSearch:
      return "SearchService::Search";
    case SpanName::kBuild:
      return "SearchService::Build";
    case SpanName::kWarmup:
      return "warmup";
  }
  return "unknown";
}

size_t SpanBuffer::Open(SpanName name, int32_t detail, uint64_t request_id,
                        int64_t parent, int64_t start_ns) {
  return Add(name, detail, request_id, parent, start_ns, start_ns);
}

size_t SpanBuffer::Add(SpanName name, int32_t detail, uint64_t request_id,
                       int64_t parent, int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{name, detail, request_id, parent, start_ns, end_ns});
  return spans_.size() - 1;
}

Tracer::Tracer(size_t threads, size_t spans_per_thread) : buffers_(threads) {
  for (SpanBuffer& buffer : buffers_) buffer.Reserve(spans_per_thread);
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  for (const SpanBuffer& buffer : buffers_) {
    const int64_t base = static_cast<int64_t>(all.size());
    for (Span span : buffer.spans()) {
      if (span.parent >= 0) span.parent += base;
      all.push_back(span);
    }
  }
  return all;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"detail\":%d,\"request\":%llu,"
                 "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, SpanNameString(s.name), s.detail,
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

std::vector<SampledRequest> SampledRequests(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<SampledRequest> requests;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& root = spans[i];
    if (root.name != SpanName::kRequest || root.parent >= 0) continue;
    SampledRequest request;
    request.query_class = root.detail;
    std::vector<Interval> covered;
    int64_t search_start = 0;
    int64_t first_engine_start = 0;
    for (const size_t c : children[i]) {
      const Span& child = spans[c];
      const double us = (child.end_ns - child.start_ns) / 1e3;
      covered.push_back(Interval{child.start_ns, child.end_ns});
      switch (child.name) {
        case SpanName::kGetProximity:
          request.proximity_us = us;
          request.proximity_outcome = child.detail;
          break;
        case SpanName::kEngineQuery:
          if (request.engine_us.empty()) first_engine_start = child.start_ns;
          request.engine_us.push_back(us);
          break;
        case SpanName::kSearch:
          request.search_us = us;
          search_start = child.start_ns;
          break;
        default:
          break;
      }
    }
    request.search_first = search_start < first_engine_start;
    request.self_us =
        SelfTime(Interval{root.start_ns, root.end_ns}, covered) / 1e3;
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace servebench
