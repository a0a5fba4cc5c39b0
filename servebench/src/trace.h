#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

// In-memory span log for the traced run. Spans are recorded from the
// benchmark's own files, around its calls into each module's public
// functions; nothing inside the program is instrumented. Each thread
// appends to its own buffer, so recording takes no lock; the buffers are
// merged and written out once, when the run ends.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace servebench {

/// The module boundary a span covers.
enum class SpanName : uint8_t {
  kRequest,       // one sampled request: the parent of the spans below
  kGetProximity,  // ProximityProvider::GetProximity for the query user
  kEngineQuery,   // SocialSearchEngine::Query on one engine / shard
  kSearch,        // SearchService::Search
  kBuild,         // LocalSearchService / ShardedSearchService::Build
  kWarmup,        // the warm-up pass after Build
};

const char* SpanNameString(SpanName name);

struct Span {
  SpanName name = SpanName::kRequest;
  /// Search / request: query class; GetProximity: ProximityOutcome;
  /// engine Query: shard index. 0 otherwise.
  int32_t detail = 0;
  uint64_t request_id = 0;
  /// Index of the parent span in the same list; -1 for a root.
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans; only the owning thread appends.
class SpanBuffer {
 public:
  /// Opens a span and returns its index in this buffer.
  size_t Open(SpanName name, int32_t detail, uint64_t request_id,
              int64_t parent, int64_t start_ns);
  void Close(size_t index, int64_t end_ns) { spans_[index].end_ns = end_ns; }
  /// Records a span whose end is already known.
  size_t Add(SpanName name, int32_t detail, uint64_t request_id,
             int64_t parent, int64_t start_ns, int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t spans) { spans_.reserve(spans); }

 private:
  std::vector<Span> spans_;
};

class Tracer {
 public:
  /// One buffer per recording thread, created up front so that threads
  /// never touch shared state while they record; each reserves room for
  /// `spans_per_thread` spans so that recording rarely allocates.
  Tracer(size_t threads, size_t spans_per_thread);

  SpanBuffer* buffer(size_t thread) { return &buffers_[thread]; }
  uint64_t NextRequestId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// All spans, buffer after buffer, parents rebased to the merged list.
  std::vector<Span> Collect() const;

 private:
  std::vector<SpanBuffer> buffers_;
  std::atomic<uint64_t> next_request_id_{1};
};

/// Writes `spans` as one JSON object per line; false on an I/O error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// A sampled request reassembled from its spans.
struct SampledRequest {
  int32_t query_class = 0;
  int32_t proximity_outcome = 0;
  double proximity_us = 0.0;
  /// One entry per engine Query span (one per shard).
  std::vector<double> engine_us;
  double search_us = 0.0;
  /// True when Search ran before the engine Query calls.
  bool search_first = false;
  /// Request span minus what its children cover: the benchmark's own
  /// time between the calls.
  double self_us = 0.0;
};

/// Reassembles every kRequest root of `spans` with its children.
std::vector<SampledRequest> SampledRequests(const std::vector<Span>& spans);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
