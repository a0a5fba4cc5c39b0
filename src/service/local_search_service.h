#ifndef AMICI_SERVICE_LOCAL_SEARCH_SERVICE_H_
#define AMICI_SERVICE_LOCAL_SEARCH_SERVICE_H_

#include <memory>
#include <string>

#include "service/search_service.h"

namespace amici {

/// The single-node deployment: a SearchService with one shard, labelled
/// "local". With one shard the store moves into the engine whole, global
/// ids are the engine's ids, and a request runs on the calling thread —
/// the same path as any other shard count, configured.
class LocalSearchService final : public SearchService {
 public:
  /// options.num_shards is ignored (always 1).
  using Options = SearchService::Options;

  static Result<std::unique_ptr<LocalSearchService>> Build(
      SocialGraph graph, ItemStore store, Options options = Options()) {
    options.num_shards = 1;
    std::unique_ptr<LocalSearchService> service(
        new LocalSearchService(std::move(options)));
    AMICI_RETURN_IF_ERROR(
        service->BuildFrom(std::move(graph), std::move(store)));
    return service;
  }

  /// Reopens a one-shard snapshot; a multi-shard one is InvalidArgument
  /// (open it with SearchService::OpenSnapshot).
  static Result<std::unique_ptr<LocalSearchService>> OpenSnapshot(
      const std::string& dir, Options options,
      const persist::SnapshotOpenOptions& open_options =
          persist::SnapshotOpenOptions(),
      persist::WalReplayStats* replay_stats = nullptr) {
    options.num_shards = 1;
    std::unique_ptr<LocalSearchService> service(
        new LocalSearchService(std::move(options)));
    AMICI_RETURN_IF_ERROR(service->OpenFrom(dir, open_options, replay_stats));
    return service;
  }

  /// Escape hatch for engine-level tooling (benches reading build stats).
  SocialSearchEngine* engine() { return shard_engine(0); }

 private:
  explicit LocalSearchService(Options options)
      : SearchService(std::move(options), "local") {}
};

}  // namespace amici

#endif  // AMICI_SERVICE_LOCAL_SEARCH_SERVICE_H_
