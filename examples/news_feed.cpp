// News-feed scenario: alpha = 1 turns the service into a pure social feed
// — including the TAG-LESS form ("show me my friends' stuff", no topic at
// all). Demonstrates the incremental-ingest path through the service API:
// fresh posts are queryable immediately (tail scan), a whole burst is
// ingested as ONE AddItems batch (one snapshot publish), then folded into
// the indexes by Compact() — the main-index + memtable design borrowed
// from LSM storage engines.
//
//   ./build/examples/news_feed

#include <cstdio>
#include <memory>
#include <vector>

#include "service/local_search_service.h"
#include "workload/dataset_generator.h"

using namespace amici;

int main() {
  DatasetConfig config = SmallDataset();
  config.name = "feed";
  config.num_users = 3000;
  config.items_per_user = 3.0;
  config.num_tags = 1000;
  config.geo_fraction = 0.0;
  auto dataset = GenerateDataset(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  auto service_or = LocalSearchService::Build(std::move(dataset.value().graph),
                                              std::move(dataset.value().store));
  if (!service_or.ok()) {
    std::fprintf(stderr, "%s\n", service_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<SearchService> service = std::move(service_or).value();

  const UserId reader = 7;
  SearchRequest feed;
  feed.query.user = reader;
  // No tags at all: the pure-social feed ranks entirely by proximity.
  feed.query.k = 8;
  feed.query.alpha = 1.0;
  // Without this the reader's own posts (proximity 1.0) fill the page;
  // capping each owner at 2 lets friends through — still exact.
  feed.max_per_owner = 2;

  auto show = [&](const char* label) {
    const auto response = service->Search(feed);
    if (!response.ok()) {
      std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
      return;
    }
    std::printf("%s (%zu entries, %.3f ms):\n", label,
                response.value().items.size(), response.value().elapsed_ms);
    for (const auto& entry : response.value().items) {
      std::printf("  post %-6u by user %-5u social-score %.4f\n", entry.item,
                  service->OwnerOf(entry.item), entry.score);
    }
  };

  show("feed before new posts");

  // Friends post fresh content, ingested as ONE batch: a single
  // writer-lock acquisition and snapshot publish for the whole burst.
  // Visible immediately, no reindexing needed.
  const auto friends = service->FriendsOf(reader);
  std::printf("\nuser %u's friends post %zu new items (one batch)...\n",
              reader, friends.size());
  std::vector<Item> burst;
  for (const UserId poster : friends) {
    Item post;
    post.owner = poster;
    post.tags = {0};
    post.quality = 0.99f;  // hot off the press
    burst.push_back(post);
  }
  const auto ids = service->AddItems(burst);
  if (!ids.ok()) {
    std::fprintf(stderr, "%s\n", ids.status().ToString().c_str());
    return 1;
  }
  std::printf("unindexed tail: %zu items\n\n", service->unindexed_items());
  show("feed with fresh posts (tail-merged)");

  // Fold the tail into the indexes; the feed must not change.
  if (const auto status = service->Compact(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("\ncompacted; unindexed tail: %zu items\n\n",
              service->unindexed_items());
  show("feed after compaction (identical)");

  // --- The production-shaped write path: the ingest pipeline. ----------
  // Producers enqueue into an MPSC queue and return immediately; a
  // dedicated writer thread coalesces queued batches into few snapshot
  // publishes, and a background scheduler compacts when the tail (or the
  // tail-scan latency) crosses the policy's thresholds — no manual
  // Compact() anywhere.
  if (const auto status = service->StartIngest(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  CompactionScheduler::Options compaction;
  compaction.policy = {/*max_tail_items=*/64, /*max_tail_scan_ms=*/1.0,
                       /*min_tail_items=*/16};
  compaction.poll_interval_ms = 2.0;
  if (const auto status = service->StartAutoCompaction(compaction);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("\ningest pipeline up: friends post another burst, async...\n");
  std::vector<Item> evening_burst;
  for (const UserId poster : friends) {
    Item post;
    post.owner = poster;
    post.tags = {1};
    post.quality = 0.97f;
    evening_burst.push_back(post);
  }
  const auto ticket = service->EnqueueItems(evening_burst);
  if (!ticket.ok()) {
    std::fprintf(stderr, "%s\n", ticket.status().ToString().c_str());
    return 1;
  }
  // Flush() is the read-your-writes barrier: after it, the burst is
  // guaranteed queryable.
  if (const auto status = service->Flush(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("ticket resolved: %zu posts applied, first id %u\n",
              ticket.value().ids().size(), ticket.value().ids().front());
  show("feed after queued burst (read-your-writes via Flush)");

  const IngestCounters counters = service->ingest_counters();
  std::printf(
      "\ningest counters: %llu batches enqueued -> %llu AddItems calls, "
      "%llu items applied; %llu background compactions so far\n",
      static_cast<unsigned long long>(counters.batches_enqueued),
      static_cast<unsigned long long>(counters.apply_calls),
      static_cast<unsigned long long>(counters.items_applied),
      static_cast<unsigned long long>(service->auto_compactions()));
  // Orderly teardown (the destructor would also do this).
  service->StopAutoCompaction();
  service->StopIngest();
  return 0;
}
