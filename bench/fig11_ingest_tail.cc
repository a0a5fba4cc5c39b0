// Fig 11 (extension experiment) — the cost of freshness, in three parts.
//
// Part 1 (serial): query latency as the un-indexed ingest tail grows, and
// the effect of Compact(). The LSM-flavoured main-index + tail design
// keeps fresh items queryable at the price of an exhaustive tail scan;
// this quantifies when compaction pays.
//
// Part 2 (concurrent): the snapshot read/write split at work — a writer
// thread ingests at full speed (with a mid-stream Compact) while this
// thread keeps querying. Reported is the query latency DURING ingest and
// DURING compaction: no external exclusion, no stop-the-world.
//
// Part 3 (queue mode): the ingest pipeline — producers enqueue batches
// into the MPSC queue, the dedicated writer thread coalesces them into
// few AddItems calls (few snapshot publishes), and the background
// compaction scheduler keeps the tail bounded without any manual
// Compact(). Reported per backpressure mode: query latency during queued
// ingest plus the writer-side coalescing ratio.
//
// Part 4 (cold start): restart cost — full re-ingest (rebuild every
// index from the raw rows) vs snapshot map + WAL tail replay, across
// restart-tail sizes, plus the first-query latency each path pays right
// after coming up.
//
// Part 5 (friendship edits): per-edit latency of the delta-overlay edit
// path (replace the two endpoint rows, publish base + patch) vs the O(E)
// full-CSR splice it replaced, across graph sizes. The overlay p50 must
// stay flat in |E| while the splice grows linearly; the overlay max
// column shows the amortized fold spikes.
//
//   --smoke   small dataset / reduced volumes (CI smoke run)

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "graph/graph_generators.h"
#include "graph/graph_io.h"
#include "ingest/compaction_policy.h"
#include "proximity/proximity_provider.h"
#include "service/local_search_service.h"
#include "storage/item_store_io.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace amici;

namespace {

Item RandomItem(Rng& rng, size_t num_users) {
  Item item;
  item.owner = static_cast<UserId>(rng.UniformIndex(num_users));
  item.tags = {static_cast<TagId>(rng.UniformIndex(10000))};
  item.quality = static_cast<float>(rng.UniformDouble());
  return item;
}

/// Queries in a loop until `stop` flips, recording per-query latency.
LatencySummary QueryUntil(SocialSearchEngine* engine,
                          const std::vector<SocialQuery>& queries,
                          const std::atomic<bool>& stop) {
  LatencyRecorder recorder;
  while (!stop.load(std::memory_order_acquire)) {
    for (const SocialQuery& query : queries) {
      Stopwatch watch;
      const auto result = engine->Query(query, AlgorithmId::kHybrid);
      AMICI_CHECK(result.ok()) << result.status().ToString();
      recorder.Record(watch.ElapsedMillis());
      if (stop.load(std::memory_order_acquire)) break;
    }
  }
  return recorder.Summarize();
}

/// The O(E) baseline part 5 compares against: the full-CSR splice the
/// provider performed per edit before the delta-overlay representation —
/// copy both arrays, inserting/removing v in u's row and u in v's row.
SocialGraph RebuildCsrWithEdge(const SocialGraph& graph, UserId u, UserId v,
                               bool insert) {
  const size_t num_users = graph.num_users();
  std::vector<uint64_t> offsets;
  offsets.reserve(num_users + 1);
  offsets.push_back(0);
  std::vector<UserId> neighbors;
  neighbors.reserve(graph.total_adjacency_slots() + (insert ? 2 : 0));
  for (UserId row = 0; row < num_users; ++row) {
    const auto friends = graph.Friends(row);
    if (row != u && row != v) {
      neighbors.insert(neighbors.end(), friends.begin(), friends.end());
    } else {
      const UserId other = row == u ? v : u;
      bool placed = !insert;
      for (const UserId f : friends) {
        if (insert && !placed && f > other) {
          neighbors.push_back(other);
          placed = true;
        }
        if (!insert && f == other) continue;
        neighbors.push_back(f);
      }
      if (!placed) neighbors.push_back(other);
    }
    offsets.push_back(neighbors.size());
  }
  return SocialGraph(std::move(offsets), std::move(neighbors));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::PrintBanner(
      "Fig 11 (extension): hybrid latency vs un-indexed tail size "
      "[alpha=0.5, k=10]",
      "latency grows linearly with the tail; compaction restores the "
      "indexed baseline");

  bench::EngineBundle bundle =
      bench::BuildEngine(smoke ? SmallDataset() : MediumDataset());
  QueryWorkloadConfig workload;
  workload.num_queries = smoke ? 15 : 60;
  workload.k = 10;
  workload.alpha = 0.5;
  workload.seed = 1111;
  const auto queries = GenerateQueries(bundle.workload_view, workload);
  if (!queries.ok()) return 1;
  bench::WarmProximityCache(bundle.engine.get(), queries.value());

  const std::vector<size_t> tail_targets =
      smoke ? std::vector<size_t>{0, 1000, 5000}
            : std::vector<size_t>{0, 1000, 5000, 10000, 25000, 50000};
  Rng rng(5);
  TablePrinter table({"tail items", "hybrid mean ms", "hybrid p99 ms"});
  size_t added = 0;
  for (const size_t target : tail_targets) {
    while (added < target) {
      Item item;
      item.owner = static_cast<UserId>(
          rng.UniformIndex(bundle.engine->graph().num_users()));
      item.tags = {static_cast<TagId>(rng.UniformIndex(10000))};
      item.quality = static_cast<float>(rng.UniformDouble());
      if (!bundle.engine->AddItem(item).ok()) return 1;
      ++added;
    }
    const auto summary = bench::RunQueries(bundle.engine.get(),
                                           queries.value(),
                                           AlgorithmId::kHybrid);
    table.AddRow({WithThousandsSeparators(target), bench::Ms(summary.mean),
                  bench::Ms(summary.p99)});
    std::fprintf(stderr, "[bench] tail=%zu done\n", target);
  }

  if (!bundle.engine->Compact().ok()) return 1;
  const auto compacted = bench::RunQueries(bundle.engine.get(),
                                           queries.value(),
                                           AlgorithmId::kHybrid);
  table.AddRow({"after Compact()", bench::Ms(compacted.mean),
                bench::Ms(compacted.p99)});
  std::printf("%s", table.ToString().c_str());

  // ---- Part 1b: incremental (merge) vs full-rebuild compaction cost ----
  bench::PrintBanner(
      "Fig 11a (extension): compaction cost — incremental merge vs full "
      "rebuild, per tail size",
      "the merge path rebuilds only tail-touched lists (O(tail + touched "
      "lists)); the rebuild path pays the whole catalogue every time");

  TablePrinter compaction_cost({"tail items", "merge ms", "lists touched",
                                "rebuild ms", "lists rebuilt",
                                "catalogue items"});
  const std::vector<size_t> merge_tails =
      smoke ? std::vector<size_t>{500, 2000}
            : std::vector<size_t>{1000, 5000, 25000};
  Rng merge_rng(17);
  for (const size_t tail : merge_tails) {
    // Same tail size through both paths, back to back on the same
    // (growing) catalogue: first fold it incrementally, then grow an
    // identical tail and fold it with a full rebuild.
    for (size_t i = 0; i < tail; ++i) {
      AMICI_CHECK_OK(bundle.engine
                         ->AddItem(RandomItem(
                             merge_rng,
                             bundle.engine->graph().num_users()))
                         .status());
    }
    CompactionOutcome merge_outcome;
    AMICI_CHECK_OK(bundle.engine->Compact(CompactionMode::kAlwaysMerge,
                                          &merge_outcome));
    for (size_t i = 0; i < tail; ++i) {
      AMICI_CHECK_OK(bundle.engine
                         ->AddItem(RandomItem(
                             merge_rng,
                             bundle.engine->graph().num_users()))
                         .status());
    }
    CompactionOutcome rebuild_outcome;
    AMICI_CHECK_OK(bundle.engine->Compact(CompactionMode::kAlwaysRebuild,
                                          &rebuild_outcome));
    compaction_cost.AddRow(
        {WithThousandsSeparators(tail), bench::Ms(merge_outcome.elapsed_ms),
         WithThousandsSeparators(merge_outcome.lists_touched),
         bench::Ms(rebuild_outcome.elapsed_ms),
         WithThousandsSeparators(rebuild_outcome.lists_touched),
         WithThousandsSeparators(bundle.engine->store().num_items())});
    std::fprintf(stderr, "[bench] merge-vs-rebuild tail=%zu done\n", tail);
  }
  std::printf("%s", compaction_cost.ToString().c_str());

  // ---- Part 2: concurrent ingest + compaction vs query tail latency ----
  bench::PrintBanner(
      "Fig 11b (extension): query latency DURING concurrent ingest and "
      "compaction [snapshot read/write split]",
      "ingest and compaction run concurrently with queries; the query "
      "path never blocks on the writer");

  const size_t num_users = bundle.engine->graph().num_users();
  TablePrinter concurrent({"phase", "hybrid mean ms", "hybrid p99 ms",
                           "writer side"});

  // Baseline: quiesced engine, freshly compacted.
  const auto baseline = bench::RunQueries(bundle.engine.get(),
                                          queries.value(),
                                          AlgorithmId::kHybrid);
  concurrent.AddRow({"idle writer", bench::Ms(baseline.mean),
                     bench::Ms(baseline.p99), "-"});

  // Queries while a writer thread ingests items at full speed.
  {
    const size_t kIngest = smoke ? 4000 : 25000;
    std::atomic<bool> stop{false};
    double ingest_ms = 0.0;
    std::thread writer([&] {
      Rng writer_rng(99);
      Stopwatch watch;
      for (size_t i = 0; i < kIngest; ++i) {
        AMICI_CHECK_OK(
            bundle.engine->AddItem(RandomItem(writer_rng, num_users))
                .status());
      }
      ingest_ms = watch.ElapsedMillis();
      stop.store(true, std::memory_order_release);
    });
    const auto during = QueryUntil(bundle.engine.get(), queries.value(),
                                   stop);
    writer.join();
    concurrent.AddRow(
        {StringPrintf("concurrent ingest (%zuk items)", kIngest / 1000),
         bench::Ms(during.mean), bench::Ms(during.p99),
         StringPrintf("%.0f ms for %zu AddItem", ingest_ms, kIngest)});
  }

  // Queries while Compact() folds the 25k-item tail into new indexes.
  {
    std::atomic<bool> stop{false};
    double compact_ms = 0.0;
    std::thread compactor([&] {
      Stopwatch watch;
      AMICI_CHECK_OK(bundle.engine->Compact());
      compact_ms = watch.ElapsedMillis();
      stop.store(true, std::memory_order_release);
    });
    const auto during = QueryUntil(bundle.engine.get(), queries.value(),
                                   stop);
    compactor.join();
    concurrent.AddRow({"concurrent Compact()", bench::Ms(during.mean),
                       bench::Ms(during.p99),
                       StringPrintf("%.0f ms build+publish", compact_ms)});
  }

  // Post-compaction floor for reference.
  const auto after = bench::RunQueries(bundle.engine.get(), queries.value(),
                                       AlgorithmId::kHybrid);
  concurrent.AddRow({"idle writer, compacted", bench::Ms(after.mean),
                     bench::Ms(after.p99), "-"});
  std::printf("%s", concurrent.ToString().c_str());

  // ---- Part 3: queued ingest through the pipeline (MPSC + writer) ------
  bench::PrintBanner(
      "Fig 11c (extension): query latency during QUEUED ingest "
      "[MPSC queue -> writer thread -> coalesced AddItems] + background "
      "compaction",
      "producers never touch the writer lock; the writer coalesces queued "
      "batches into few snapshot publishes; the scheduler keeps the tail "
      "bounded with zero manual Compact() calls");

  // A fresh service over the same dataset (parts 1–2 grew their engine's
  // catalogue), compacted by construction and warmed like part 1.
  bundle.engine.reset();
  auto built = LocalSearchService::Build(
      std::move(bundle.workload_view.graph),
      std::move(bundle.workload_view.store));
  AMICI_CHECK(built.ok()) << built.status().ToString();
  auto service = std::move(built).value();
  SocialSearchEngine* engine = service->engine();
  bench::WarmProximityCache(engine, queries.value());

  const size_t kQueued = smoke ? 4000 : 25000;
  constexpr size_t kProducerBatch = 64;
  constexpr size_t kProducers = 2;
  TablePrinter queued({"phase", "hybrid mean ms", "hybrid p99 ms",
                       "writer side"});

  struct Phase {
    const char* label;
    BackpressureMode mode;
    bool auto_compact;
  };
  const Phase phases[] = {
      {"queued ingest (block)", BackpressureMode::kBlock, false},
      {"queued ingest (coalesce)", BackpressureMode::kCoalesce, false},
      {"queued ingest + auto-compaction", BackpressureMode::kCoalesce,
       true},
  };
  for (const Phase& phase : phases) {
    IngestPipeline::Options pipeline_options;
    pipeline_options.queue.capacity = 64;
    pipeline_options.queue.backpressure = phase.mode;
    AMICI_CHECK_OK(service->StartIngest(pipeline_options));
    const uint64_t compactions_before = service->auto_compactions();
    if (phase.auto_compact) {
      CompactionScheduler::Options compaction_options;
      compaction_options.policy = {/*max_tail_items=*/kQueued / 4,
                                   /*max_tail_scan_ms=*/2.0,
                                   /*min_tail_items=*/256};
      compaction_options.poll_interval_ms = 5.0;
      AMICI_CHECK_OK(service->StartAutoCompaction(compaction_options));
    }

    std::atomic<bool> stop{false};
    std::atomic<size_t> enqueue_ms_x10{0};
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        Rng producer_rng(1000 + p);
        Stopwatch watch;
        const size_t quota = kQueued / kProducers;
        size_t sent = 0;
        while (sent < quota) {
          const size_t batch_size = std::min(kProducerBatch, quota - sent);
          std::vector<Item> batch;
          batch.reserve(batch_size);
          for (size_t i = 0; i < batch_size; ++i) {
            batch.push_back(RandomItem(producer_rng, num_users));
          }
          const auto ticket = service->EnqueueItems(std::move(batch));
          AMICI_CHECK(ticket.ok()) << ticket.status().ToString();
          sent += batch_size;
        }
        enqueue_ms_x10.fetch_add(
            static_cast<size_t>(watch.ElapsedMillis() * 10.0));
      });
    }
    std::thread waiter([&] {
      for (auto& producer : producers) producer.join();
      AMICI_CHECK_OK(service->Flush());
      stop.store(true, std::memory_order_release);
    });
    const auto during = QueryUntil(engine, queries.value(), stop);
    waiter.join();

    const IngestCounters counters = service->ingest_counters();
    std::string writer_side = StringPrintf(
        "%llu batches -> %llu publishes (%llu coalesced), enqueue %.0f ms",
        static_cast<unsigned long long>(counters.batches_enqueued),
        static_cast<unsigned long long>(counters.apply_calls),
        static_cast<unsigned long long>(counters.batches_coalesced),
        static_cast<double>(enqueue_ms_x10.load()) / 10.0 / kProducers);
    if (phase.auto_compact) {
      AMICI_CHECK_OK(service->StopAutoCompaction());
      writer_side += StringPrintf(
          ", %llu auto-compactions",
          static_cast<unsigned long long>(service->auto_compactions() -
                                          compactions_before));
    }
    AMICI_CHECK_OK(service->StopIngest());
    queued.AddRow({phase.label, bench::Ms(during.mean),
                   bench::Ms(during.p99), writer_side});
    // Reset to a compacted floor between phases so each phase measures
    // its own tail regime.
    AMICI_CHECK_OK(service->Compact());
    std::fprintf(stderr, "[bench] %s done\n", phase.label);
  }
  queued.AddRow({"idle writer, compacted",
                 bench::Ms(bench::RunQueries(engine, queries.value(),
                                             AlgorithmId::kHybrid)
                               .mean),
                 "-", "-"});
  std::printf("%s", queued.ToString().c_str());

  // ---- Part 4: cold start — full re-ingest vs map + WAL replay ---------
  bench::PrintBanner(
      "Fig 11d (extension): restart cost — full re-ingest vs snapshot "
      "map + WAL tail replay, per restart tail size",
      "with a snapshot, restart is O(mapped bytes + tail) instead of "
      "O(catalogue): posting images map zero-copy, only the acknowledged "
      "tail replays through the normal ingest path (cold open defers "
      "payload checksums to page faults; production opens verify up "
      "front)");

  AMICI_CHECK_OK(service->Compact());
  const std::string snapshot_dir = "/tmp/amici_fig11_snapshot";
  {
    const std::string cleanup = "rm -rf " + snapshot_dir;
    (void)std::system(cleanup.c_str());
  }
  const auto saved = service->SaveSnapshot(snapshot_dir);
  AMICI_CHECK(saved.ok()) << saved.status().ToString();

  SearchRequest first_request;
  first_request.query = queries.value().front();
  TablePrinter cold({"restart tail", "map+replay ms", "1st query ms",
                     "re-ingest ms", "1st query ms", "restart speedup"});
  const std::vector<size_t> restart_tails =
      smoke ? std::vector<size_t>{0, 500, 2000}
            : std::vector<size_t>{0, 1000, 5000, 25000};
  Rng restart_rng(4242);
  size_t tail_added = 0;
  for (const size_t target : restart_tails) {
    // Grow the live service's WAL tail to `target` items past the save.
    for (; tail_added < target; ++tail_added) {
      AMICI_CHECK_OK(
          service->AddItem(RandomItem(restart_rng, num_users)).status());
    }

    // Best-of-N on both sides (single-shot restart timings are noisy on
    // a loaded machine; the min is the standard microbench estimator).
    constexpr int kOpenReps = 5;
    constexpr int kReingestReps = 3;
    persist::WalReplayStats replay;
    persist::SnapshotOpenOptions open_options;
    open_options.verify_checksums = false;  // cold path: faults verify lazily
    double open_ms = 0.0;
    std::unique_ptr<LocalSearchService> twin_service;
    for (int rep = 0; rep < kOpenReps; ++rep) {
      Stopwatch open_watch;
      auto twin = LocalSearchService::OpenSnapshot(
          snapshot_dir, LocalSearchService::Options(), open_options, &replay);
      AMICI_CHECK(twin.ok()) << twin.status().ToString();
      const double ms = open_watch.ElapsedMillis();
      if (rep == 0 || ms < open_ms) open_ms = ms;
      twin_service = std::move(twin).value();
    }
    Stopwatch twin_first_watch;
    AMICI_CHECK(twin_service->Search(first_request).ok());
    const double twin_first_ms = twin_first_watch.ElapsedMillis();

    // Re-ingest baseline: parse the durable row catalogue and graph,
    // then rebuild every index structure from scratch — what a restart
    // without the snapshot subsystem actually pays.
    const std::string durable_rows = SerializeItemStore(engine->store());
    const std::string durable_graph = SerializeGraph(*engine->snapshot()->graph);
    double build_ms = 0.0;
    std::unique_ptr<LocalSearchService> rebuilt_service;
    for (int rep = 0; rep < kReingestReps; ++rep) {
      Stopwatch build_watch;
      auto rows = DeserializeItemStore(durable_rows);
      AMICI_CHECK(rows.ok()) << rows.status().ToString();
      auto graph_copy = DeserializeGraph(durable_graph);
      AMICI_CHECK(graph_copy.ok()) << graph_copy.status().ToString();
      auto rebuilt = LocalSearchService::Build(std::move(graph_copy).value(),
                                               std::move(rows).value());
      AMICI_CHECK(rebuilt.ok()) << rebuilt.status().ToString();
      const double ms = build_watch.ElapsedMillis();
      if (rep == 0 || ms < build_ms) build_ms = ms;
      rebuilt_service = std::move(rebuilt).value();
    }
    Stopwatch rebuilt_first_watch;
    AMICI_CHECK(rebuilt_service->Search(first_request).ok());
    const double rebuilt_first_ms = rebuilt_first_watch.ElapsedMillis();

    cold.AddRow(
        {StringPrintf("%s items (%llu wal records)",
                      WithThousandsSeparators(target).c_str(),
                      static_cast<unsigned long long>(replay.records_applied)),
         bench::Ms(open_ms), bench::Ms(twin_first_ms), bench::Ms(build_ms),
         bench::Ms(rebuilt_first_ms),
         StringPrintf("%.1fx", build_ms / std::max(open_ms, 1e-6))});
    std::fprintf(stderr, "[bench] cold-start tail=%zu done\n", target);
  }
  std::printf("%s", cold.ToString().c_str());
  {
    const std::string cleanup = "rm -rf " + snapshot_dir;
    (void)std::system(cleanup.c_str());
  }

  // ---- Part 5: per-edit latency — delta overlay vs O(E) CSR splice -----
  bench::PrintBanner(
      "Fig 11e (extension): friendship-edit latency — delta-overlay edit "
      "path vs the O(E) full-CSR splice it replaced, per graph size",
      "the overlay edit replaces two endpoint rows (O(deg u + deg v)) and "
      "stays flat as |E| grows; the splice copies the whole CSR per edit; "
      "'overlay max' includes the amortized fold spikes");

  TablePrinter edits({"edges", "users", "overlay p50 us", "overlay max us",
                      "splice p50 us", "splice max us", "p50 speedup"});
  const std::vector<size_t> edge_targets =
      smoke ? std::vector<size_t>{10000, 100000}
            : std::vector<size_t>{10000, 100000, 1000000};
  const int kEdits = smoke ? 100 : 200;
  for (const size_t target_edges : edge_targets) {
    // ER graph with mean degree ~10 hits the edge target with
    // users = edges / 5.
    const size_t users = target_edges / 5;
    Rng graph_rng(target_edges);
    SocialGraph graph = GenerateErdosRenyi(users, 10.0, &graph_rng);

    // Product edit path: the provider — validate,
    // two row replacements, publish, fold when the policy fires.
    ProximityProvider::Options provider_options;
    provider_options.warm_top_n = 0;
    ProximityProvider provider(graph, provider_options);
    Rng edit_rng(target_edges + 1);
    LatencyRecorder overlay_us;
    for (int i = 0; i < kEdits; ++i) {
      const UserId u = static_cast<UserId>(edit_rng.UniformIndex(users));
      UserId v = static_cast<UserId>(edit_rng.UniformIndex(users));
      if (u == v) v = static_cast<UserId>((v + 1) % users);
      const bool adding = !provider.Acquire().graph->HasEdge(u, v);
      Stopwatch watch;
      const Status status = adding ? provider.AddFriendship(u, v)
                                   : provider.RemoveFriendship(u, v);
      AMICI_CHECK_OK(status);
      overlay_us.Record(watch.ElapsedMillis() * 1000.0);
    }

    // Baseline: the same edit stream as full-CSR splices (what every
    // edit cost before the overlay representation).
    Rng splice_rng(target_edges + 1);
    SocialGraph spliced = graph;
    LatencyRecorder splice_us;
    for (int i = 0; i < kEdits; ++i) {
      const UserId u = static_cast<UserId>(splice_rng.UniformIndex(users));
      UserId v = static_cast<UserId>(splice_rng.UniformIndex(users));
      if (u == v) v = static_cast<UserId>((v + 1) % users);
      const bool adding = !spliced.HasEdge(u, v);
      Stopwatch watch;
      spliced = RebuildCsrWithEdge(spliced, u, v, adding);
      splice_us.Record(watch.ElapsedMillis() * 1000.0);
    }
    AMICI_CHECK(spliced.num_edges() ==
                provider.Acquire().graph->num_edges());

    const LatencySummary overlay = overlay_us.Summarize();
    const LatencySummary splice = splice_us.Summarize();
    edits.AddRow({WithThousandsSeparators(graph.num_edges()),
                  WithThousandsSeparators(users),
                  StringPrintf("%.1f", overlay.p50),
                  StringPrintf("%.1f", overlay.max),
                  StringPrintf("%.1f", splice.p50),
                  StringPrintf("%.1f", splice.max),
                  StringPrintf("%.0fx", splice.p50 /
                                            std::max(overlay.p50, 1e-3))});
    std::fprintf(stderr, "[bench] edit-latency edges=%zu done\n",
                 target_edges);
  }
  std::printf("%s", edits.ToString().c_str());
  return 0;
}
