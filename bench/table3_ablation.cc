// Table 3 — ablation of the design choices DESIGN.md calls out:
//   * adaptive pull scheduling (hybrid) vs static biases
//   * the proximity cache
//   * posting-list skip pointers (conjunctive AND queries)
//   * block-max pruning (conjunctive AND queries; results invariant)
//   * impact-ordered lists (memory vs TA availability)

#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "proximity/ppr_forward_push.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace amici;

int main() {
  bench::PrintBanner(
      "Table 3: ablation study  [medium dataset, alpha=0.5, k=10]",
      "each design choice carries its weight: removing it costs latency "
      "or memory");

  const DatasetConfig config = MediumDataset();
  TablePrinter table({"configuration", "workload", "mean ms", "p99 ms",
                      "index mem"});

  // --- Baseline engine: everything on.
  bench::EngineBundle base = bench::BuildEngine(config);
  QueryWorkloadConfig any_workload;
  any_workload.num_queries = 80;
  any_workload.k = 10;
  any_workload.alpha = 0.5;
  any_workload.seed = 123;
  const auto any_queries =
      GenerateQueries(base.workload_view, any_workload).value();

  QueryWorkloadConfig all_workload = any_workload;
  all_workload.mode = MatchMode::kAll;
  all_workload.max_tags_per_query = 3;
  all_workload.seed = 124;
  const auto all_queries =
      GenerateQueries(base.workload_view, all_workload).value();
  bench::WarmProximityCache(base.engine.get(), any_queries);
  bench::WarmProximityCache(base.engine.get(), all_queries);

  const std::string base_mem =
      HumanBytes(base.engine->inverted_index().MemoryBytes());

  auto add_row = [&table](const std::string& label,
                          const std::string& workload,
                          const LatencySummary& summary,
                          const std::string& mem) {
    table.AddRow({label, workload, bench::Ms(summary.mean),
                  bench::Ms(summary.p99), mem});
  };

  // Adaptive vs static pull scheduling.
  add_row("hybrid (adaptive pulls)", "OR",
          bench::RunQueries(base.engine.get(), any_queries,
                            AlgorithmId::kHybrid),
          base_mem);
  add_row("  - static content bias", "OR",
          bench::RunQueries(base.engine.get(), any_queries,
                            AlgorithmId::kContentFirst),
          base_mem);
  add_row("  - static social bias", "OR",
          bench::RunQueries(base.engine.get(), any_queries,
                            AlgorithmId::kSocialFirst),
          base_mem);

  // Proximity cache off (capacity 1 ≈ always miss across users).
  {
    SocialSearchEngine::Options options;
    options.proximity_cache_capacity = 1;
    bench::EngineBundle no_cache = bench::BuildEngine(config, options);
    add_row("  - proximity cache off", "OR",
            bench::RunQueries(no_cache.engine.get(), any_queries,
                              AlgorithmId::kHybrid),
            base_mem);
  }

  // Skip pointers: conjunctive (AND) merge-scan with and without.
  add_row("merge-scan AND (skips on)", "AND",
          bench::RunQueries(base.engine.get(), all_queries,
                            AlgorithmId::kMergeScan),
          base_mem);
  {
    SocialSearchEngine::Options options;
    options.index_options.posting_options.enable_skips = false;
    bench::EngineBundle no_skips = bench::BuildEngine(config, options);
    add_row("  - skip pointers off", "AND",
            bench::RunQueries(no_skips.engine.get(), all_queries,
                              AlgorithmId::kMergeScan),
            HumanBytes(no_skips.engine->inverted_index().MemoryBytes()));
  }

  // Block-max pruning off: every block's stored bound saturates to the
  // list max, so conjunctive merge-scan decodes blocks it could have
  // proven irrelevant. Results are identical (the invariance suite
  // asserts it); only traversal work moves.
  {
    SocialSearchEngine::Options options;
    options.index_options.posting_options.enable_block_max = false;
    bench::EngineBundle no_bmax = bench::BuildEngine(config, options);
    add_row("  - block-max off", "AND",
            bench::RunQueries(no_bmax.engine.get(), all_queries,
                              AlgorithmId::kMergeScan),
            HumanBytes(no_bmax.engine->inverted_index().MemoryBytes()));
  }

  // Impact-ordered lists off: TA unavailable, merge-scan carries OR
  // queries; the saved memory is the other side of the trade.
  {
    SocialSearchEngine::Options options;
    options.index_options.build_impact_ordered = false;
    bench::EngineBundle lean = bench::BuildEngine(config, options);
    add_row("  - impact lists off (merge-scan)", "OR",
            bench::RunQueries(lean.engine.get(), any_queries,
                              AlgorithmId::kMergeScan),
            HumanBytes(lean.engine->inverted_index().MemoryBytes()));
  }

  std::printf("%s", table.ToString().c_str());
  return 0;
}
