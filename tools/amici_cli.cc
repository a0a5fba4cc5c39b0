// amici_cli — command-line front end for the library, in the spirit of
// RocksDB's ldb/db_bench: generate and persist datasets, inspect them,
// run ad-hoc queries, and replay query traces.
//
//   amici_cli generate  --out DIR [--users N] [--items-per-user X]
//                       [--tags N] [--locality L] [--geo F] [--seed S]
//   amici_cli stats     --data DIR
//   amici_cli query     --data DIR --user U --tags 1,2,3
//                       [--k K] [--alpha A] [--algo hybrid] [--mode any]
//   amici_cli trace-gen --data DIR --out FILE [--queries N] [--alpha A]
//   amici_cli replay    --data DIR --trace FILE [--algo hybrid]
//
// Exit code 0 on success; errors go to stderr.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "graph/graph_algorithms.h"
#include "persist/fs_util.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/dataset_generator.h"
#include "workload/dataset_io.h"
#include "workload/query_workload.h"
#include "workload/trace.h"

namespace amici {
namespace {

/// Parses all of `text` as a base-10 integer in [0, max]: no sign, no
/// surrounding space, no trailing characters. `what` names the value in
/// the error.
Result<uint64_t> ParseUint(const std::string& what, const std::string& text,
                           uint64_t max) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value > max) {
    return Status::InvalidArgument(what + " must be an integer in [0, " +
                                   std::to_string(max) + "], got '" + text +
                                   "'");
  }
  return value;
}

/// Minimal "--key value" parser; flags must all take a value.
class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv, int first) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        return Status::InvalidArgument("expected --flag, got: " + key);
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag needs a value: " + key);
      }
      flags.values_[key.substr(2)] = argv[++i];
    }
    return flags;
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// The flag as a finite number (the whole value, no trailing
  /// characters), or `fallback` when absent.
  Result<double> GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end ||
        !std::isfinite(value)) {
      return Status::InvalidArgument("--" + key + " must be a number, got '" +
                                     text + "'");
    }
    return value;
  }

  /// The flag as an integer in [0, max] (see ParseUint), or `fallback`
  /// when absent.
  Result<uint64_t> GetUint(
      const std::string& key, uint64_t fallback,
      uint64_t max = std::numeric_limits<uint64_t>::max()) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return ParseUint("--" + key, it->second, max);
  }

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// The strategy --algo names, or nullopt when the flag is absent: each
/// query then runs the planned strategy (PlanAlgorithm).
Result<std::optional<AlgorithmId>> AlgorithmFlag(const Flags& flags) {
  if (!flags.Has("algo")) return std::optional<AlgorithmId>();
  const std::string name = flags.GetString("algo", "");
  const std::optional<AlgorithmId> algorithm = ParseAlgorithm(name);
  if (!algorithm.has_value()) {
    std::string choices;
    for (size_t i = 0; i < kNumAlgorithms; ++i) {
      if (i > 0) choices += '|';
      choices += AlgorithmName(static_cast<AlgorithmId>(i));
    }
    return Status::InvalidArgument("unknown --algo: " + name + " (want " +
                                   choices + ")");
  }
  return algorithm;
}

Result<std::unique_ptr<SocialSearchEngine>> OpenEngine(const Flags& flags) {
  if (!flags.Has("data")) {
    return Status::InvalidArgument("--data DIR is required");
  }
  AMICI_ASSIGN_OR_RETURN(Dataset dataset,
                         LoadDataset(flags.GetString("data", "")));
  return SocialSearchEngine::Build(std::move(dataset.graph),
                                   std::move(dataset.store), {});
}

Status RunGenerate(const Flags& flags) {
  if (!flags.Has("out")) {
    return Status::InvalidArgument("--out DIR is required");
  }
  DatasetConfig config = MediumDataset();
  config.name = "cli";
  AMICI_ASSIGN_OR_RETURN(config.num_users, flags.GetUint("users", 10000));
  AMICI_ASSIGN_OR_RETURN(config.items_per_user,
                         flags.GetDouble("items-per-user", 5.0));
  AMICI_ASSIGN_OR_RETURN(config.num_tags, flags.GetUint("tags", 5000));
  AMICI_ASSIGN_OR_RETURN(config.social_locality,
                         flags.GetDouble("locality", 0.5));
  AMICI_ASSIGN_OR_RETURN(config.geo_fraction, flags.GetDouble("geo", 0.0));
  AMICI_ASSIGN_OR_RETURN(config.seed, flags.GetUint("seed", 42));

  Stopwatch watch;
  AMICI_ASSIGN_OR_RETURN(const Dataset dataset, GenerateDataset(config));
  AMICI_RETURN_IF_ERROR(persist::EnsureDir(flags.GetString("out", "")));
  AMICI_RETURN_IF_ERROR(SaveDataset(dataset, flags.GetString("out", "")));
  std::printf("generated %zu users / %zu items in %.0f ms -> %s\n",
              dataset.graph.num_users(), dataset.store.num_items(),
              watch.ElapsedMillis(), flags.GetString("out", "").c_str());
  return Status::Ok();
}

Status RunStats(const Flags& flags) {
  if (!flags.Has("data")) {
    return Status::InvalidArgument("--data DIR is required");
  }
  AMICI_ASSIGN_OR_RETURN(const Dataset dataset,
                         LoadDataset(flags.GetString("data", "")));
  TablePrinter table({"metric", "value"});
  table.AddRow({"users", WithThousandsSeparators(dataset.graph.num_users())});
  table.AddRow({"edges", WithThousandsSeparators(dataset.graph.num_edges())});
  table.AddRow({"avg degree",
                StringPrintf("%.2f", dataset.graph.AverageDegree())});
  table.AddRow({"max degree",
                WithThousandsSeparators(dataset.graph.MaxDegree())});
  table.AddRow({"clustering",
                StringPrintf("%.4f",
                             GlobalClusteringCoefficient(dataset.graph))});
  table.AddRow({"items",
                WithThousandsSeparators(dataset.store.num_items())});
  table.AddRow({"tag vocabulary",
                WithThousandsSeparators(dataset.tags.size())});
  std::printf("%s", table.ToString().c_str());
  return Status::Ok();
}

Status RunQuery(const Flags& flags) {
  if (!flags.Has("user") || !flags.Has("tags")) {
    return Status::InvalidArgument("--user and --tags are required");
  }
  SocialQuery query;
  AMICI_ASSIGN_OR_RETURN(
      query.user,
      flags.GetUint("user", 0, std::numeric_limits<UserId>::max()));
  for (const std::string& tag : Split(flags.GetString("tags", ""), ',')) {
    AMICI_ASSIGN_OR_RETURN(
        const uint64_t id,
        ParseUint("--tags entry", tag, std::numeric_limits<TagId>::max()));
    query.tags.push_back(static_cast<TagId>(id));
  }
  AMICI_ASSIGN_OR_RETURN(query.k, flags.GetUint("k", 10));
  AMICI_ASSIGN_OR_RETURN(query.alpha, flags.GetDouble("alpha", 0.5));
  const std::string mode = flags.GetString("mode", "any");
  if (mode == "all") {
    query.mode = MatchMode::kAll;
  } else if (mode != "any") {
    return Status::InvalidArgument("--mode must be any|all");
  }
  NormalizeQuery(&query);

  AMICI_ASSIGN_OR_RETURN(const std::optional<AlgorithmId> algorithm,
                         AlgorithmFlag(flags));
  AMICI_ASSIGN_OR_RETURN(auto engine, OpenEngine(flags));
  AMICI_ASSIGN_OR_RETURN(
      const QueryResult result,
      engine->Query(query, algorithm.value_or(PlanAlgorithm(query))));

  std::printf("%zu results in %.3f ms (%s)\n", result.items.size(),
              result.elapsed_ms, std::string(result.algorithm).c_str());
  TablePrinter table({"rank", "item", "owner", "score"});
  for (size_t i = 0; i < result.items.size(); ++i) {
    table.AddRow({std::to_string(i + 1),
                  std::to_string(result.items[i].item),
                  std::to_string(engine->store().owner(result.items[i].item)),
                  StringPrintf("%.4f", result.items[i].score)});
  }
  std::printf("%s", table.ToString().c_str());
  return Status::Ok();
}

Status RunTraceGen(const Flags& flags) {
  if (!flags.Has("data") || !flags.Has("out")) {
    return Status::InvalidArgument("--data DIR and --out FILE are required");
  }
  AMICI_ASSIGN_OR_RETURN(const Dataset dataset,
                         LoadDataset(flags.GetString("data", "")));
  QueryWorkloadConfig config;
  AMICI_ASSIGN_OR_RETURN(config.num_queries, flags.GetUint("queries", 100));
  AMICI_ASSIGN_OR_RETURN(config.k, flags.GetUint("k", 10));
  AMICI_ASSIGN_OR_RETURN(config.alpha, flags.GetDouble("alpha", 0.5));
  AMICI_ASSIGN_OR_RETURN(config.seed, flags.GetUint("seed", 4242));
  AMICI_ASSIGN_OR_RETURN(const std::vector<SocialQuery> queries,
                         GenerateQueries(dataset, config));
  AMICI_RETURN_IF_ERROR(
      SaveQueryTrace(queries, flags.GetString("out", "")));
  std::printf("wrote %zu queries -> %s\n", queries.size(),
              flags.GetString("out", "").c_str());
  return Status::Ok();
}

Status RunReplay(const Flags& flags) {
  if (!flags.Has("trace")) {
    return Status::InvalidArgument("--trace FILE is required");
  }
  AMICI_ASSIGN_OR_RETURN(auto engine, OpenEngine(flags));
  AMICI_ASSIGN_OR_RETURN(const std::vector<SocialQuery> queries,
                         LoadQueryTrace(flags.GetString("trace", "")));
  AMICI_ASSIGN_OR_RETURN(const std::optional<AlgorithmId> algorithm,
                         AlgorithmFlag(flags));

  LatencyRecorder recorder;
  for (const SocialQuery& query : queries) {
    Stopwatch watch;
    AMICI_RETURN_IF_ERROR(
        engine->Query(query, algorithm.value_or(PlanAlgorithm(query)))
            .status());
    recorder.Record(watch.ElapsedMillis());
  }
  const LatencySummary summary = recorder.Summarize();
  std::printf("replayed %llu queries (%s)\n",
              static_cast<unsigned long long>(summary.count),
              algorithm.has_value()
                  ? std::string(AlgorithmName(*algorithm)).c_str()
                  : "planned per query");
  std::printf("latency ms: mean %.3f  p50 %.3f  p90 %.3f  p99 %.3f  "
              "max %.3f\n",
              summary.mean, summary.p50, summary.p90, summary.p99,
              summary.max);
  std::printf("%s", engine->stats().ToString().c_str());
  return Status::Ok();
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: amici_cli <generate|stats|query|trace-gen|replay> [--flags]\n"
      "  generate  --out DIR [--users N] [--items-per-user X] [--tags N]\n"
      "            [--locality L] [--geo F] [--seed S]\n"
      "  stats     --data DIR\n"
      "  query     --data DIR --user U --tags 1,2,3 [--k K] [--alpha A]\n"
      "            [--algo ALGO] [--mode any|all]\n"
      "  trace-gen --data DIR --out FILE [--queries N] [--k K] [--alpha A]\n"
      "  replay    --data DIR --trace FILE [--algo ALGO]\n"
      "  without --algo, query and replay run each query's planned "
      "strategy\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = Flags::Parse(argc, argv, 2);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return Usage();
  }
  Status status;
  if (command == "generate") {
    status = RunGenerate(flags.value());
  } else if (command == "stats") {
    status = RunStats(flags.value());
  } else if (command == "query") {
    status = RunQuery(flags.value());
  } else if (command == "trace-gen") {
    status = RunTraceGen(flags.value());
  } else if (command == "replay") {
    status = RunReplay(flags.value());
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace amici

int main(int argc, char** argv) { return amici::Main(argc, argv); }
