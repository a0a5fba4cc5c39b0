#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/hash.h"
#include "workload/query_workload.h"

namespace servebench {

using amici::Dataset;
using amici::MatchMode;
using amici::QueryWorkloadConfig;
using amici::Result;
using amici::SocialQuery;
using amici::Status;
using amici::UserId;

const char* QueryClassName(int32_t query_class) {
  switch (query_class) {
    case kClassAny:
      return "any";
    case kClassAll:
      return "all";
    case kClassGeo:
      return "geo";
  }
  return "unknown";
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return amici::HashCombine(amici::Mix64(seed), stream);
}

Result<QueryPool> MakeQueryPool(const Dataset& dataset, const QueryMix& mix,
                                uint64_t population_seed, uint64_t seed,
                                size_t probes_per_class) {
  const auto share = [&](double s) {
    return static_cast<size_t>(std::llround(s * mix.pool_size));
  };
  const size_t want[kNumQueryClasses] = {
      mix.pool_size - share(mix.all_share) - share(mix.geo_share),
      share(mix.all_share), share(mix.geo_share)};

  struct Entry {
    SocialQuery query;
    int32_t query_class;
    bool probe;
  };
  std::vector<Entry> entries;
  std::unordered_set<UserId> users;
  if (mix.query_users > 0) {
    // The first `query_users` distinct users of a degree-biased draw
    // become the fixed population that issues every query.
    QueryWorkloadConfig config;
    config.num_queries = 16 * mix.query_users;
    config.seed = population_seed;
    auto drawn = amici::GenerateQueries(dataset, config);
    if (!drawn.ok()) return drawn.status();
    for (const SocialQuery& query : drawn.value()) {
      if (users.size() == mix.query_users) break;
      users.insert(query.user);
    }
  }

  for (int32_t cls = 0; cls < kNumQueryClasses; ++cls) {
    size_t got = 0;
    for (uint64_t round = 0; got < want[cls]; ++round) {
      if (round == 64) {
        return Status::Internal("query pool: too few queries per user");
      }
      QueryWorkloadConfig config;
      config.k = 10;
      config.alpha = 0.5;
      config.mode = cls == kClassAll ? MatchMode::kAll : MatchMode::kAny;
      config.with_geo_filter = cls == kClassGeo;
      config.degree_biased_users = mix.query_users > 0;
      config.num_queries = mix.query_users > 0 ? 16384 : want[cls];
      config.seed = SubSeed(seed, static_cast<uint64_t>(cls) * 1000 + round);
      auto generated = amici::GenerateQueries(dataset, config);
      if (!generated.ok()) return generated.status();
      for (SocialQuery& query : generated.value()) {
        if (got == want[cls]) break;
        if (mix.query_users > 0 && !users.contains(query.user)) continue;
        entries.push_back(Entry{std::move(query), cls, got < probes_per_class});
        ++got;
      }
    }
  }

  amici::Rng rng(SubSeed(seed, 7777));
  for (size_t i = entries.size(); i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.UniformIndex(i)]);
  }
  QueryPool pool;
  std::unordered_set<UserId> distinct;
  for (Entry& entry : entries) {
    if (entry.probe) pool.probes.push_back(pool.queries.size());
    distinct.insert(entry.query.user);
    pool.classes.push_back(entry.query_class);
    pool.queries.push_back(std::move(entry.query));
  }
  pool.distinct_users = distinct.size();
  return pool;
}

ItemSource::ItemSource(const Dataset& dataset, uint64_t seed)
    : dataset_(dataset),
      rng_(seed),
      tags_(std::max<size_t>(1, dataset.tags.size()),
            dataset.config.tag_zipf_s) {
  for (size_t i = 0; i < dataset.store.num_items(); ++i) {
    const auto item = static_cast<amici::ItemId>(i);
    if (dataset.store.has_geo(item)) geo_items_.push_back(item);
  }
}

std::vector<amici::Item> ItemSource::Batch(size_t count) {
  const std::vector<UserId>& endpoints = dataset_.graph.neighbors();
  const amici::DatasetConfig& config = dataset_.config;
  std::vector<amici::Item> items(count);
  for (amici::Item& item : items) {
    item.owner = endpoints[rng_.UniformIndex(endpoints.size())];
    const size_t num_tags =
        1 + rng_.UniformIndex(std::max<size_t>(1, config.max_tags_per_item));
    for (size_t t = 0; t < num_tags; ++t) {
      item.tags.push_back(static_cast<amici::TagId>(tags_.Sample(&rng_) - 1));
    }
    item.quality = static_cast<float>(
        std::pow(rng_.UniformDouble(), config.quality_skew));
    if (!geo_items_.empty() && rng_.Bernoulli(config.geo_fraction)) {
      const amici::ItemId anchor =
          geo_items_[rng_.UniformIndex(geo_items_.size())];
      item.has_geo = true;
      item.latitude = dataset_.store.latitude(anchor) +
                      static_cast<float>(0.01 * rng_.Gaussian());
      item.longitude = dataset_.store.longitude(anchor) +
                       static_cast<float>(0.01 * rng_.Gaussian());
    }
  }
  return items;
}

EditSource::EditSource(size_t num_users, uint64_t seed)
    : num_users_(num_users), rng_(seed) {}

}  // namespace servebench
