#ifndef AMICI_PROXIMITY_SINGLE_FLIGHT_PROXIMITY_H_
#define AMICI_PROXIMITY_SINGLE_FLIGHT_PROXIMITY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "proximity/proximity_cache.h"
#include "proximity/proximity_model.h"
#include "proximity/proximity_provider.h"

namespace amici {

/// The generation-keyed cache + single-flight computation core of the
/// ProximityProvider: concurrent Get() misses for the same (user,
/// generation) share ONE model computation — the losers wait on the
/// winner instead of redundantly recomputing.
///
/// Thread-safe: Get and the counter reads may be called from any number
/// of threads concurrently.
class SingleFlightProximity {
 public:
  /// `model` is not owned and must outlive this object;
  /// `cache_capacity` is clamped to >= 1.
  SingleFlightProximity(const ProximityModel* model, size_t cache_capacity);

  SingleFlightProximity(const SingleFlightProximity&) = delete;
  SingleFlightProximity& operator=(const SingleFlightProximity&) = delete;

  /// The proximity vector of `source` against `graph` / `generation`,
  /// cached per (source, generation); concurrent misses share one
  /// computation. `outcome`, when non-null, reports how the call was
  /// satisfied.
  std::shared_ptr<const ProximityVector> Get(const SocialGraph& graph,
                                             UserId source,
                                             uint64_t generation,
                                             ProximityOutcome* outcome);

  ProximityCache& cache() { return cache_; }
  const ProximityCache& cache() const { return cache_; }

  uint64_t computations() const {
    return computations_.load(std::memory_order_relaxed);
  }
  uint64_t inflight_joins() const {
    return inflight_joins_.load(std::memory_order_relaxed);
  }

 private:
  /// One in-flight computation; losers of the single-flight race wait on
  /// `cv` until the winner publishes `vector`.
  struct Flight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const ProximityVector> vector;
  };

  const ProximityModel* model_;
  ProximityCache cache_;

  std::mutex flights_mutex_;
  std::map<std::pair<uint64_t, UserId>, std::shared_ptr<Flight>> flights_;

  std::atomic<uint64_t> computations_{0};
  std::atomic<uint64_t> inflight_joins_{0};
};

}  // namespace amici

#endif  // AMICI_PROXIMITY_SINGLE_FLIGHT_PROXIMITY_H_
