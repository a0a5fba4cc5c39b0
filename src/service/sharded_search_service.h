#ifndef AMICI_SERVICE_SHARDED_SEARCH_SERVICE_H_
#define AMICI_SERVICE_SHARDED_SEARCH_SERVICE_H_

#include "service/search_service.h"

namespace amici {

/// The name earlier callers use for the multi-shard deployment; it is the
/// one SearchService class (see search_service.h).
using ShardedSearchService = SearchService;

}  // namespace amici

#endif  // AMICI_SERVICE_SHARDED_SEARCH_SERVICE_H_
