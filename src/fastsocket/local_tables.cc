#include "fastsocket/local_tables.hh"

#include "sim/logging.hh"

namespace fsim
{

LocalListenTable::LocalListenTable(int n_cores)
    : tables_(n_cores), lines_(n_cores)
{
    fsim_assert(n_cores > 0);
}

LocalEstablishedTable::LocalEstablishedTable(int n_cores, int n_buckets,
                                             LockRegistry &locks,
                                             CacheModel &cache,
                                             const CycleCosts &costs)
{
    fsim_assert(n_cores > 0);
    tables_.reserve(n_cores);
    for (int i = 0; i < n_cores; ++i) {
        // Per-core tables are private to their owning core (RFD steers
        // every packet of a connection to the inserting core), so they can
        // grow with load and need no lock instances; the global ehash
        // cannot grow and its chains lengthen.
        tables_.push_back(std::make_unique<EstablishedTable>(
            n_buckets, locks, cache, costs, "ehash.lock", /*owner=*/i));
    }
}

} // namespace fsim
