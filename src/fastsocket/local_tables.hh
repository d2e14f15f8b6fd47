/**
 * @file
 * The per-core table partitions at the heart of Fastsocket:
 *
 *  - LocalListenTable (section 3.2.1): one listen table per core holding
 *    the local listen socket clones created by local_listen(); the global
 *    listen table is kept alongside for the robustness slow path.
 *  - LocalEstablishedTable (section 3.2.2): one established table per
 *    core; combined with RFD's steering guarantee, a connection's socket
 *    is inserted and looked up by the same core, so the per-core bucket
 *    locks never contend.
 */

#ifndef FSIM_FASTSOCKET_LOCAL_TABLES_HH
#define FSIM_FASTSOCKET_LOCAL_TABLES_HH

#include <memory>
#include <vector>

#include "cpu/cache_model.hh"
#include "cpu/cycle_costs.hh"
#include "sync/lock_registry.hh"
#include "tcp/established_table.hh"
#include "tcp/listen_table.hh"

namespace fsim
{

/** Per-core listen tables (plus cache lines for access costing). */
class LocalListenTable
{
  public:
    explicit LocalListenTable(int n_cores);

    ListenTable &table(CoreId c) { return tables_.at(c); }
    const ListenTable &table(CoreId c) const { return tables_.at(c); }

    /** Cache line of core @p c's table head (local by construction). */
    CacheLine &cacheLine(CoreId c) { return lines_.at(c); }

    int numCores() const { return static_cast<int>(tables_.size()); }

    /** Total local listen sockets across all cores. */
    std::size_t totalSockets() const;

  private:
    std::vector<ListenTable> tables_;
    std::vector<CacheLine> lines_;
};

/** Per-core established tables. */
class LocalEstablishedTable
{
  public:
    /**
     * @param n_buckets Buckets of each per-core table (power of two).
     */
    LocalEstablishedTable(int n_cores, int n_buckets, LockRegistry &locks,
                          CacheModel &cache, const CycleCosts &costs);

    EstablishedTable &table(CoreId c) { return *tables_.at(c); }
    const EstablishedTable &table(CoreId c) const { return *tables_.at(c); }

    int numCores() const { return static_cast<int>(tables_.size()); }

    /** Total established sockets across all cores (leak checks). */
    std::size_t totalSockets() const;

  private:
    std::vector<std::unique_ptr<EstablishedTable>> tables_;
};

} // namespace fsim

#endif // FSIM_FASTSOCKET_LOCAL_TABLES_HH
