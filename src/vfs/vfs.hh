/**
 * @file
 * The VFS socket-file layer, in three flavors:
 *
 *  - kGlobalLocks: Linux 2.6.32 semantics. Allocating/destroying a socket
 *    file initializes a dentry and an inode and links them into globally
 *    visible tables under the global dcache_lock and inode_lock — the two
 *    hottest rows of the paper's Table 1.
 *  - kFineGrained: Linux 3.13 semantics. Same work, but the tables are
 *    protected by per-bucket locks (cheaper, still shared).
 *  - kFastsocket: the paper's Fastsocket-aware VFS. Socket files skip the
 *    dentry/inode initialization entirely (they are memory-only objects
 *    never named by a path) but keep a skeletal entry so /proc-style tools
 *    such as netstat and lsof still see every socket (section 3.4).
 */

#ifndef FSIM_VFS_VFS_HH
#define FSIM_VFS_VFS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/cache_model.hh"
#include "cpu/cycle_costs.hh"
#include "sim/types.hh"
#include "sync/lock_registry.hh"
#include "sync/spinlock.hh"

namespace fsim
{

/** Which VFS implementation the simulated kernel runs. */
enum class VfsMode
{
    kGlobalLocks,   //!< 2.6.32: global dcache_lock / inode_lock
    kFineGrained,   //!< 3.13: per-bucket locks
    kFastsocket,    //!< Fastsocket-aware fast path
};

/** A socket file object (the VFS view of a socket). */
struct SocketFile
{
    std::uint64_t ino = 0;          //!< inode number (0 = skeletal)
    void *priv = nullptr;           //!< the socket TCB behind this file
    bool fastPath = false;          //!< allocated via the Fastsocket path
    CacheLine cacheLine;            //!< cache line of the file struct
    int fd = -1;                    //!< descriptor in the owning process
    int owner = -1;                 //!< owning process id
};

/** The socket-file portion of VFS. */
class VfsLayer
{
  public:
    /**
     * @param fine_buckets Bucket count for the 3.13-style tables.
     */
    VfsLayer(VfsMode mode, LockRegistry &locks, CacheModel &cache,
             const CycleCosts &costs, int fine_buckets = 64);
    ~VfsLayer();

    VfsLayer(const VfsLayer &) = delete;
    VfsLayer &operator=(const VfsLayer &) = delete;

    /**
     * Allocate a socket file on core @p c at tick @p t.
     *
     * Charges the mode's cycle and lock costs.
     *
     * @param[out] out The new file.
     * @return The tick at which the allocation completes.
     */
    Tick allocSocketFile(CoreId c, Tick t, void *sock, SocketFile **out);

    /** Destroy a socket file; inverse cost profile of alloc. */
    Tick freeSocketFile(CoreId c, Tick t, SocketFile *file);

    /**
     * Enumerate all live socket files, as /proc/net readers (netstat,
     * lsof) do. Must work in every mode (compatibility requirement).
     */
    std::vector<const SocketFile *> procWalk() const;

    VfsMode mode() const { return mode_; }
    std::uint64_t liveFiles() const { return liveFiles_; }
    std::uint64_t totalAllocs() const { return totalAllocs_; }

  private:
    SimSpinLock &dcacheBucket(std::uint64_t ino);
    SimSpinLock &inodeBucket(std::uint64_t ino);

    /** Slab slot wrapping a SocketFile (file must stay first so a
     *  SocketFile pointer converts back to its slot). */
    struct PoolSlot
    {
        SocketFile file;
        std::uint32_t nextFree = kPoolNone;
        std::uint32_t selfIdx = 0;
        bool live = false;
    };

    static constexpr std::uint32_t kPoolNone = 0xffffffffu;
    static constexpr std::size_t kPoolChunk = 256;

    PoolSlot &slotAt(std::uint32_t idx);

    VfsMode mode_;
    CacheModel &cache_;
    const CycleCosts &costs_;

    SimSpinLock dcacheLock_;    //!< global (2.6.32 mode)
    SimSpinLock inodeLock_;     //!< global (2.6.32 mode)
    std::vector<SimSpinLock> dcacheBuckets_;    //!< 3.13 mode
    std::vector<SimSpinLock> inodeBuckets_;     //!< 3.13 mode

    std::uint64_t nextIno_ = 1;
    std::uint64_t totalAllocs_ = 0;
    std::uint64_t liveFiles_ = 0;

    /** Socket files live in recycled slab chunks, not one heap object
     *  per file: file alloc/free is the per-connection fast path. */
    std::vector<std::unique_ptr<PoolSlot[]>> pool_;
    std::uint32_t poolUsed_ = 0;       //!< slots ever handed out
    std::uint32_t poolFree_ = kPoolNone;
};

} // namespace fsim

#endif // FSIM_VFS_VFS_HH
