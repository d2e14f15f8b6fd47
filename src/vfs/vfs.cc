#include "vfs/vfs.hh"

#include "sim/logging.hh"

namespace fsim
{

VfsLayer::VfsLayer(VfsMode mode, LockRegistry &locks, CacheModel &cache,
                   const CycleCosts &costs, int fine_buckets)
    : mode_(mode), cache_(cache), costs_(costs)
{
    fsim_assert(fine_buckets > 0);
    LockClassStats *dcache = locks.getClass("dcache_lock");
    LockClassStats *inode = locks.getClass("inode_lock");
    switch (mode_) {
      case VfsMode::kGlobalLocks:
        dcacheLock_.init(dcache, &cache_, costs_.lockAcquireBase,
                         costs_.lockHandoffStorm);
        inodeLock_.init(inode, &cache_, costs_.lockAcquireBase,
                        costs_.lockHandoffStorm);
        break;
      case VfsMode::kFineGrained:
        dcacheBuckets_.resize(fine_buckets);
        inodeBuckets_.resize(fine_buckets);
        for (auto &l : dcacheBuckets_)
            l.init(dcache, &cache_, costs_.lockAcquireBase,
                   costs_.lockHandoffStorm);
        for (auto &l : inodeBuckets_)
            l.init(inode, &cache_, costs_.lockAcquireBase,
                   costs_.lockHandoffStorm);
        break;
      case VfsMode::kFastsocket:
        // No dentry/inode locks on the socket fast path.
        break;
    }
}

VfsLayer::~VfsLayer() = default;

VfsLayer::PoolSlot &
VfsLayer::slotAt(std::uint32_t idx)
{
    return pool_[idx / kPoolChunk][idx % kPoolChunk];
}

SimSpinLock &
VfsLayer::dcacheBucket(std::uint64_t ino)
{
    return dcacheBuckets_[ino % dcacheBuckets_.size()];
}

SimSpinLock &
VfsLayer::inodeBucket(std::uint64_t ino)
{
    return inodeBuckets_[ino % inodeBuckets_.size()];
}

Tick
VfsLayer::allocSocketFile(CoreId c, Tick t, void *sock, SocketFile **out)
{
    PoolSlot *slot;
    if (poolFree_ != kPoolNone) {
        slot = &slotAt(poolFree_);
        poolFree_ = slot->nextFree;
    } else {
        if (poolUsed_ == pool_.size() * kPoolChunk)
            pool_.push_back(std::make_unique<PoolSlot[]>(kPoolChunk));
        slot = &slotAt(poolUsed_);
        slot->selfIdx = poolUsed_++;
    }
    slot->live = true;
    SocketFile *file = &slot->file;
    *file = SocketFile{};
    file->ino = nextIno_++;
    file->priv = sock;
    t += cache_.access(c, file->cacheLine, /*write=*/true);
    ++totalAllocs_;

    switch (mode_) {
      case VfsMode::kGlobalLocks:
        // Full dentry + inode initialization, linked into the global
        // tables under the two global locks.
        t += costs_.vfsAllocHeavy;
        t = dcacheLock_.runLocked(c, t, costs_.dcacheLockHold);
        t = inodeLock_.runLocked(c, t, costs_.inodeLockHold);
        break;
      case VfsMode::kFineGrained:
        t += costs_.vfsAllocHeavy;
        t = dcacheBucket(file->ino).runLocked(c, t, costs_.vfsFineLockHold);
        t = inodeBucket(file->ino).runLocked(c, t, costs_.vfsFineLockHold);
        break;
      case VfsMode::kFastsocket:
        // Skip dentry/inode init; keep only the skeletal state needed by
        // the /proc file system (section 3.4).
        t += costs_.vfsAllocFast;
        file->fastPath = true;
        break;
    }

    ++liveFiles_;
    *out = file;
    return t;
}

Tick
VfsLayer::freeSocketFile(CoreId c, Tick t, SocketFile *file)
{
    fsim_assert(file != nullptr);
    PoolSlot *slot = reinterpret_cast<PoolSlot *>(file);
    if (!slot->live)
        fsim_panic("double free of socket file ino=%llu",
                   (unsigned long long)file->ino);

    t += cache_.access(c, file->cacheLine, /*write=*/true);

    switch (mode_) {
      case VfsMode::kGlobalLocks:
        t += costs_.vfsFreeHeavy;
        t = dcacheLock_.runLocked(c, t, costs_.dcacheLockHold);
        t = inodeLock_.runLocked(c, t, costs_.inodeLockHold);
        break;
      case VfsMode::kFineGrained:
        t += costs_.vfsFreeHeavy;
        t = dcacheBucket(file->ino).runLocked(c, t, costs_.vfsFineLockHold);
        t = inodeBucket(file->ino).runLocked(c, t, costs_.vfsFineLockHold);
        break;
      case VfsMode::kFastsocket:
        t += costs_.vfsFreeFast;
        break;
    }

    slot->live = false;
    slot->nextFree = poolFree_;
    poolFree_ = slot->selfIdx;
    --liveFiles_;
    return t;
}

std::vector<const SocketFile *>
VfsLayer::procWalk() const
{
    std::vector<const SocketFile *> out;
    out.reserve(liveFiles_);
    // Slot order: deterministic, unlike the hash-map walk it replaces.
    for (std::uint32_t i = 0; i < poolUsed_; ++i) {
        const PoolSlot &slot = pool_[i / kPoolChunk][i % kPoolChunk];
        if (slot.live)
            out.push_back(&slot.file);
    }
    return out;
}

} // namespace fsim
