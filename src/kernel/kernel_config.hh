/**
 * @file
 * Kernel flavor and feature configuration.
 *
 * Three presets correspond to the paper's evaluation subjects:
 *
 *  - base2632():  the baseline Linux 2.6.32 stack (global listen table,
 *    single shared listen socket per (addr, port), global established
 *    table, global VFS locks, no steering beyond RSS).
 *  - linux313():  Linux 3.13 with SO_REUSEPORT (per-process listen clones
 *    chained in the global table — O(n) lookup — plus finer-grained VFS
 *    locks), still no connection locality.
 *  - fastsocket(): all four Fastsocket components (V, L, R, E).
 *
 * The four feature bits can also be toggled individually on top of the
 * baseline, which is how the Table 1 ablation (+V, +L, +R, +E) is run.
 */

#ifndef FSIM_KERNEL_KERNEL_CONFIG_HH
#define FSIM_KERNEL_KERNEL_CONFIG_HH

#include <cstdint>

#include "net/packet.hh"
#include "vfs/vfs.hh"

namespace fsim
{

/** Which kernel the simulated machine boots. */
enum class KernelFlavor
{
    kBase2632,      //!< stock CentOS-6-era 2.6.32
    kLinux313,      //!< 3.13 with SO_REUSEPORT
    kFastsocket,    //!< 2.6.32 + Fastsocket module
};

/** Full kernel configuration. */
struct KernelConfig
{
    KernelFlavor flavor = KernelFlavor::kBase2632;

    /** @name Fastsocket feature bits (paper Table 1 columns) */
    /** @{ */
    bool fastVfs = false;           //!< V: Fastsocket-aware VFS
    bool localListen = false;       //!< L: Local Listen Table
    bool rfd = false;               //!< R: Receive Flow Deliver
    bool localEstablished = false;  //!< E: Local Established Table
    /** @} */

    /** Randomize the RFD hash bits (security hardening extension). */
    bool rfdRandomBits = false;

    /** Buckets of the global established table (power of two). */
    int ehashBuckets = 16384;

    /** @name SYN-flood hardening */
    /** @{ */
    /**
     * Answer SYNs statelessly with SYN cookies once a listener's SYN
     * queue is full (Linux tcp_syncookies). Off by default: the stock
     * baseline drops SYNs when the queue fills, which is exactly the
     * collapse mode the resilience benchmark demonstrates.
     */
    bool synCookies = false;
    /** Per-listener SYN (request-sock) queue capacity. The default is
     *  high enough that legitimate closed-loop load never trips it;
     *  flood scenarios lower it (tcp_max_syn_backlog). */
    std::size_t synBacklog = 65536;
    /** SYN_RECV sockets are reaped after this many jiffies without the
     *  final ACK (collapsed stand-in for SYN-ACK retries + timeout).
     *  0 = never reap (stock model behavior); flood scenarios enable it
     *  so the SYN queue drains once the attack stops. */
    std::uint64_t synRcvdJiffies = 0;
    /** @} */

    /** @name TIME_WAIT pressure relief (tcp_tw_reuse / tcp_tw_recycle) */
    /** @{ */
    /** Release the ephemeral source port of an actively-closed
     *  connection as soon as it enters TIME_WAIT instead of holding it
     *  for the full linger (tcp_tw_reuse; safe here because the
     *  simulated network never reorders across connections). */
    bool twReuse = false;
    /** Allow a new SYN that matches a lingering TIME_WAIT tuple to
     *  recycle the entry immediately (tcp_tw_recycle). Off by default:
     *  the SYN is dropped and the client retries after the linger, the
     *  stock conservative behavior. */
    bool twRecycle = false;
    /** @} */
    /** @name Ephemeral port range (ip_local_port_range) */
    /** @{ */
    /** Inclusive range active connect() draws source ports from.
     *  Shrinking it is how tests reproduce an active-connect proxy
     *  running the machine out of ports against one backend. */
    Port ephemeralPortLo = 32768;
    Port ephemeralPortHi = 61000;
    /** @} */

    /** Derived VFS mode. */
    VfsMode
    vfsMode() const
    {
        if (fastVfs)
            return VfsMode::kFastsocket;
        if (flavor == KernelFlavor::kLinux313)
            return VfsMode::kFineGrained;
        return VfsMode::kGlobalLocks;
    }

    /** SO_REUSEPORT-style listen clones? (3.13 flavor only) */
    bool reuseport() const { return flavor == KernelFlavor::kLinux313; }

    static KernelConfig
    base2632()
    {
        return KernelConfig{};
    }

    static KernelConfig
    linux313()
    {
        KernelConfig c;
        c.flavor = KernelFlavor::kLinux313;
        return c;
    }

    static KernelConfig
    fastsocket()
    {
        KernelConfig c;
        c.flavor = KernelFlavor::kFastsocket;
        c.fastVfs = true;
        c.localListen = true;
        c.rfd = true;
        c.localEstablished = true;
        return c;
    }
};

} // namespace fsim

#endif // FSIM_KERNEL_KERNEL_CONFIG_HH
