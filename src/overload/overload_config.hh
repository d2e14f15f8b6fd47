/**
 * @file
 * Overload-control configuration: the knobs of the graceful-degradation
 * subsystem (kernel pressure signals + app-level admission control).
 *
 * Everything defaults to *off* so legacy experiments are bit-identical;
 * `enabled` is the master switch the harness copies into the machine
 * config and the kernel/app layers consult.
 *
 * The design follows the classic shed-don't-collapse playbook:
 *
 *  - a netdev_max_backlog-style per-core SoftIRQ budget bounds how much
 *    packet work can queue ahead of the application (drops are nearly
 *    free; unbounded queues are not),
 *  - accept-queue occupancy watermarks raise a machine-wide pressure
 *    level with hysteresis,
 *  - an admission controller sheds (or serves degraded "brownout"
 *    responses for) accepted connections whose queueing delay already
 *    exceeded a deadline or that arrive while a worker is saturated,
 *    sparing a configurable health/control priority class.
 */

#ifndef FSIM_OVERLOAD_OVERLOAD_CONFIG_HH
#define FSIM_OVERLOAD_OVERLOAD_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace fsim
{

/** All overload-control knobs of one machine + application. */
struct OverloadConfig
{
    /** Master switch; false keeps every legacy code path untouched. */
    bool enabled = false;

    /** @name Kernel pressure signals */
    /** @{ */
    /**
     * Per-core SoftIRQ backlog budget (netdev_max_backlog with a
     * SYN-first discard policy). When a *new-connection* SYN arrives
     * for a core whose SoftIRQ task queue is already this deep, the
     * SYN is dropped at "NIC ring" level — before any cycle is charged
     * — and accounted in KernelStats::backlogDropped. Only new work is
     * refused: dropping a request/ACK/FIN would wedge a connection the
     * kernel has already invested in (give-up clients do not
     * retransmit), turning admitted work into waste exactly when
     * cycles are scarcest. Priority-marked packets (Packet::prio) are
     * exempt, like DSCP-aware ingress queueing: failing a health probe
     * under load gets the server ejected while it is still doing
     * useful work. 0 = unbounded (stock behavior).
     */
    std::size_t softirqBudget = 0;
    /**
     * SYN ingress gate (the receive-livelock defense): a non-priority
     * SYN that finds its listener's accept queue already this deep is
     * dropped right after the listener lookup — before any TCB, SYN
     * queue entry, SYN-ACK, or accept-path work. Bounding the queue at
     * the ingress is what keeps the *handshake* work of doomed
     * connections from eating the CPU that should serve admitted ones;
     * app-level shedding alone cannot win that fight, because by the
     * time accept() returns the kernel has already paid for the
     * connection. Per accept queue (a per-core listener in Fastsocket
     * mode gates on its own queue). Priority-marked flows (health
     * probes) always pass. 0 = off.
     */
    std::size_t synGate = 0;
    /** Accept-queue occupancy (fraction of backlog) that raises the
     *  pressure level to elevated. */
    double acceptHighWatermark = 0.5;
    /** Occupancy that raises the level to critical. */
    double acceptCriticalWatermark = 0.9;
    /** Occupancy below which pressure returns to nominal (hysteresis:
     *  must be below acceptHighWatermark). */
    double acceptLowWatermark = 0.25;
    /** @} */

    /** @name Admission control (applications) */
    /** @{ */
    /**
     * Queue-deadline shed (CoDel-flavored): a connection whose sojourn
     * in the accept queue already exceeds this deadline is closed
     * immediately after accept() — its client has been waiting so long
     * that serving it would likely be wasted work. 0 = off.
     */
    Tick queueDeadline = 0;
    /**
     * Per-worker cap on concurrently admitted sessions (proxy: in-flight
     * backend legs). Arrivals beyond the cap are shed early — the fast
     * 503-equivalent — instead of queueing behind a saturated backend.
     * 0 = off.
     */
    int workerCap = 0;
    /** Serve degraded responses (below) while pressure is elevated
     *  instead of shedding; shedding still applies at critical. */
    bool brownout = false;
    /** Degraded response size (brownout mode). */
    std::uint32_t brownoutBytes = 16;
    /** Service cost divisor of a degraded response (cheap static page
     *  instead of full request handling). */
    std::uint32_t brownoutCostDivisor = 4;
    /**
     * Request size (bytes) the load generator uses for health-probe
     * connections. Classification itself rides on the packet priority
     * mark (Packet::prio, the DSCP/SO_PRIORITY analog) that probes set
     * on their whole flow: the SYN gate, the admission controller, and
     * the brownout path all spare marked traffic.
     */
    std::uint32_t healthRequestBytes = 0;
    /** @} */
};

/**
 * Parse a textual overload spec (`--overload=` flag), e.g.
 *
 *   "budget=256,gate=96,deadline_ms=5,cap=64,brownout=1,health_bytes=32"
 *
 * Units: whole numbers (a fraction is rejected), except brownout (0 or
 * 1), high/critical/low (fractions of the backlog), deadline_us (usec)
 * and its parse-only alias deadline_ms (msec). Any key present sets
 * enabled=true. Returns false and fills @p err on a malformed spec.
 */
bool parseOverloadSpec(const std::string &text, OverloadConfig &cfg,
                       std::string &err);

/** Render @p cfg back into the spec grammar ("" when disabled) in the
 *  fewest digits that parse back to it: deadline_us keeps its fraction
 *  down to the tick. */
std::string serializeOverloadSpec(const OverloadConfig &cfg);

} // namespace fsim

#endif // FSIM_OVERLOAD_OVERLOAD_CONFIG_HH
