/**
 * @file
 * http_load-style workload generator (closed loop) with an additional
 * open-loop mode for the production-trace experiment.
 *
 * Closed loop: keeps `concurrency` connections in flight; whenever one
 * finishes, a new one starts — the discipline the paper uses (concurrency
 * 500 x cores). Each connection is one short-lived HTTP exchange:
 *
 *     SYN -> (SYN-ACK) -> ACK + request -> (response) -> (server FIN)
 *         -> ACK+FIN -> (final ACK) -> done
 *
 * The client is ideal (no CPU model): the paper runs clients on separate
 * Fastsocket-boosted machines precisely so the server under test is the
 * bottleneck.
 */

#ifndef FSIM_APP_HTTP_LOAD_HH
#define FSIM_APP_HTTP_LOAD_HH

#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.hh"
#include "net/wire.hh"
#include "sim/chunked_vector.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace fsim
{

class FleetTraceLog;

/** Closed- or open-loop HTTP client fleet. */
class HttpLoad
{
  public:
    /** First client address (172.16.0.1); clientIps addresses follow. */
    static constexpr IpAddr kClientBase = 0xac100001;

    struct Config
    {
        std::vector<IpAddr> serverAddrs;
        Port serverPort = 80;
        /** Closed-loop outstanding connections (paper: 500 x cores). */
        int concurrency = 500;
        /** Requests pipelined per connection (1 = short-lived, the
         *  paper's default; >1 = HTTP keep-alive / long-lived mode,
         *  where the client closes first after the last response). */
        int requestsPerConn = 1;
        int clientIps = 256;
        std::uint64_t seed = 7;
        /** Per-connection give-up timeout (0 = none). A timed-out
         *  connection counts as failed and is relaunched in closed
         *  loop — http_load's -timeout behavior, and the recovery
         *  mechanism under injected packet loss. */
        Tick timeout = 0;
        /** Bounded workload: stop launching after this many connections
         *  have been started (0 = unlimited). With a bound the closed
         *  loop drains and the run quiesces — the mode the differential
         *  oracle and quiesce-leak checks rely on. */
        std::uint64_t maxConns = 0;

        /** Initial SYN/request retransmission timeout (0 = no
         *  retransmission); doubles per attempt up to 8 x rtoBase, and
         *  the connection fails after six retransmissions. */
        Tick rtoBase = 0;

        /** @name Health probes (0 = disabled) */
        /** @{ */
        /** Every Nth launched connection is a health probe. */
        int healthEvery = 0;
        /** Probe request payload; must be <= the server's configured
         *  health_bytes so the admission controller classifies it. */
        std::uint32_t healthRequestBytes = 32;
        /** @} */

        /** @name Mixed connection lifetimes (0 = uniform workload) */
        /** @{ */
        /** Long-lived connections per 1000 launches (deterministically
         *  striped; 0 = mixed mode off, 1000 = all long-lived). A
         *  long-lived conn issues longLivedRequests keep-alive requests
         *  (pausing longLivedThink between them) and marks only its
         *  last request "Connection: close". All other connections
         *  carry the close header on their single request, so a
         *  keep-alive server still takes the active-close (TIME_WAIT)
         *  path for them. */
        int longLivedPermille = 0;
        /** Requests a long-lived connection issues before closing. */
        int longLivedRequests = 8;
        /** Idle think time between a long-lived conn's requests. */
        Tick longLivedThink = 0;
        /** Restrict each client IP's ephemeral ports to
         *  [1024, 1024 + span) (0 = full range): shrinks the client
         *  tuple space to force TIME_WAIT tuple-reuse pressure. */
        int clientPortSpan = 0;
        /** @} */
    };

    HttpLoad(EventQueue &eq, Wire &wire, const Config &cfg);

    /** Start the closed-loop fleet. */
    void start();

    /**
     * Open-loop mode: start connections at @p per_second (Poisson) until
     * stopOpenLoop(); completions do not trigger new starts.
     */
    void startOpenLoop(double per_second);
    void setOpenLoopRate(double per_second);
    void stopOpenLoop();

    /** @name Statistics */
    /** @{ */
    std::uint64_t started() const { return started_; }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t failed() const { return failed_; }
    /** Responses received (== completed x requestsPerConn at quiesce). */
    std::uint64_t responses() const { return responses_; }
    /** Connections abandoned by the give-up timer. */
    std::uint64_t timeouts() const { return timeouts_; }
    /** SYN retransmissions sent (client-side backoff). */
    std::uint64_t synRetransmits() const { return synRetx_; }
    /** Request retransmissions sent. */
    std::uint64_t requestRetransmits() const { return reqRetx_; }
    /** Connections abandoned after their last retransmission. */
    std::uint64_t retxGiveups() const { return retxGiveups_; }
    std::uint64_t inFlight() const { return conns_.size(); }
    /** Response payload bytes received (the "bytes served" oracle). */
    std::uint64_t bytesReceived() const { return bytesReceived_; }

    /** Begin a throughput window. */
    void markWindow();
    /** Completed connections per simulated second since markWindow(). */
    double throughputSinceMark() const;
    /** Responses per simulated second since markWindow(). */
    double requestThroughputSinceMark() const;
    /**
     * Connect-to-last-byte latency percentile (0 < p <= 1) over
     * connections completed since markWindow(); 0 if none completed.
     */
    Tick latencyPercentileSinceMark(double p) const;
    /** latencyPercentileSinceMark(ps[k]) into out[k]. The samples are
     *  read in place (sim/order_stat.hh): no copy of the window. */
    void latencyPercentilesSinceMark(std::span<const double> ps,
                                     std::span<Tick> out) const;
    /** Completed connections with a latency sample since markWindow(). */
    std::uint64_t latencySamplesSinceMark() const;

    /**
     * Every connect-to-last-byte latency sample of the run, in
     * completion order. The log is append-only and chunked (64 KiB
     * chunks): it grows without copying, and an index into it stays
     * valid for the life of the generator, which is how the fleet's
     * metrics layer and SLO tracker consume new samples through a
     * cursor. allocations() counts its heap blocks.
     *
     * A sample below 2^32 - 1 ticks (1.718 sim-s) is stored in 4
     * bytes. A longer one stores the sentinel 2^32 - 1 there and its
     * exact value in an index-ordered side list, so every reader gets
     * the exact Tick back.
     */
    class LatencyLog
    {
      public:
        std::size_t size() const { return narrow_.size(); }
        Tick operator[](std::size_t i) const;
        Tick back() const { return (*this)[size() - 1]; }
        void push_back(Tick v);

        /** Call @p fn(v) on every sample from index @p from on, in
         *  order. */
        template <typename Fn>
        void
        forEachFrom(std::size_t from, Fn &&fn) const
        {
            auto wide = firstWideAt(from);
            for (std::size_t i = from; i < narrow_.size(); ++i) {
                const std::uint32_t v = narrow_[i];
                fn(v != kWide ? Tick{v} : (wide++)->ticks);
            }
        }

        std::uint64_t
        allocations() const
        {
            return narrow_.allocations() + wideAllocations_;
        }

      private:
        static constexpr std::uint32_t kWide = 0xffff'ffff;

        struct Wide
        {
            std::size_t index = 0;
            Tick ticks = 0;
        };

        /** The first side-list entry at index @p i or later. */
        std::vector<Wide>::const_iterator firstWideAt(std::size_t i) const;

        ChunkedVector<std::uint32_t, 14> narrow_;
        std::vector<Wide> wide_;
        std::uint64_t wideAllocations_ = 0;
    };
    const LatencyLog &latencySamples() const { return latencySamples_; }

    /**
     * Attach the fleet trace collector. Every launched connection mints
     * the trace id FleetTraceLog::traceIdOf(epoch) (epochs count
     * attempts from 1, so retries of one attempt share the id while a
     * timeout relaunch gets a fresh one) and stamps it on every packet;
     * start/finish report the client hop to @p log, which finds the
     * record by that epoch. Pure recording — simulated behavior and
     * fingerprints are identical with or without a log attached.
     */
    void setTraceLog(FleetTraceLog *log) { traceLog_ = log; }

    /** @name Health-probe statistics */
    /** @{ */
    std::uint64_t healthStarted() const { return healthStarted_; }
    std::uint64_t healthCompleted() const { return healthCompleted_; }
    std::uint64_t healthFailed() const { return healthFailed_; }
    /** @} */

  private:
    enum class State
    {
        kSynSent,
        kWaitResponse,   //!< request out, waiting for data
        kWaitFin,        //!< response in, waiting for server FIN
        kWaitLastAck,    //!< our ACK+FIN out, waiting for final ACK
        kClosing,        //!< keep-alive done: our FIN out, await server's
    };

    struct Conn
    {
        State state = State::kSynSent;
        FiveTuple tx;    //!< tuple of packets we send (client -> server)
        bool gotData = false;
        int remaining = 1;   //!< requests still to issue on this conn
        std::uint64_t epoch = 0;   //!< distinguishes timeout reuse
        std::uint32_t cookie = 0;  //!< SYN cookie echoed to the server
        std::uint32_t txSeq = 0;   //!< next transmit ordinal
        std::uint64_t rxResponses = 0; //!< progress marker for retx
        int retx = 0;              //!< retransmissions so far
        bool health = false;       //!< health probe (tiny request)
        bool longLived = false;    //!< keep-alive multi-request conn
        Tick startTick = 0;        //!< launch time, for latency samples
        /** End-to-end trace context stamped on every packet. */
        std::uint64_t traceId = 0;
    };

    static std::uint64_t key(const FiveTuple &rx);

    void launch();
    void onPacket(const Packet &pkt);
    void finish(std::uint64_t k, bool ok);
    void scheduleOpenLoop();
    /** Build + transmit one packet on @p c, stamping cookie and txSeq. */
    void send(Conn &c, std::uint64_t k, std::uint8_t flags,
              std::uint32_t payload);
    /**
     * Arm a retransmission check: fires after @p rto and re-sends if the
     * connection is still in @p armed_state with no progress (for
     * requests, @p progress = responses seen when the request went out).
     */
    void armRetx(std::uint64_t k, std::uint64_t epoch, State armed_state,
                 std::uint64_t progress, Tick rto);

    EventQueue &eq_;
    Wire &wire_;
    Config cfg_;
    Rng rng_;
    FleetTraceLog *traceLog_ = nullptr;

    bool closedLoop_ = true;
    bool openLoopActive_ = false;
    double openLoopRate_ = 0.0;

    std::size_t serverCursor_ = 0;
    std::size_t clientCursor_ = 0;
    std::vector<Port> nextPort_;    //!< per client IP

    /** Open-addressing map: per-connection insert/erase churn is the
     *  load generator's hot path and must stay allocation-free. */
    FlatMap<std::uint64_t, Conn> conns_;

    void sendRequest(Conn &c, std::uint64_t k);

    std::uint64_t started_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t responses_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t synRetx_ = 0;
    std::uint64_t reqRetx_ = 0;
    std::uint64_t retxGiveups_ = 0;
    std::uint64_t bytesReceived_ = 0;
    std::uint64_t nextEpoch_ = 1;
    std::uint64_t healthStarted_ = 0;
    std::uint64_t healthCompleted_ = 0;
    std::uint64_t healthFailed_ = 0;

    /** Request payload of a typical WeiBo request. */
    static constexpr std::uint32_t kRequestBytes = 600;

    /** Per-conn request payload (health probes send the tiny one). */
    std::uint32_t reqBytes(const Conn &c) const
    {
        return c.health ? cfg_.healthRequestBytes : kRequestBytes;
    }

    /** Connect-to-last-byte latency per success. */
    LatencyLog latencySamples_;
    /** Completion tick of the newest sample, and how many samples
     *  completed at that tick. */
    Tick lastSampleTick_ = 0;
    std::size_t samplesAtLastTick_ = 0;
    /** Index of the first sample completed at or after windowStart_. */
    std::size_t windowBegin_ = 0;

    Tick windowStart_ = 0;
    std::uint64_t completedAtMark_ = 0;
    std::uint64_t responsesAtMark_ = 0;
};

} // namespace fsim

#endif // FSIM_APP_HTTP_LOAD_HH
