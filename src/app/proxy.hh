/**
 * @file
 * HAProxy-like HTTP load-balancer model.
 *
 * For every client request the proxy opens an *active* connection to a
 * backend, forwards the request, relays the response back, and closes
 * both sides (keep-alive off, as in the paper's production deployment).
 * The active side is what exercises Receive Flow Deliver: without it the
 * backend's reply lands on an RSS-random core.
 */

#ifndef FSIM_APP_PROXY_HH
#define FSIM_APP_PROXY_HH

#include <vector>

#include "app/app_base.hh"
#include "sim/flat_map.hh"
#include "sim/node_slab.hh"

namespace fsim
{

/** HTTP proxy (one process per core, active connections to backends). */
class Proxy : public AppBase
{
  public:
    /**
     * @param backends Backend server addresses (port 80 assumed so RFD
     *        rule 1 classifies replies as active incoming).
     */
    Proxy(Machine &m, std::vector<IpAddr> backends, Port backend_port = 80,
          std::uint32_t response_bytes = 64);

    /** Per-attempt backend timeout (0 = disabled, the default). A
     *  timeout enables two retries per session and ejects a backend
     *  after three consecutive failures, for 4 x the timeout. */
    void setBackendTimeout(Tick t) { backendTimeout_ = t; }

    /** Active connections the proxy failed to open (port exhaustion). */
    std::uint64_t connectFailures() const { return connectFailures_; }
    /** @name Backend-fault statistics */
    /** @{ */
    std::uint64_t backendTimeouts() const { return backendTimeouts_; }
    std::uint64_t backendRetries() const { return backendRetries_; }
    std::uint64_t backendEjections() const { return backendEjections_; }
    std::uint64_t backendReadmissions() const
    {
        return backendReadmissions_;
    }
    /** Sessions abandoned after exhausting retries. */
    std::uint64_t sessionFailures() const { return sessionFailures_; }
    /** Is backend @p i currently ejected from the rotation? */
    bool backendEjected(std::size_t i) const
    {
        return health_.at(i).ejected;
    }
    /** @} */

  protected:
    Tick onConnReadable(ProcState &ps, int fd, Tick t) override;
    Tick serviceCost() const override;

  private:
    enum class Phase
    {
        kClientWait,     //!< client fd, waiting for the request
        kBackendConnect, //!< backend fd, waiting for SYN-ACK
        kBackendWait,    //!< backend fd, waiting for the response
    };

    struct Session
    {
        std::uint64_t id = 0;
        std::size_t procIdx = 0;
        int clientFd = -1;
        int backendFd = -1;
        Phase phase = Phase::kClientWait;
        std::uint32_t requestBytes = 0;
        int attempts = 0;           //!< backend connects tried so far
        std::size_t backendIdx = 0; //!< backend of the current attempt
        Session *next = nullptr;    //!< free-list link (NodeSlab)
    };

    /** Per-backend circuit-breaker state. */
    struct Health
    {
        int consecFails = 0;
        bool ejected = false;
        Tick retryAt = 0;   //!< when an ejected backend may be probed
    };

    /** Key sessions by (process, fd). */
    static std::uint64_t
    skey(int proc, int fd)
    {
        return (static_cast<std::uint64_t>(proc) << 32) |
               static_cast<std::uint32_t>(fd);
    }

    Tick closeSession(ProcState &ps, Session *s, Tick t);
    Tick connectBackend(ProcState &ps, Session *s, Tick t);
    Tick onBackendTimeout(std::uint64_t sid, Tick t);
    void armBackendTimeout(std::uint64_t sid, int attempt);
    std::size_t pickBackend();
    void noteBackendFailure(std::size_t bi);

    std::vector<IpAddr> backends_;
    Port backendPort_;
    std::uint32_t responseBytes_;
    Tick backendTimeout_ = 0;
    std::vector<Health> health_;
    std::size_t backendCursor_ = 0;
    std::uint64_t connectFailures_ = 0;
    std::uint64_t backendTimeouts_ = 0;
    std::uint64_t backendRetries_ = 0;
    std::uint64_t backendEjections_ = 0;
    std::uint64_t backendReadmissions_ = 0;
    std::uint64_t sessionFailures_ = 0;
    std::uint64_t nextSessionId_ = 1;
    /** Session storage: a closed session's node is the next one handed
     *  out, so request churn never touches the allocator. */
    NodeSlab<Session, 256> sessionSlab_;
    FlatMap<std::uint64_t, Session *> sessions_;
    FlatMap<std::uint64_t, Session *> byId_;
};

} // namespace fsim

#endif // FSIM_APP_PROXY_HH
