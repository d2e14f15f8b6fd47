/**
 * @file
 * Common machinery for event-loop server applications (nginx- and
 * HAProxy-style): one process per core, pinned, epoll-driven, accepting
 * from per-process or shared listen sockets depending on kernel flavor.
 */

#ifndef FSIM_APP_APP_BASE_HH
#define FSIM_APP_APP_BASE_HH

#include <unordered_map>
#include <vector>

#include "app/machine.hh"
#include "overload/admission.hh"
#include "sim/types.hh"

namespace fsim
{

/** Base class for multi-process server applications. */
class AppBase
{
  public:
    explicit AppBase(Machine &m);
    virtual ~AppBase();

    /**
     * Fork one process per core, listen() on every service address, and
     * (in Fastsocket mode) local_listen() each of them.
     */
    void start();

    /**
     * Enable the nginx-style accept mutex: only one process at a time
     * accepts from the shared listen sockets, rotating after each batch.
     * The paper disables it for the Fastsocket runs (4.2.2) because the
     * Local Listen Table removes the contention it works around.
     */
    void setAcceptMutex(bool on) { acceptMutex_ = on; }
    bool acceptMutex() const { return acceptMutex_; }

    /**
     * Arm the admission controller: every accepted connection is run
     * through @p adm before being served, and shed connections are
     * closed immediately without a response. Both pointers must outlive
     * the app; pass null to disarm.
     */
    void setAdmission(AdmissionController *adm, const OverloadConfig *cfg);

    /** Requests fully served (response written). */
    std::uint64_t served() const { return served_; }
    /** Subset of served() answered with the degraded brownout page. */
    std::uint64_t servedDegraded() const { return servedDegraded_; }
    /** Connections closed by the admission controller without service. */
    std::uint64_t shedConns() const { return shedConns_; }

    Machine &machine() { return m_; }

  protected:
    /** Max connections accepted per listen-fd event (HAProxy maxaccept). */
    static constexpr int kAcceptBatch = 16;

    struct ProcState
    {
        int proc = -1;
        CoreId core = kInvalidCore;
        /** Sorted-unique; one or two fds, probed once per ready fd. */
        std::vector<int> listenFds;
        /** Listen fds deferred to the next round (accept batch limit).
         *  Sorted-unique sticky vector, not a hash set: inserts happen
         *  on the accept hot path and must not allocate once warm. */
        std::vector<int> deferredAccept;
        /** epoll_wait output buffer, reused across loop iterations. */
        std::vector<int> fdScratch;
        bool wakePending = false;
        bool remoteWake = false;
    };

    /** Handle a readable connection fd. @return the advanced tick. */
    virtual Tick onConnReadable(ProcState &ps, int fd, Tick t) = 0;

    /** A connection was just accepted; register interest etc. */
    virtual Tick onAccepted(ProcState &ps, int fd, Tick t);

    /** The application's per-request service cost in cycles. */
    virtual Tick serviceCost() const = 0;

    void wake(int proc, bool remote = false);
    Tick runLoop(std::size_t idx, Tick start);

    /** Was this admitted connection marked for brownout service? */
    bool connDegraded(int proc, int fd) const;
    /**
     * Forget an admitted connection and return its worker slot to the
     * admission controller. Subclasses must call this on every path
     * that closes a client connection; no-op for unadmitted fds.
     */
    void admRelease(int proc, int fd);

    Machine &m_;
    std::vector<ProcState> procs_;
    std::uint64_t served_ = 0;
    std::uint64_t servedDegraded_ = 0;
    std::uint64_t shedConns_ = 0;
    bool acceptMutex_ = false;
    std::size_t mutexHolder_ = 0;

    AdmissionController *adm_ = nullptr;
    const OverloadConfig *admCfg_ = nullptr;

  private:
    static std::uint64_t admKey(int proc, int fd)
    {
        return (static_cast<std::uint64_t>(proc) << 32) |
               static_cast<std::uint32_t>(fd);
    }

    /** (proc,fd) -> degraded flag, for connections currently admitted. */
    std::unordered_map<std::uint64_t, bool> admState_;
};

} // namespace fsim

#endif // FSIM_APP_APP_BASE_HH
