#include "app/http_load.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/fleet_trace.hh"

namespace fsim
{

namespace
{

/** Deterministic nonzero trace id from a connection epoch (splitmix64
 *  finalizer). Epochs are globally unique per attempt, so trace ids
 *  are too; retransmissions of one attempt share the epoch and hence
 *  the id, while a timeout relaunch draws a fresh one. */
std::uint64_t
traceIdFromEpoch(std::uint64_t epoch)
{
    std::uint64_t x = epoch + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x ? x : 1;
}

} // namespace

HttpLoad::HttpLoad(EventQueue &eq, Wire &wire, const Config &cfg)
    : eq_(eq), wire_(wire), cfg_(cfg), rng_(cfg.seed)
{
    fsim_assert(!cfg_.serverAddrs.empty());
    fsim_assert(cfg_.clientIps > 0);
    nextPort_.assign(cfg_.clientIps, 1024);
    wire_.attachRange(cfg_.clientBase,
                      cfg_.clientBase +
                          static_cast<IpAddr>(cfg_.clientIps - 1),
                      [this](const Packet &pkt) { onPacket(pkt); });
}

std::uint64_t
HttpLoad::key(const FiveTuple &rx)
{
    // Key on the tuple of packets we *receive* (server -> client).
    std::uint64_t k = (static_cast<std::uint64_t>(rx.saddr) << 32) ^
                      rx.daddr;
    k = k * 0x9e3779b97f4a7c15ULL ^
        (static_cast<std::uint64_t>(rx.sport) << 16) ^ rx.dport;
    return k;
}

void
HttpLoad::start()
{
    closedLoop_ = true;
    for (int i = 0; i < cfg_.concurrency; ++i) {
        // Stagger the initial burst slightly so the first SYNs don't all
        // collide on one tick.
        eq_.scheduleIn(rng_.range(ticksFromUsec(200) + 1),
                       [this] { launch(); });
    }
}

void
HttpLoad::startOpenLoop(double per_second)
{
    closedLoop_ = false;
    openLoopActive_ = true;
    openLoopRate_ = per_second;
    scheduleOpenLoop();
}

void
HttpLoad::setOpenLoopRate(double per_second)
{
    openLoopRate_ = per_second;
}

void
HttpLoad::stopOpenLoop()
{
    openLoopActive_ = false;
}

void
HttpLoad::scheduleOpenLoop()
{
    if (!openLoopActive_ || openLoopRate_ <= 0.0)
        return;
    double gap_s = rng_.exponential(1.0 / openLoopRate_);
    eq_.scheduleIn(ticksFromSeconds(gap_s), [this] {
        if (!openLoopActive_)
            return;
        launch();
        scheduleOpenLoop();
    });
}

void
HttpLoad::launch()
{
    if (cfg_.maxConns > 0 && started_ >= cfg_.maxConns)
        return;   // bounded workload exhausted; let the loop drain

    const Port port_lo = 1024;
    const Port port_hi =
        cfg_.clientPortSpan > 0
            ? static_cast<Port>(
                  std::min(65535, 1024 + cfg_.clientPortSpan - 1))
            : 65535;

    // Pick a free client 4-tuple; with a narrowed port span the whole
    // space can be in flight, in which case the launch is skipped and
    // retried shortly (rather than recursing forever).
    IpAddr server = 0;
    IpAddr client = 0;
    Port sport = 0;
    std::uint64_t k = 0;
    const int span = port_hi - port_lo + 1;
    const long max_tries =
        static_cast<long>(cfg_.clientIps) * span;
    bool found = false;
    for (long tries = 0; tries < max_tries; ++tries) {
        server = cfg_.serverAddrs[serverCursor_++ %
                                  cfg_.serverAddrs.size()];
        std::size_t ci = clientCursor_++ % cfg_.clientIps;
        client = cfg_.clientBase + static_cast<IpAddr>(ci);
        sport = nextPort_[ci];
        nextPort_[ci] = sport >= port_hi ? port_lo
                                         : static_cast<Port>(sport + 1);
        k = key(FiveTuple{server, client, cfg_.serverPort, sport});
        if (!conns_.find(k)) {
            found = true;
            break;
        }
    }
    if (!found) {
        ++launchSkips_;
        eq_.scheduleIn(ticksFromUsec(100), [this] { launch(); });
        return;
    }

    Conn conn;
    conn.tx = FiveTuple{client, server, sport, cfg_.serverPort};
    conn.epoch = nextEpoch_++;
    conn.traceId = traceIdFromEpoch(conn.epoch);
    conn.startTick = eq_.now();
    conn.health =
        cfg_.healthEvery > 0 &&
        started_ % static_cast<std::uint64_t>(cfg_.healthEvery) == 0;
    // Bresenham stripe: exactly longLivedPermille long-lived conns per
    // 1000 launches, deterministically interleaved.
    const std::uint64_t pm =
        static_cast<std::uint64_t>(cfg_.longLivedPermille);
    conn.longLived = !conn.health && pm > 0 &&
                     ((started_ + 1) * pm) / 1000 >
                         (started_ * pm) / 1000;
    conn.remaining =
        conn.longLived
            ? std::max(1, cfg_.longLivedRequests)
            : (cfg_.requestsPerConn > 0 ? cfg_.requestsPerConn : 1);
    Conn &c = *conns_.insert(k, conn).first;
    ++started_;
    if (c.health)
        ++healthStarted_;
    if (traceLog_)
        traceLog_->clientStart(c.traceId, eq_.now());

    if (cfg_.timeout > 0) {
        std::uint64_t epoch = c.epoch;
        eq_.scheduleIn(cfg_.timeout, [this, k, epoch] {
            const Conn *cp = conns_.find(k);
            if (!cp || cp->epoch != epoch)
                return;   // finished (or tuple reused) in time
            ++timeouts_;
            finish(k, false);
        });
    }

    send(c, k, kSyn, 0);
    if (cfg_.rtoBase > 0)
        armRetx(k, c.epoch, State::kSynSent, 0, cfg_.rtoBase);
}

void
HttpLoad::send(Conn &c, std::uint64_t k, std::uint8_t flags,
               std::uint32_t payload)
{
    Packet pkt;
    pkt.tuple = c.tx;
    pkt.flags = flags;
    pkt.payload = payload;
    pkt.connId = k;
    pkt.cookie = c.cookie;
    pkt.txSeq = c.txSeq++;
    // Health probes mark their whole flow (DSCP/SO_PRIORITY analog) so
    // kernel-level overload drops can spare them.
    pkt.prio = c.health;
    pkt.traceId = c.traceId;
    wire_.transmit(pkt, eq_.now());
}

void
HttpLoad::armRetx(std::uint64_t k, std::uint64_t epoch, State armed_state,
                  std::uint64_t progress, Tick rto)
{
    eq_.scheduleIn(rto, [this, k, epoch, armed_state, progress, rto] {
        Conn *cp = conns_.find(k);
        if (!cp || cp->epoch != epoch)
            return;   // connection finished (or tuple reused)
        Conn &c = *cp;
        if (c.state != armed_state)
            return;   // moved on; the retx concern is gone
        if (armed_state == State::kWaitResponse &&
            c.rxResponses != progress)
            return;   // response arrived since the request went out
        if (c.retx >= cfg_.maxRetx) {
            ++retxGiveups_;
            finish(k, false);
            return;
        }
        ++c.retx;
        if (armed_state == State::kSynSent) {
            ++synRetx_;
            send(c, k, kSyn, 0);
        } else {
            ++reqRetx_;
            send(c, k, kAck | kPsh, reqBytes(c));
        }
        Tick cap = cfg_.rtoMax > 0 ? cfg_.rtoMax : 8 * cfg_.rtoBase;
        Tick next = rto * 2 > cap ? cap : rto * 2;
        armRetx(k, epoch, armed_state, progress, next);
    });
}

void
HttpLoad::finish(std::uint64_t k, bool ok)
{
    if (const Conn *cp = conns_.find(k)) {
        const Conn &c = *cp;
        if (c.health) {
            if (ok)
                ++healthCompleted_;
            else
                ++healthFailed_;
        }
        if (ok)
            latencySamples_.push_back({eq_.now(), eq_.now() - c.startTick});
        if (traceLog_)
            traceLog_->clientEnd(c.traceId, eq_.now(), ok);
        conns_.erase(k);
    }
    if (ok)
        ++completed_;
    else
        ++failed_;
    if (closedLoop_)
        launch();
}

void
HttpLoad::onPacket(const Packet &pkt)
{
    std::uint64_t k = key(pkt.tuple);
    Conn *cp = conns_.find(k);
    if (!cp)
        return;   // late packet of a finished connection
    Conn &c = *cp;

    if (pkt.has(kRst)) {
        // An RST during teardown (after the full response landed) is the
        // server aborting an already-served exchange; don't let it turn a
        // success into a failure.
        bool late = c.gotData && (c.state == State::kWaitFin ||
                                  c.state == State::kWaitLastAck ||
                                  c.state == State::kClosing);
        finish(k, late);
        return;
    }

    switch (c.state) {
      case State::kSynSent:
        if (pkt.has(kSyn) && pkt.has(kAck)) {
            // A cookie-carrying SYN-ACK means the server kept no state;
            // echo the cookie on everything we send from here on.
            if (pkt.cookie != 0)
                c.cookie = pkt.cookie;
            // ACK completes the handshake; the request follows at once
            // (both on the wire back to back, like a real client that
            // writes immediately after connect()).
            send(c, k, kAck, 0);
            sendRequest(c, k);
            c.state = State::kWaitResponse;
        }
        break;

      case State::kWaitResponse:
        if (pkt.payload > 0) {
            c.gotData = true;
            ++responses_;
            ++c.rxResponses;
            bytesReceived_ += pkt.payload;
            --c.remaining;
            if (c.remaining > 0 && !pkt.has(kFin)) {
                // Keep-alive: issue the next request on the same
                // connection, after think time for long-lived conns.
                if (c.longLived && cfg_.longLivedThink > 0) {
                    std::uint64_t epoch = c.epoch;
                    eq_.scheduleIn(cfg_.longLivedThink,
                                   [this, k, epoch] {
                                       Conn *c2 = conns_.find(k);
                                       if (!c2 || c2->epoch != epoch)
                                           return;
                                       sendRequest(*c2, k);
                                   });
                } else {
                    sendRequest(c, k);
                }
                break;
            }
        }
        if (pkt.has(kFin)) {
            // Server closed (keep-alive off). ACK its FIN and send ours.
            send(c, k, kAck | kFin, 0);
            c.state = State::kWaitLastAck;
        } else if (c.gotData && c.remaining <= 0) {
            if (cfg_.requestsPerConn > 1 && cfg_.longLivedPermille == 0) {
                // Uniform long-lived mode: the client closes first.
                send(c, k, kAck | kFin, 0);
                c.state = State::kClosing;
            } else {
                // Short-lived (and mixed-mode conns, whose last request
                // carried "Connection: close"): the server closes.
                c.state = State::kWaitFin;
            }
        }
        break;

      case State::kWaitFin:
        if (pkt.has(kFin)) {
            send(c, k, kAck | kFin, 0);
            c.state = State::kWaitLastAck;
        }
        break;

      case State::kWaitLastAck:
        if (pkt.has(kAck) && !pkt.has(kFin))
            finish(k, c.gotData);
        break;

      case State::kClosing:
        if (pkt.has(kFin)) {
            // Server answered our FIN with its own; final ACK and done.
            send(c, k, kAck, 0);
            finish(k, c.gotData);
        }
        break;
    }
}

void
HttpLoad::sendRequest(Conn &c, std::uint64_t k)
{
    std::uint8_t flags = kAck | kPsh;
    // Mixed-lifetime mode negotiates per request: only a long-lived
    // conn's non-final requests omit the close header, so a keep-alive
    // server still actively closes every other exchange.
    if (cfg_.longLivedPermille > 0 && c.remaining <= 1)
        flags |= kConnClose;
    send(c, k, flags, reqBytes(c));
    if (cfg_.rtoBase > 0)
        armRetx(k, c.epoch, State::kWaitResponse, c.rxResponses,
                cfg_.rtoBase);
}

void
HttpLoad::markWindow()
{
    windowStart_ = eq_.now();
    completedAtMark_ = completed_;
    responsesAtMark_ = responses_;
}

double
HttpLoad::throughputSinceMark() const
{
    double span = secondsFromTicks(eq_.now() - windowStart_);
    if (span <= 0.0)
        return 0.0;
    return static_cast<double>(completed_ - completedAtMark_) / span;
}

double
HttpLoad::requestThroughputSinceMark() const
{
    double span = secondsFromTicks(eq_.now() - windowStart_);
    if (span <= 0.0)
        return 0.0;
    return static_cast<double>(responses_ - responsesAtMark_) / span;
}

std::size_t
HttpLoad::windowBegin() const
{
    // Completion ticks never decrease, so the window is a suffix.
    std::size_t lo = 0;
    std::size_t hi = latencySamples_.size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (latencySamples_[mid].first < windowStart_)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

Tick
HttpLoad::latencyPercentileSinceMark(double p) const
{
    const std::size_t begin = windowBegin();
    std::vector<Tick> lat(latencySamples_.size() - begin);
    for (std::size_t i = 0; i < lat.size(); ++i)
        lat[i] = latencySamples_[begin + i].second;
    if (lat.empty())
        return 0;
    if (p < 0.0)
        p = 0.0;
    if (p > 1.0)
        p = 1.0;
    auto idx = static_cast<std::size_t>(
        p * static_cast<double>(lat.size() - 1) + 0.5);
    std::nth_element(lat.begin(),
                     lat.begin() + static_cast<std::ptrdiff_t>(idx),
                     lat.end());
    return lat[idx];
}

std::uint64_t
HttpLoad::latencySamplesSinceMark() const
{
    return latencySamples_.size() - windowBegin();
}

} // namespace fsim
