/**
 * @file
 * Receive Flow Deliver (RFD) — the paper's mechanism for *active*
 * connection locality (section 3.3).
 *
 * When a process on core c opens an active connection, RFD picks a source
 * port p with hash(p) == c, where
 *
 *     hash(p) = p & (ROUND_UP_POWER_OF_2(ncores) - 1)
 *
 * Response packets carry p as their destination port, so the kernel (or the
 * NIC via FDir Perfect-Filtering, which supports exactly this kind of
 * bit-wise match) can recover the owning core from the header alone.
 *
 * Incoming packets must first be classified, because the hash only applies
 * to active incoming packets (otherwise RFD would break passive locality).
 * The paper's three rules, applied in order:
 *
 *   1. source port well-known (<1024)      -> active incoming
 *   2. destination port well-known         -> passive incoming
 *   3. (optional, precise) destination port matches a local listener
 *                                          -> passive, else active
 *
 * As a hardening extension the paper sketches, the bits used by the hash
 * can be randomized (randomizeBits()) so an attacker cannot aim all
 * connections at one core.
 */

#ifndef FSIM_FASTSOCKET_RFD_HH
#define FSIM_FASTSOCKET_RFD_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace fsim
{

/** Classification of an incoming packet (paper section 3.3). */
enum class PacketClass
{
    kPassiveIncoming,   //!< belongs to a passive (accepted) connection
    kActiveIncoming,    //!< reply traffic of an active (connect()) flow
};

/** Receive Flow Deliver. */
class ReceiveFlowDeliver
{
  public:
    /**
     * @param n_cores Cores participating in steering.
     * @param precise Apply rule 3 (listener probe) when rules 1-2 are
     *                inconclusive; otherwise default to active.
     */
    explicit ReceiveFlowDeliver(int n_cores, bool precise = true);

    /** roundup_pow2(n)-1, the mask the paper programs into FDir. */
    static Port hashMask(int n_cores);

    /** The RFD hash: which core a (destination) port maps to. */
    CoreId hash(Port p) const;

    /**
     * Classify an incoming packet using the three ordered rules.
     *
     * @param has_listener Probe "is anyone listening on (addr, port)?";
     *        only consulted by rule 3.
     */
    PacketClass classify(
        const Packet &pkt,
        const std::function<bool(IpAddr, Port)> &has_listener) const;

    /**
     * Core that should process an incoming packet, or kInvalidCore when
     * RFD does not redirect (passive traffic is left to the Local Listen
     * Table / RSS placement).
     */
    CoreId steerTarget(const Packet &pkt, PacketClass cls) const;

    /**
     * Randomize which port bits feed the hash (security hardening).
     *
     * After this, hash() gathers the selected bits and portCandidate()
     * scatters a core id back into them.
     */
    void randomizeBits(Rng &rng);

    /** Bit positions currently used by the hash, LSB-first. */
    const std::vector<int> &hashBits() const { return bits_; }

    /**
     * The @p idx -th source-port candidate for core @p core: a port whose
     * hash() equals @p core. Candidates are distinct for distinct idx
     * within [0, candidateCount()).
     */
    Port portCandidate(CoreId core, std::uint32_t idx) const;

    /** Number of distinct port candidates per core. */
    std::uint32_t candidateCount() const;

    int numCores() const { return nCores_; }

  private:
    int nCores_;
    bool precise_;
    std::vector<int> bits_;     //!< positions of hash bits, LSB-first
};

} // namespace fsim

#endif // FSIM_FASTSOCKET_RFD_HH
