#include "app/syn_flood.hh"

#include "sim/logging.hh"

namespace fsim
{

SynFlood::SynFlood(EventQueue &eq, Wire &wire, std::vector<IpAddr> targets,
                   Port target_port)
    : eq_(eq), wire_(wire), targets_(std::move(targets)),
      targetPort_(target_port)
{
    fsim_assert(!targets_.empty());
    // Absorb the victim's SYN-ACKs (and RSTs/cookies) without ever
    // answering: the attacker's half of the handshake stays silent.
    wire_.attachRange(kAttackerBase,
                      kAttackerBase + static_cast<IpAddr>(kAttackerIps - 1),
                      [](const Packet &) {});
}

void
SynFlood::addWindow(Tick start, Tick end, double syns_per_sec)
{
    fsim_assert(end > start && syns_per_sec > 0.0);
    Tick spacing = ticksFromSeconds(1.0 / syns_per_sec);
    if (spacing == 0)
        spacing = 1;
    eq_.schedule(start, [this, end, spacing] { fire(end, spacing); });
}

void
SynFlood::fire(Tick end, Tick spacing)
{
    if (eq_.now() >= end)
        return;

    // Unique source tuple per SYN: rotate attacker IPs fastest, then
    // the ephemeral port space.
    IpAddr src = kAttackerBase +
                 static_cast<IpAddr>(cursor_ % kAttackerIps);
    Port sport = static_cast<Port>(
        1024 + (cursor_ / kAttackerIps) % (65536 - 1024));
    IpAddr dst = targets_[cursor_ % targets_.size()];
    ++cursor_;

    Packet syn;
    syn.tuple = FiveTuple{src, dst, sport, targetPort_};
    syn.flags = kSyn;
    wire_.transmit(syn, eq_.now());
    ++synsSent_;

    eq_.schedule(eq_.now() + spacing,
                 [this, end, spacing] { fire(end, spacing); });
}

} // namespace fsim
