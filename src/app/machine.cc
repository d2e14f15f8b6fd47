#include "app/machine.hh"

#include "sim/logging.hh"

namespace fsim
{

Machine::Machine(EventQueue &eq, Wire &wire, const MachineConfig &cfg)
    : eq_(eq), cfg_(cfg), costs_(cfg.costs), rng_(cfg.seed)
{
    fsim_assert(cfg_.cores > 0);
    if (cfg_.listenIps <= 0)
        cfg_.listenIps = cfg_.cores;

    tracer_ = std::make_unique<Tracer>(cfg_.cores);
    tracer_->setEnabled(cfg_.traceEnabled);

    cache_ = std::make_unique<CacheModel>(cfg_.cores,
                                          costs_.cacheMissPenalty,
                                          costs_.numaNodeSize,
                                          costs_.numaRemotePenalty);
    cache_->setBackgroundMissRate(costs_.backgroundMissRate);
    cache_->setTracer(tracer_.get());
    cpu_ = std::make_unique<CpuModel>(eq_, *cache_, costs_, cfg_.cores);
    cpu_->setTracer(tracer_.get());
    locks_.setTracer(tracer_.get());

    NicConfig nic_cfg = cfg_.nic;
    nic_cfg.numQueues = cfg_.cores;
    nic_ = std::make_unique<Nic>(nic_cfg);

    pressure_ = std::make_unique<PressureState>(cfg_.overload);

    KernelStack::Deps deps;
    deps.eq = &eq_;
    deps.cpu = cpu_.get();
    deps.cache = cache_.get();
    deps.locks = &locks_;
    deps.costs = &costs_;
    deps.nic = nic_.get();
    deps.wire = &wire;
    deps.rng = &rng_;
    deps.tracer = tracer_.get();
    deps.overload = &cfg_.overload;
    deps.pressure = pressure_.get();
    kernel_ = std::make_unique<KernelStack>(deps, cfg_.kernel);

    for (int i = 0; i < cfg_.listenIps; ++i) {
        IpAddr a = cfg_.baseAddr + static_cast<IpAddr>(i);
        addrs_.push_back(a);
        wire.attach(a, [this](const Packet &pkt) {
            kernel_->packetArrived(pkt);
        });
    }

    busyAtMark_.assign(cfg_.cores, 0);
}

Machine::~Machine() = default;

void
Machine::markWindow()
{
    windowStart_ = eq_.now();
    for (int c = 0; c < cfg_.cores; ++c)
        busyAtMark_[c] = cpu_->core(c).busyTicks();
}

std::vector<double>
Machine::utilizationSinceMark() const
{
    std::vector<double> util(cfg_.cores, 0.0);
    Tick span = eq_.now() - windowStart_;
    if (span == 0)
        return util;
    for (int c = 0; c < cfg_.cores; ++c) {
        std::uint64_t busy = cpu_->core(c).busyTicks() - busyAtMark_[c];
        util[c] = static_cast<double>(busy) / static_cast<double>(span);
    }
    return util;
}

} // namespace fsim
