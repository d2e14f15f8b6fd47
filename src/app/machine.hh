/**
 * @file
 * A simulated server machine: cores + cache + NIC + kernel, attached to a
 * Wire. This is the unit the benchmark harness instantiates per
 * experiment.
 */

#ifndef FSIM_APP_MACHINE_HH
#define FSIM_APP_MACHINE_HH

#include <memory>
#include <vector>

#include "cpu/cache_model.hh"
#include "cpu/core.hh"
#include "cpu/cycle_costs.hh"
#include "kernel/kernel_config.hh"
#include "kernel/kernel_stack.hh"
#include "net/nic.hh"
#include "net/wire.hh"
#include "overload/overload_config.hh"
#include "overload/pressure.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sync/lock_registry.hh"
#include "trace/tracer.hh"

namespace fsim
{

/** Configuration of one simulated machine. */
struct MachineConfig
{
    int cores = 8;
    KernelConfig kernel;
    NicConfig nic;               //!< numQueues forced to `cores`
    CycleCosts costs;
    IpAddr baseAddr = 0x0a000001;    //!< 10.0.0.1
    /** Service IPs (the paper binds one listen IP per core; 0 = cores). */
    int listenIps = 0;
    Port servicePort = 80;
    std::uint64_t seed = 1;
    /** Leave the trace subsystem on (cheap; overhead bench gates it). */
    bool traceEnabled = true;
    /** Overload-control knobs (src/overload); disabled by default. */
    OverloadConfig overload;
};

/** One simulated server machine. */
class Machine
{
  public:
    Machine(EventQueue &eq, Wire &wire, const MachineConfig &cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    KernelStack &kernel() { return *kernel_; }
    CpuModel &cpu() { return *cpu_; }
    CacheModel &cache() { return *cache_; }
    Tracer &tracer() { return *tracer_; }
    const Tracer &tracer() const { return *tracer_; }
    LockRegistry &locks() { return locks_; }
    Nic &nic() { return *nic_; }
    Rng &rng() { return rng_; }
    EventQueue &eventQueue() { return eq_; }
    PressureState &pressure() { return *pressure_; }
    const PressureState &pressure() const { return *pressure_; }
    const CycleCosts &costs() const { return costs_; }
    const MachineConfig &config() const { return cfg_; }

    /** Service addresses (baseAddr .. baseAddr+listenIps-1). */
    const std::vector<IpAddr> &addrs() const { return addrs_; }

    int numCores() const { return cfg_.cores; }
    Port servicePort() const { return cfg_.servicePort; }

    /** Per-core utilization over a window started by markWindow(). */
    std::vector<double> utilizationSinceMark() const;
    /** Begin a measurement window. */
    void markWindow();

  private:
    EventQueue &eq_;
    MachineConfig cfg_;
    CycleCosts costs_;
    Rng rng_;
    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<CacheModel> cache_;
    std::unique_ptr<CpuModel> cpu_;
    LockRegistry locks_;
    std::unique_ptr<Nic> nic_;
    std::unique_ptr<PressureState> pressure_;
    std::unique_ptr<KernelStack> kernel_;
    std::vector<IpAddr> addrs_;

    Tick windowStart_ = 0;
    std::vector<std::uint64_t> busyAtMark_;
};

} // namespace fsim

#endif // FSIM_APP_MACHINE_HH
