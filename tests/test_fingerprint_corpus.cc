/**
 * @file
 * Fingerprint regression corpus: the determinism fingerprints of a
 * fixed set of workloads are pinned to committed constants.
 *
 * The determinism tests elsewhere prove a run reproduces ITSELF
 * (same-seed double runs match). This corpus pins something stronger:
 * runs reproduce the committed HISTORY. Any change to the DES core —
 * event-queue replacement, tie-break handling, timer bucketing, RNG
 * stream assignment — that silently reorders events will shift one of
 * these fingerprints even when every invariant still holds. That is
 * exactly the failure mode a priority-queue swap can introduce, so
 * this test is the tripwire for the ladder-queue core.
 *
 * Two pools:
 *  - every committed fuzz reproducer (each .scn in tests/corpus), replayed
 *    through the scenario runner (invariants armed, double-run);
 *  - quick testbed configs shaped like the paper benches (fig3
 *    haproxy, fig4 nginx, million-conn mixed-lifetime), plus one quick
 *    fleet run with a machine crash and restart.
 *
 * When a fingerprint change is INTENDED (a semantic change to the
 * simulation, a new cost model), re-pin by running with
 * --gtest_also_run_disabled_tests=0 and pasting the "actual" values
 * this test prints on failure; say why in the commit message.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "check/scenario.hh"
#include "fleet/fleet.hh"
#include "harness/experiment.hh"

#ifndef FSIM_CORPUS_DIR
#error "build must define FSIM_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

namespace fsim
{
namespace
{

struct ScenarioPin
{
    const char *file;            //!< name under tests/corpus/
    std::uint64_t fingerprint;   //!< pinned ScenarioResult fingerprint
};

// Pinned history for every committed fuzz reproducer. Keep in sync
// with tests/corpus/: a new .scn lands here with its first fingerprint.
const ScenarioPin kScenarioPins[] = {
    {"atr_clamp_reorder_fastsocket.scn", 0x714b59c3d4918374},
    {"cookie_flood_small_backlog.scn", 0x85e4fcf5e74957cc},
    {"fleet_gray_degrade_flap.scn", 0x8bfaf30d27e67c94},
    {"fleet_partition_lb_machine.scn", 0x1aaa543db5dd0a61},
    {"fleet_rolling_restart_overload.scn", 0xeb6648998995f297},
    {"keepalive_partial_features.scn", 0x286ea8240e94c287},
    {"loss_burst_client_retx.scn", 0xfbca52dfacf68bff},
    {"lossy_haproxy.scn", 0xb0e03df2826ac200},
    {"lossy_tiny_backlog_haproxy.scn", 0x9516da1f5b56caa4},
    {"proxy_port_exhaustion_keepalive.scn", 0x74fb8ad68dc340c},
    {"reuseport_uma_mutex.scn", 0x522a554bd9d7942f},
    {"timewait_tuple_collision_retry.scn", 0xfaa3552135bdabe4},
    {"tiny_backlog_flood.scn", 0xd00b5d240b5378ec},
    {"tuple_reuse_trace_adopt.scn", 0x8de0e43dd9cf34a0},
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(FingerprintCorpus, ScenarioReproducersMatchPinnedHistory)
{
    for (const ScenarioPin &pin : kScenarioPins) {
        const std::string path =
            std::string(FSIM_CORPUS_DIR) + "/" + pin.file;
        Scenario s;
        std::string err;
        ASSERT_TRUE(parseScenario(readFile(path), s, err))
            << pin.file << ": " << err;
        ScenarioResult r = runScenario(s);
        EXPECT_TRUE(r.drained) << pin.file;
        EXPECT_TRUE(r.deterministic) << pin.file;
        EXPECT_TRUE(r.invariants.ok()) << pin.file;
        EXPECT_EQ(r.fingerprint, pin.fingerprint)
            << pin.file << ": actual 0x" << std::hex << r.fingerprint
            << " (re-pin only for intended semantic changes)";
    }
}

TEST(FingerprintCorpus, EveryCorpusFileIsPinned)
{
    int scanned = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(FSIM_CORPUS_DIR)) {
        if (entry.path().extension() != ".scn")
            continue;
        ++scanned;
        const std::string name = entry.path().filename().string();
        bool pinned = false;
        for (const ScenarioPin &pin : kScenarioPins)
            pinned = pinned || name == pin.file;
        EXPECT_TRUE(pinned) << name << " has no entry in kScenarioPins";
    }
    EXPECT_EQ(scanned, static_cast<int>(std::size(kScenarioPins)));
}

struct BenchPin
{
    const char *label;
    std::uint64_t fingerprint;
};

/** Quick fig4-shaped nginx run (4 cores, fastsocket). */
ExperimentConfig
fig4Config()
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 4;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.machine.seed = 42;
    cfg.concurrencyPerCore = 100;
    cfg.warmupSec = 0.02;
    cfg.measureSec = 0.05;
    return cfg;
}

/** Quick fig3-shaped haproxy run (proxy tier in front of backends). */
ExperimentConfig
fig3Config()
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kHaproxy;
    cfg.machine.cores = 4;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.machine.seed = 42;
    cfg.backendCount = 4;
    cfg.concurrencyPerCore = 100;
    cfg.warmupSec = 0.02;
    cfg.measureSec = 0.05;
    return cfg;
}

/** Quick million-conn-shaped run: mixed lifetimes, parked think
 *  timers, tight backlogs — the workload the ladder queue is sized
 *  by, scaled down to test time. */
ExperimentConfig
millionConnConfig()
{
    ExperimentConfig cfg;
    cfg.app = AppKind::kNginx;
    cfg.machine.cores = 8;
    cfg.machine.kernel = KernelConfig::fastsocket();
    cfg.machine.seed = 42;
    cfg.machine.traceEnabled = false;
    cfg.longLivedPermille = 900;
    cfg.longLivedRequests = 2;
    cfg.longLivedThink = ticksFromSeconds(30.0);
    cfg.listenBacklog = 1024;
    cfg.machine.kernel.synBacklog = 4096;
    cfg.concurrencyPerCore = 100;
    cfg.warmupSec = 0.02;
    cfg.measureSec = 0.05;
    return cfg;
}

TEST(FingerprintCorpus, QuickBenchConfigsMatchPinnedHistory)
{
    struct Row
    {
        BenchPin pin;
        ExperimentConfig cfg;
    } rows[] = {
        {{"fig4-nginx", 0xd0d84453b05e7ba8}, fig4Config()},
        {{"fig3-haproxy", 0xd36c263eedb86b41}, fig3Config()},
        {{"million-conn", 0x7beaa41310c83bf9}, millionConnConfig()},
    };
    for (Row &row : rows) {
        Testbed bed(row.cfg);
        ExperimentResult r = bed.run();
        EXPECT_NE(r.fingerprint, 0u) << row.pin.label;
        EXPECT_EQ(r.fingerprint, row.pin.fingerprint)
            << row.pin.label << ": actual 0x" << std::hex
            << r.fingerprint
            << " (re-pin only for intended semantic changes)";
    }
}

/** Quick haproxy fleet: three machines behind two balancers, machine 1
 *  crashes and comes back as a second generation mid-window. */
FleetConfig
fleetConfig()
{
    FleetConfig fc;
    fc.serverMachines = 3;
    fc.balancers = 2;
    fc.base.app = AppKind::kHaproxy;
    fc.base.backendCount = 4;
    fc.base.machine.cores = 2;
    fc.base.machine.kernel = KernelConfig::fastsocket();
    fc.base.machine.seed = 42;
    fc.base.concurrencyPerCore = 40;
    fc.base.warmupSec = 0.005;
    fc.base.measureSec = 0.03;
    fc.base.statWindows = 2;
    fc.base.clientTimeout = ticksFromMsec(30);
    fc.base.clientRtoBase = ticksFromUsec(8000);
    std::string err;
    EXPECT_TRUE(parseFaultPlan("machine_crash@0.01-0.02:target=1,mode=rst",
                               fc.base.faults, err))
        << err;
    return fc;
}

TEST(FingerprintCorpus, QuickFleetConfigMatchesPinnedHistory)
{
    FleetTestbed bed(fleetConfig());
    ExperimentResult r = bed.run();
    EXPECT_EQ(r.fleet.restarts, 1u);
    EXPECT_EQ(r.fingerprint, 0x366782f530d8ec3du)
        << "fleet-haproxy: actual 0x" << std::hex << r.fingerprint
        << " (re-pin only for intended semantic changes)";
}

} // namespace
} // namespace fsim
