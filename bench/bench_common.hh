/**
 * @file
 * Shared scaffold for the figure/table reproduction benches: the shared
 * flags (BenchArgs), the gate recorder (Gates), the shared row presets
 * and the row driver (runRows).
 *
 * Every bench accepts `--quick` to shrink simulation windows (useful for
 * smoke runs and CI) and `--json=<path>` to export every experiment row
 * as a versioned JSON document, and prints the paper-format table plus
 * the paper's reference numbers for side-by-side comparison.
 *
 * runRows is the only code that builds, flags, gates and reports a row:
 * it parses the row's built-in specs, applies BenchArgs, builds the
 * Testbed or FleetTestbed, drives and reads it, gates each window's
 * invariants and adds each window to the JSON report. Its contract:
 *  - rows share only immutable inputs (flags, presets, scenario tables);
 *  - what the bench needs from a testbed (kernel stats, proxy counters,
 *    incidents, the trace log, ramp checkpoints) is read inside the row;
 *  - printing and calibrated gates come after runRows, in row order.
 * Exempt, with the reason in each header: bench_sim_core,
 * bench_listener_lookup, bench_micro_structures, fuzz_scenarios and
 * diff_oracle.
 */

#ifndef FSIM_BENCH_BENCH_COMMON_HH
#define FSIM_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/fingerprint.hh"
#include "fault/fault_plan.hh"
#include "fleet/fleet.hh"
#include "harness/bench_json.hh"
#include "harness/experiment.hh"
#include "overload/overload_config.hh"
#include "sim/logging.hh"
#include "sim/strict_parse.hh"
#include "stats/metrics.hh"
#include "stats/stats.hh"
#include "stats/table.hh"
#include "trace/fleet_trace.hh"
#include "trace/perfetto_export.hh"
#include "trace/span_forensics.hh"

namespace fsim
{

/** @p v as the type a %llu conversion takes. */
inline unsigned long long
llu(std::uint64_t v)
{
    return v;
}

/**
 * Parse shared bench flags.
 *
 * All flag handling lives here so a new shared flag lands in every bench
 * at once; bench-specific flags are consumed from `extra` (see
 * extraFlag/extraValue) instead of each bench re-walking argv.
 *
 * Unknown `--flag`s are rejected with a usage line and exit status 2: a
 * typo like `--forensic` must never silently run the bench without the
 * option the caller asked for. Benches with their own flags declare
 * them via parse()'s allowlist ("--name" exact, "--name=" prefix).
 * Malformed values exit 2 the same way: `--seed=abc` must not run the
 * default seed.
 */
struct BenchArgs
{
    bool quick = false;
    bool trace = true;      //!< --notrace disables event/phase recording
    bool fingerprint = false;   //!< --fingerprint prints per-row hashes
    bool forensics = false; //!< --forensics prints span-latency reports
    std::string jsonPath;   //!< --json=<path>; empty = no export
    std::string perfettoPath;   //!< --perfetto=<path>; empty = none
    std::string metricsPath;    //!< --metrics=<path>; Prometheus text
    FaultPlan faults;       //!< parsed --faults plan (empty = none)
    std::string overloadSpec;   //!< --overload=<spec>; raw text
    OverloadConfig overload;    //!< parsed --overload knobs
    std::uint64_t seed = 0;     //!< --seed=<n>; 0 = bench default
    /** Arguments no shared flag matched (bench-specific flags). */
    std::vector<std::string> extra;

    static BenchArgs
    parse(int argc, char **argv,
          std::initializer_list<const char *> allowed = {})
    {
        BenchArgs a;
        std::string err;
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--quick"))
                a.quick = true;
            else if (!std::strcmp(argv[i], "--notrace"))
                a.trace = false;
            else if (!std::strcmp(argv[i], "--fingerprint"))
                a.fingerprint = true;
            else if (!std::strcmp(argv[i], "--forensics"))
                a.forensics = true;
            else if (!std::strncmp(argv[i], "--json=", 7))
                a.jsonPath = argv[i] + 7;
            else if (!std::strncmp(argv[i], "--perfetto=", 11))
                a.perfettoPath = argv[i] + 11;
            else if (!std::strncmp(argv[i], "--metrics=", 10))
                a.metricsPath = argv[i] + 10;
            else if (!std::strncmp(argv[i], "--seed=", 7))
                a.seed = wholeNumber("--seed=", argv[i] + 7);
            else if (!std::strncmp(argv[i], "--faults=", 9)) {
                if (!parseFaultPlan(argv[i] + 9, a.faults, err))
                    badSpec("--faults", err);
            } else if (!std::strncmp(argv[i], "--overload=", 11)) {
                a.overloadSpec = argv[i] + 11;
                if (!parseOverloadSpec(a.overloadSpec, a.overload, err))
                    badSpec("--overload", err);
            } else if (!std::strncmp(argv[i], "--", 2) &&
                       !allowedMatch(argv[i], allowed)) {
                usage(argv[0], argv[i], allowed);
                std::exit(2);
            } else {
                a.extra.push_back(argv[i]);
            }
        }
        return a;
    }

    /** A --faults/--overload value its parser refused: print the
     *  parser's error and exit 2. */
    [[noreturn]] static void
    badSpec(const char *flag, const std::string &err)
    {
        std::fprintf(stderr, "%s: %s\n", flag, err.c_str());
        std::exit(2);
    }

    /** True when @p arg matches an allowlist entry: entries ending in
     *  '=' are prefix matches ("--runs=" accepts "--runs=50"), the rest
     *  are exact matches ("--nofaults"). */
    static bool
    allowedMatch(const char *arg,
                 std::initializer_list<const char *> allowed)
    {
        for (const char *spec : allowed) {
            std::size_t n = std::strlen(spec);
            if (n > 0 && spec[n - 1] == '=') {
                if (!std::strncmp(arg, spec, n))
                    return true;
            } else if (!std::strcmp(arg, spec)) {
                return true;
            }
        }
        return false;
    }

    static void
    usage(const char *prog, const char *bad,
          std::initializer_list<const char *> allowed)
    {
        std::fprintf(stderr, "%s: unknown flag '%s'\n", prog, bad);
        std::fprintf(stderr,
                     "usage: %s [--quick] [--notrace] [--fingerprint] "
                     "[--forensics] [--json=PATH] [--perfetto=PATH] "
                     "[--metrics=PATH] [--seed=N] [--faults=PLAN] "
                     "[--overload=SPEC]",
                     prog);
        for (const char *spec : allowed) {
            std::size_t n = std::strlen(spec);
            bool takesValue = n > 0 && spec[n - 1] == '=';
            std::fprintf(stderr, " [%s%s]", spec,
                         takesValue ? "..." : "");
        }
        std::fprintf(stderr, "\n");
    }

    /** Bench-specific boolean flag, e.g. extraFlag("--nofaults"). */
    bool
    extraFlag(const char *name) const
    {
        for (const std::string &e : extra)
            if (e == name)
                return true;
        return false;
    }

    /** Bench-specific value flag, e.g. extraValue("--out=", out). */
    bool
    extraValue(const char *prefix, std::string &out) const
    {
        std::size_t n = std::strlen(prefix);
        bool found = false;
        for (const std::string &e : extra)
            if (!e.compare(0, n, prefix)) {
                out = e.substr(n);
                found = true;   // last occurrence wins, like argv scans
            }
        return found;
    }

    /** Bench-specific count flag, e.g. extraCount("--runs=", runs):
     *  @p out keeps its value when the flag is absent, and a value that
     *  is not a whole number from 1 to T's maximum exits 2. */
    template <typename T>
    void
    extraCount(const char *prefix, T &out) const
    {
        std::string v;
        if (extraValue(prefix, v))
            out = static_cast<T>(wholeNumber(
                prefix, v, 1,
                static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
    }

    /** @p v as a whole number in [lo, hi]; anything else names @p flag
     *  and exits 2. */
    static std::uint64_t
    wholeNumber(const char *flag, const std::string &v,
                std::uint64_t lo = 0,
                std::uint64_t hi = std::numeric_limits<std::uint64_t>::max())
    {
        std::uint64_t n = 0;
        if (!strictU64(v, n) || n < lo || n > hi) {
            std::fprintf(stderr,
                         "%s: '%s' is not a whole number in [%llu, %llu]\n",
                         flag, v.c_str(), llu(lo), llu(hi));
            std::exit(2);
        }
        return n;
    }

    /**
     * Apply every shared knob to one experiment config: the fault plan,
     * the overload spec, and the seed override. runRows calls this once
     * per row, after its own config and built-in specs. Fault runs get a
     * client give-up timeout (stuck connections must not wedge the
     * closed loop), and a SYN flood additionally arms the embryonic-TCB
     * reaper so the SYN queue drains once the attack window closes.
     */
    void
    apply(ExperimentConfig &cfg) const
    {
        if (!faults.empty()) {
            cfg.faults = faults;
            // Cap the give-up at half the measurement window so --quick
            // runs (70ms end to end) still recycle wedged slots in-run.
            if (cfg.clientTimeout == 0)
                cfg.clientTimeout = ticksFromSeconds(
                    std::min(0.1, cfg.measureSec / 2.0));
            if (faults.has(FaultKind::kSynFlood) &&
                cfg.machine.kernel.synRcvdJiffies == 0)
                cfg.machine.kernel.synRcvdJiffies = 300;
        }
        if (!overloadSpec.empty())
            cfg.machine.overload = overload;
        if (seed != 0)
            cfg.machine.seed = seed;
        if (!trace)
            cfg.machine.traceEnabled = false;
    }
};

/** "RFD+FDir_ATR" -> "rfd-fdir-atr" (per-row Perfetto file stems). */
inline std::string
sanitizeLabel(const std::string &label)
{
    std::string out;
    for (char ch : label) {
        if (std::isalnum(static_cast<unsigned char>(ch)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
        else if (!out.empty() && out.back() != '-')
            out += '-';
    }
    while (!out.empty() && out.back() == '-')
        out.pop_back();
    return out.empty() ? "row" : out;
}

/** Per-row output path: base.json + "RSS" -> base.rss.json. */
inline std::string
perfettoRowPath(const std::string &base, const std::string &label)
{
    std::size_t dot = base.rfind('.');
    std::size_t slash = base.rfind('/');
    std::string stem = base;
    std::string ext;
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
        stem = base.substr(0, dot);
        ext = base.substr(dot);
    }
    return stem + "." + sanitizeLabel(label) + ext;
}

/** A row's --perfetto file, written by runRows while the row's span
 *  log is live; path stays empty when the row wrote none. */
struct PerfettoFile
{
    std::string path;
    bool written = false;
    PerfettoStats stats;
};

/**
 * Shared bench epilogue: print per-row determinism fingerprints when
 * --fingerprint was given (same seed + config must reprint identical
 * values, with or without --notrace), report the @p perfetto files of
 * the report's rows (in row order), and write the JSON report when
 * --json was given.
 */
inline void
finishJson(const BenchArgs &args, const BenchJsonReport &report,
           const std::vector<PerfettoFile> &perfetto = {})
{
    if (args.fingerprint) {
        std::printf("\nfingerprints:\n");
        for (std::size_t i = 0; i < report.rowCount(); ++i)
            std::printf("  %-32s %s  [%s]\n", report.rowLabel(i).c_str(),
                        Fingerprint::hex(report.rowFingerprint(i)).c_str(),
                        report.rowInvariants(i).summary().c_str());
    }
    if (args.forensics) {
        for (std::size_t i = 0; i < report.rowCount(); ++i) {
            // Fleet rows print the end-to-end critical-path breakdown
            // instead of the single-machine stage table (which a
            // FleetTestbed collect does not populate).
            if (report.rowResult(i).fleetTrace.enabled)
                std::printf("%s", renderFleetTraceReport(
                    report.rowResult(i).fleetTrace,
                    report.rowLabel(i)).c_str());
            else
                std::printf("%s", renderSpanForensics(
                    report.rowResult(i).spanForensics,
                    report.rowLabel(i)).c_str());
        }
    }
    if (!args.metricsPath.empty()) {
        for (std::size_t i = 0; i < report.rowCount(); ++i) {
            const MetricsSnapshot &ts = report.rowResult(i).timeseries;
            if (!ts.enabled || ts.series.empty()) {
                std::fprintf(stderr,
                             "warning: --metrics: row %s sampled no "
                             "series (tracing disabled or not a fleet "
                             "bench?)\n",
                             report.rowLabel(i).c_str());
                continue;
            }
            std::string path =
                perfettoRowPath(args.metricsPath, report.rowLabel(i));
            if (writePrometheusText(path, ts))
                std::printf("wrote %s (%zu series)\n", path.c_str(),
                            ts.series.size());
            else
                std::fprintf(stderr, "error: could not write %s\n",
                             path.c_str());
        }
    }
    if (!args.perfettoPath.empty()) {
        for (std::size_t i = 0; i < report.rowCount(); ++i) {
            // Fleet rows keep no single-machine span traces;
            // bench_fleet_trace exports their stitched traces itself.
            if (report.rowResult(i).fleetTrace.enabled)
                continue;
            if (i >= perfetto.size() || perfetto[i].path.empty()) {
                std::fprintf(stderr,
                             "warning: --perfetto: row %s kept no span "
                             "traces (tracing disabled?)\n",
                             report.rowLabel(i).c_str());
                continue;
            }
            const PerfettoFile &pf = perfetto[i];
            const PerfettoStats &st = pf.stats;
            if (pf.written)
                std::printf("wrote %s (%llu conns, %llu slices, "
                            "%llu waits, %llu cross-core flows%s)\n",
                            pf.path.c_str(), llu(st.tracesExported),
                            llu(st.durationEvents), llu(st.waitEvents),
                            llu(st.flowPairs),
                            st.truncated ? ", truncated" : "");
            else
                std::fprintf(stderr, "error: could not write %s\n",
                             pf.path.c_str());
        }
    }
    if (args.jsonPath.empty())
        return;
    if (report.writeFile(args.jsonPath))
        std::printf("\nwrote %s (%zu rows)\n", args.jsonPath.c_str(),
                    report.rowCount());
    else
        std::fprintf(stderr, "error: could not write %s\n",
                     args.jsonPath.c_str());
}

/**
 * Exact command that reruns a failing row's configuration: shared flags,
 * the row's seed, and its fault/overload specs. Gate-enforcing benches
 * print this next to every FAIL so a failure is reproducible without
 * reverse-engineering the row from the bench source.
 */
inline std::string
reproducerCommand(const char *bench, const BenchArgs &args,
                  const ExperimentConfig &cfg)
{
    std::string cmd = "./bench/";
    cmd += bench;
    if (args.quick)
        cmd += " --quick";
    if (!args.trace)
        cmd += " --notrace";
    char buf[48];
    std::snprintf(buf, sizeof(buf), " --seed=%llu", llu(cfg.machine.seed));
    cmd += buf;
    std::string plan = serializeFaultPlan(cfg.faults);
    if (!plan.empty())
        cmd += " '--faults=" + plan + "'";
    std::string ospec = serializeOverloadSpec(cfg.machine.overload);
    if (!ospec.empty())
        cmd += " '--overload=" + ospec + "'";
    return cmd;
}

/**
 * Gate recorder: the one way a bench checks its pass criteria. Each
 * check prints nothing when it holds and the failure, the row's seed
 * and specs, and its reproducer line when it does not.
 *
 * - invariant(): a property that holds whatever the flags (checked
 *   invariants, lossless stitching). A failure always fails the run.
 * - calibrated(): a threshold tuned on the bench's built-in fault plans
 *   and overload specs. When --faults or --overload replaced those, a
 *   failure is reported but does not fail the run.
 */
class Gates
{
  public:
    Gates(std::string bench, const BenchArgs &args)
        : bench_(std::move(bench)), args_(args),
          enforceCalibrated_(args.faults.empty() &&
                             args.overloadSpec.empty())
    {
    }

    /** @return @p ok; a false @p ok fails the run. */
    bool invariant(bool ok, const ExperimentConfig &cfg, const char *fmt,
                   ...) __attribute__((format(printf, 4, 5)))
    {
        va_list ap;
        va_start(ap, fmt);
        record(ok, true, cfg, fmt, ap);
        va_end(ap);
        return ok;
    }

    /** @return @p ok; a false @p ok fails the run unless --faults or
     *  --overload replaced the calibration. */
    bool calibrated(bool ok, const ExperimentConfig &cfg, const char *fmt,
                    ...) __attribute__((format(printf, 4, 5)))
    {
        va_list ap;
        va_start(ap, fmt);
        record(ok, enforceCalibrated_, cfg, fmt, ap);
        va_end(ap);
        return ok;
    }

    /** Enforced failures so far. */
    int failures() const { return failures_; }

    /** Process exit status: 1 once any enforced gate failed. */
    int status() const { return failures_ ? 1 : 0; }

  private:
    void
    record(bool ok, bool enforce, const ExperimentConfig &cfg,
           const char *fmt, va_list ap)
    {
        if (ok)
            return;
        std::fputs(enforce ? "  FAIL: "
                           : "  not enforced (--faults/--overload "
                             "replaced the calibration): ",
                   stdout);
        std::vprintf(fmt, ap);
        std::fputs("\n", stdout);
        if (!enforce)
            return;
        ++failures_;
        std::printf("    seed=%llu faults=\"%s\" overload=\"%s\"\n",
                    llu(cfg.machine.seed),
                    serializeFaultPlan(cfg.faults).c_str(),
                    serializeOverloadSpec(cfg.machine.overload).c_str());
        std::printf("    reproduce: %s\n",
                    reproducerCommand(bench_.c_str(), args_, cfg).c_str());
    }

    std::string bench_;
    const BenchArgs &args_;
    bool enforceCalibrated_;
    int failures_ = 0;
};

/** What every row of a bench shares: its flags, JSON report and gates. */
struct Bench
{
    Bench(const char *name, const BenchArgs &flags)
        : args(flags), json(name), gates(std::string("bench_") + name, flags)
    {
    }

    /** Print "<bench>: PASS|FAIL" when @p verdict, then the epilogue
     *  (finishJson). @return the exit status. */
    int
    finish(bool verdict = false) const
    {
        if (verdict)
            std::printf("%s: %s\n", json.benchName().c_str(),
                        gates.status() ? "FAIL" : "PASS");
        finishJson(args, json, perfetto);
        return gates.status();
    }

    const BenchArgs &args;
    BenchJsonReport json;
    Gates gates;
    /** The --perfetto file of each JSON row, in row order. */
    std::vector<PerfettoFile> perfetto;
};

/** The three kernels Figure 4 compares. */
struct KernelUnderTest
{
    const char *name;
    KernelConfig config;
};

inline const KernelUnderTest kKernels[3] = {
    {"base-2.6.32", KernelConfig::base2632()},
    {"linux-3.13", KernelConfig::linux313()},
    {"fastsocket", KernelConfig::fastsocket()},
};

/** The two kernels most benches compare: base-2.6.32 and Fastsocket. */
inline const KernelUnderTest kBaseAndFast[2] = {kKernels[0], kKernels[2]};

/** Core counts of the Figure 4 sweep. */
inline const int kCoreSweep[] = {1, 4, 8, 12, 16, 20, 24};

/** One Figure 4 row: @p app on @p cores running @p kernel, at the Figure
 *  4 concurrency and windows (fig4a, fig4b and phase_breakdown). */
inline ExperimentConfig
fig4Config(const BenchArgs &args, AppKind app, int cores,
           const KernelConfig &kernel)
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.machine.cores = cores;
    cfg.machine.kernel = kernel;
    cfg.concurrencyPerCore = args.quick ? 150 : 400;
    cfg.warmupSec = args.quick ? 0.02 : 0.05;
    cfg.measureSec = args.quick ? 0.05 : 0.15;
    return cfg;
}

/** The read-out of a row that reads nothing. */
struct NoRead {};

/** What a row measured: each window's result under its JSON label, and
 *  its read-out. */
template <typename Read>
struct RowOutput
{
    std::string label;
    std::vector<std::pair<std::string, ExperimentResult>> windows = {};
    Read read = {};

    /** Add a measured window, under the row's label unless @p as. */
    void
    yield(ExperimentResult r, const std::string &as = {})
    {
        windows.emplace_back(as.empty() ? label : as, std::move(r));
    }
};

/**
 * One bench row: its config, the built-in specs --faults and --overload
 * replace, and two optional steps. The drive step runs the built
 * testbed and yields each measured window (default: yield(run())); it
 * may also fill out.read with what only the drive sees. The read step
 * then returns what the bench prints or gates later.
 */
template <typename Bed = Testbed, typename Read = NoRead>
struct BenchRow
{
    std::string label;
    std::conditional_t<std::is_same_v<Bed, FleetTestbed>, FleetConfig,
                       ExperimentConfig> cfg;
    std::string faults = {};
    std::string overload = {};
    bool overloadOff = false;   //!< unprotected even under --overload
    std::function<void(Bed &, RowOutput<Read> &)> drive = {};
    std::function<Read(Bed &)> read = {};
};

/** runRows' output: every window's result, and each row's config as
 *  run (for gate reproducer lines) and read-out, in row order. */
template <typename Read>
struct RowsRun
{
    std::vector<ExperimentResult> results;
    std::vector<ExperimentConfig> configs;
    std::vector<Read> reads;
};

/** The machine-level config of a row's config. */
inline ExperimentConfig &experimentOf(ExperimentConfig &cfg) { return cfg; }
inline ExperimentConfig &experimentOf(FleetConfig &fc) { return fc.base; }

/** The row driver (see the file comment). */
template <typename Bed, typename Read>
RowsRun<Read>
runRows(Bench &bench, std::vector<BenchRow<Bed, Read>> rows)
{
    RowsRun<Read> done;
    for (BenchRow<Bed, Read> &row : rows) {
        ExperimentConfig &cfg = experimentOf(row.cfg);
        std::string err;
        if ((!row.faults.empty() &&
             !parseFaultPlan(row.faults, cfg.faults, err)) ||
            (!row.overload.empty() &&
             !parseOverloadSpec(row.overload, cfg.machine.overload, err)))
            fsim_panic("%s: %s", row.label.c_str(), err.c_str());
        bench.args.apply(cfg);
        if (row.overloadOff)
            cfg.machine.overload = OverloadConfig{};

        RowOutput<Read> out{row.label};
        {
            Bed bed(row.cfg);
            if (row.drive)
                row.drive(bed, out);
            else
                out.yield(bed.run());
            if (row.read)
                out.read = row.read(bed);
            // Each window's Perfetto file, read from the live span log
            // (fleet rows export their stitched traces in their read).
            for (const auto &[label, r] : out.windows) {
                PerfettoFile &pf = bench.perfetto.emplace_back();
                if constexpr (std::is_same_v<Bed, Testbed>) {
                    const SpanForensics &w = r.spanForensics;
                    if (bench.args.perfettoPath.empty() || !w.enabled)
                        continue;
                    pf.path = perfettoRowPath(bench.args.perfettoPath, label);
                    pf.written = writePerfettoTrace(
                        pf.path, bed.machine().tracer().connSpans(),
                        w.firstCompleted, w.firstCompleted + w.completed,
                        {bench.json.benchName(), label, cfg.machine.cores,
                         cfg.machine.kernel.rfd},
                        &pf.stats);
                }
            }
        }
        for (auto &[label, r] : out.windows) {
            bench.gates.invariant(r.invariants.violationCount == 0, cfg,
                                  "%s: invariant violations: %s",
                                  label.c_str(),
                                  r.invariants.summary().c_str());
            bench.json.addRow(label, cfg, r);
            done.results.push_back(std::move(r));
        }
        done.configs.push_back(cfg);
        done.reads.push_back(std::move(out.read));
    }
    return done;
}

/** Server machines in the fleet benches' topology. */
inline constexpr int kFleetMachines = 4;

/**
 * The fleet every fleet bench runs: kFleetMachines 4-core nginx
 * machines behind 2 balancers, a closed loop of 50 connections per
 * core, periodic invariant checks and @p windows sub-windows of
 * @p winLen seconds after @p warmup.
 */
inline FleetConfig
fleetPreset(const KernelConfig &kernel, double warmup, double winLen,
            int windows)
{
    FleetConfig fc;
    fc.serverMachines = kFleetMachines;
    fc.balancers = 2;
    fc.base.app = AppKind::kNginx;
    fc.base.machine.cores = 4;
    fc.base.machine.kernel = kernel;
    fc.base.concurrencyPerCore = 50;
    fc.base.warmupSec = warmup;
    fc.base.measureSec = windows * winLen;
    fc.base.statWindows = windows;
    fc.base.checkLevel = CheckLevel::kPeriodic;
    fc.base.clientTimeout = ticksFromSeconds(0.08);
    // Flow-table sizing is part of the containment story: a SYN the
    // server tier silently gates out leaves a half-open flow pinned
    // until the client's 80ms give-up, so the table must hold offered *
    // give-up / balancers (1.2M/s * 0.08s / 2 = 48K) or a spike evicts
    // real flows. NAT port space caps a balancer at 63487.
    fc.maxFlowsPerBalancer = 60'000;
    // Clients retransmit SYNs/requests: a connection steered into a
    // blackhole (dead machine, headless VIP) retries at +15/+30ms and
    // lands on the recovered path instead of pinning its closed-loop
    // slot for the full 80ms give-up.
    fc.base.clientRtoBase = ticksFromUsec(15000);
    // 1ms of probe grace is too tight when the machines run at
    // closed-loop saturation: handshake replies queue behind softirq
    // work and spurious ejections flap the target set. bench_chaos's
    // gray calibration depends on this value: its 800us egress delay
    // keeps probe RTTs near half the timeout, far from a binary fail
    // yet far above the scorer's peer band.
    fc.probeTimeoutMsec = 1.8;
    return fc;
}

/**
 * Built-in overload protection spec (bench_overload's protected ramp,
 * bench_fleet_resilience's cascade scenario). The SYN ingress gate (48
 * entries per accept queue) is the load-bearing knob: past saturation
 * the *handshake* work of doomed connections is what starves process
 * context (receive livelock), so excess SYNs must die before the kernel
 * invests in them — app-level shedding alone starts too late. The gate
 * also bounds the queue sojourn (~gate / per-queue drain rate), which
 * keeps every accepted connection fresh: 48 entries is ~0.5ms for the
 * baseline's single shared queue and ~1.6ms for a Fastsocket per-core
 * queue (per-queue drain = capacity / cores), both safely under the 5ms
 * deadline shed that remains as a backstop along with the worker cap.
 * Watermarks are sized to the *gated* depth against somaxconn 8192:
 * elevated at ~0.004 x 8192 = 32 entries so brownout engages while the
 * gate holds the queue near 48, nominal again below ~16.
 */
inline const char *const kProtectSpec =
    "budget=256,gate=48,deadline_ms=5,cap=256,brownout=1,"
    "health_bytes=32,high=0.004,critical=0.5,low=0.002";

/** Fault-plan time window "start-end<tail>", @p digits decimals. */
inline std::string
windowStr(double start, double end, const char *tail, int digits = 3)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.*f-%.*f%s", digits, start, digits,
                  end, tail);
    return buf;
}

/** Mean goodput of sub-windows @p first..@p last (clamped). */
inline double
meanGoodput(const std::vector<LockWindow> &ws, std::size_t first,
            std::size_t last)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = first; i <= last && i < ws.size(); ++i, ++n)
        sum += ws[i].goodput;
    return n ? sum / static_cast<double>(n) : 0.0;
}

inline std::string
kcps(double cps)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0fK", cps / 1000.0);
    return buf;
}

inline void
banner(const char *title, const char *paper_note)
{
    std::printf("=== %s ===\n", title);
    std::printf("%s\n\n", paper_note);
}

} // namespace fsim

#endif // FSIM_BENCH_BENCH_COMMON_HH
