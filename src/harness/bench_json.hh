/**
 * @file
 * Versioned JSON export of bench results.
 *
 * Every bench binary accumulates one BenchJsonReport row per experiment
 * it runs and, when invoked with --json=<path>, writes the whole report
 * to disk. The schema is versioned so downstream tooling (plot scripts,
 * the CI validator) can reject documents it does not understand.
 */

#ifndef FSIM_HARNESS_BENCH_JSON_HH
#define FSIM_HARNESS_BENCH_JSON_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace fsim
{

/** Accumulates experiment rows and renders the versioned document. */
class BenchJsonReport
{
  public:
    /** Document layout version: see SCHEMA in validate_bench_json.py. */
    static constexpr int kSchemaVersion = 12;

    explicit BenchJsonReport(std::string bench_name);

    const std::string &benchName() const { return name_; }

    /** Record one experiment under display label @p label. */
    void addRow(const std::string &label, const ExperimentConfig &cfg,
                const ExperimentResult &r);

    std::size_t rowCount() const { return rows_.size(); }

    /** @name Per-row access (the --fingerprint bench flag) */
    /** @{ */
    const std::string &rowLabel(std::size_t i) const;
    std::uint64_t rowFingerprint(std::size_t i) const;
    const InvariantReport &rowInvariants(std::size_t i) const;
    /** Full row access (forensics rendering). */
    const ExperimentResult &rowResult(std::size_t i) const;
    /** @} */

    /** Render the full JSON document. */
    std::string str() const;

    /** Render and write to @p path. @return false on I/O error. */
    bool writeFile(const std::string &path) const;

  private:
    struct Row
    {
        std::string label;
        ExperimentConfig cfg;
        ExperimentResult res;
    };

    std::string name_;
    std::vector<Row> rows_;
};

/** Stable flavor name ("base-2.6.32", "linux-3.13", "fastsocket"). */
const char *kernelFlavorName(KernelFlavor f);

} // namespace fsim

#endif // FSIM_HARNESS_BENCH_JSON_HH
