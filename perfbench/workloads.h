// Workload definitions and per-cell output checks of the end-to-end
// benchmark. A workload is a serial sweep of whole simulated Cloudstone
// experiments; everything the program receives is generated here from the
// workload name and the seed.
#ifndef CLOUDDB_PERFBENCH_WORKLOADS_H_
#define CLOUDDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/sweep.h"

namespace clouddb::perfbench {

struct Workload {
  std::string name;
  /// Serial (jobs = 1) sweep: base configuration plus the cell grid. The
  /// base seed is the workload seed; the placement seed is pinned per
  /// location exactly as the fig* binaries pin it.
  harness::SweepConfig sweep;
};

/// The workload `name` under `seed`; `smoke` shortens every phase (see
/// ApplyPhases). nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     bool smoke);

/// Per-cell run configurations in grid order, derived exactly as
/// harness::RunSweep derives them: the traced run rebuilds each cell from
/// these, and the reference table pins its outputs to RunSweep's.
std::vector<harness::ExperimentConfig> PlanCells(
    const harness::SweepConfig& sweep);

/// The workload's largest cell with every phase (idle window, ramp-up,
/// steady, ramp-down) at zero length and seed `seed`: running it costs only
/// deployment, the initial load of every replica and the post-drain checks.
harness::ExperimentConfig SetupConfig(const Workload& workload, uint64_t seed);

/// One tab-separated line holding a cell's simulated outputs with every
/// digit (%.17g): the reference-table row format.
std::string OutputRow(const std::string& workload, uint64_t seed,
                      const harness::ExperimentConfig& run,
                      const harness::ExperimentResult& result);

/// Properties every cell must have, independent of today's outputs:
/// converged and fully replicated after drain, no failed operation, the
/// closed-loop law X·(Z+R)/N ≈ 1, the read share within binomial bounds of
/// the mix, and (row-based cells) writeset + fallback applies covering every
/// shipped statement on every slave. Returns one message per violation.
std::vector<std::string> CheckCell(const harness::ExperimentConfig& run,
                                   const harness::ExperimentResult& result);

}  // namespace clouddb::perfbench

#endif  // CLOUDDB_PERFBENCH_WORKLOADS_H_
