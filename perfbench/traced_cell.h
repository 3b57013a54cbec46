// The traced run's cell assembly: builds one experiment from the same public
// calls harness::RunExperiment makes, in the same order, timing every step
// of harness, cloudstone and sim; reads each module's public counters; and
// replays the cell's own statements through db::Database,
// db::ApplyStatementWriteset and the binlog codec so db and repl get a host
// cost per unit of work.
#ifndef CLOUDDB_PERFBENCH_TRACED_CELL_H_
#define CLOUDDB_PERFBENCH_TRACED_CELL_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "harness/experiment.h"

namespace clouddb::perfbench {

/// Host monotonic time, seconds.
double HostSeconds();

/// Per-layer accumulators summed over a workload's cells: host seconds of
/// each traced step under its metric's own name ("harness.load_s", ...),
/// host seconds under "<metric>.s" and unit counts under "<metric>.n" for
/// the replayed work, and plain counts under the metric's own name.
using Ledger = std::map<std::string, double>;

/// Builds and runs one cell with every step timed into `ledger`, adds its
/// counters to `ledger`, and replays its statements. Checks that need the
/// cell's internals (exactly-once apply per slave, per-table row counts on
/// every replica, replayed state equal to the master's, codec round trips)
/// append one message per violation to `failures`.
Result<harness::ExperimentResult> RunTracedCell(
    const harness::ExperimentConfig& config, Ledger* ledger,
    std::vector<std::string>* failures);

}  // namespace clouddb::perfbench

#endif  // CLOUDDB_PERFBENCH_TRACED_CELL_H_
