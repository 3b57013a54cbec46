#ifndef CLOUDDB_HARNESS_SWEEP_H_
#define CLOUDDB_HARNESS_SWEEP_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/table_writer.h"
#include "harness/experiment.h"
#include "common/result.h"

namespace clouddb::harness {

/// A grid of runs: "multiple runs are conducted by compounding different
/// workloads and numbers of slaves" (§III-B).
struct SweepConfig {
  ExperimentConfig base;
  std::vector<int> slave_counts;
  std::vector<int> user_counts;
  /// Offset folded into each run's seed so repeated sweeps can differ.
  uint64_t seed_salt = 0;
  /// Worker threads running independent grid cells concurrently. 1 runs the
  /// grid serially on the calling thread; 0 means "one per hardware core".
  /// Every cell's seed is derived up front from its grid coordinates and
  /// results are delivered strictly in grid order, so the output (cells,
  /// progress callbacks, derived tables) is byte-identical for every value.
  int jobs = 1;
};

struct SweepCell {
  int slaves = 0;
  int users = 0;
  ExperimentResult result;
};

/// All cells of a sweep plus the paper's derived readouts.
class SweepResult {
 public:
  void Add(SweepCell cell) { cells_.push_back(std::move(cell)); }
  const std::vector<SweepCell>& cells() const { return cells_; }
  const SweepCell* Find(int slaves, int users) const;

  /// End-to-end throughput (ops/s), NaN-safe 0 when missing.
  double Throughput(int slaves, int users) const;
  /// Mean average-relative-replication-delay across slaves, ms.
  double RelativeDelay(int slaves, int users) const;

  /// The paper's saturation point for a slave count: "the point right after
  /// the observed maximum throughput". Returns 0 if the curve is still
  /// rising at the largest measured workload.
  int SaturationUsers(int slaves, const std::vector<int>& user_counts) const;

  /// Figure-series table of `value` (&SweepResult::Throughput for Figs. 2/3,
  /// &SweepResult::RelativeDelay for Figs. 5/6): one row per workload, one
  /// column per slave count.
  TableWriter FigureTable(double (SweepResult::*value)(int, int) const,
                          const std::vector<int>& slave_counts,
                          const std::vector<int>& user_counts) const;

 private:
  std::vector<SweepCell> cells_;
};

/// Runs every (slaves, users) combination, on `config.jobs` worker threads
/// when > 1. `progress` (optional) is invoked on the calling thread after
/// each cell completes, always in grid order regardless of `jobs`.
Result<SweepResult> RunSweep(
    const SweepConfig& config,
    const std::function<void(const SweepCell&)>& progress = nullptr);

/// The grid-order runner behind RunSweep and RunControlSweep. Runs
/// `run_cell(i)` for every i in [0, n): on the calling thread when `jobs`
/// (SweepConfig::jobs semantics) resolves to 1, else on that many worker
/// threads, each cell an independent Simulation. `deliver(i)` is called on
/// the calling thread strictly in order i = 0, 1, ... as cells finish; the
/// first failing cell in grid order stops delivery and its Status is
/// returned. `run_cell` may only touch state owned by cell i.
Status RunGridInOrder(size_t n, int jobs,
                      const std::function<Status(size_t)>& run_cell,
                      const std::function<void(size_t)>& deliver);

/// Runs a planned grid through RunGridInOrder: each entry of `plan` holds a
/// `cell` (coordinates, result to fill) and the `run` config that
/// `run_experiment` turns into that result. Cells reach `progress` and the
/// returned `Grid` in grid order.
template <typename Grid, typename Planned, typename Cell, typename RunFn>
Result<Grid> RunPlannedGrid(std::vector<Planned> plan, int jobs,
                            RunFn run_experiment,
                            const std::function<void(const Cell&)>& progress) {
  Grid grid;
  CLOUDDB_RETURN_IF_ERROR(RunGridInOrder(
      plan.size(), jobs,
      [&](size_t i) -> Status {
        CLOUDDB_ASSIGN_OR_RETURN(plan[i].cell.result,
                                 run_experiment(plan[i].run));
        return Status::Ok();
      },
      [&](size_t i) {
        if (progress) progress(plan[i].cell);
        grid.Add(std::move(plan[i].cell));
      }));
  return grid;
}

}  // namespace clouddb::harness

#endif  // CLOUDDB_HARNESS_SWEEP_H_
