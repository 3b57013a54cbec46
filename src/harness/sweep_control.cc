#include "harness/sweep_control.h"

#include "common/result.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/table_writer.h"
#include "harness/control_experiment.h"
#include "harness/sweep.h"
#include "common/time_types.h"

namespace clouddb::harness {

std::string BoundLabel(SimDuration bound) {
  if (bound < 0) return "unbounded";
  return StrFormat("%lldms", static_cast<long long>(bound / 1000));
}

const ControlSweepCell* ControlSweepResult::Find(SimDuration bound,
                                                 int users) const {
  for (const ControlSweepCell& cell : cells_) {
    if (cell.bound == bound && cell.users == users) return &cell;
  }
  return nullptr;
}

TableWriter ControlSweepResult::FigureTable(
    const std::function<std::string(const ControlExperimentResult&)>& text,
    const std::vector<SimDuration>& bounds,
    const std::vector<int>& user_counts) const {
  std::vector<std::string> header = {"SLA bound"};
  for (int u : user_counts) header.push_back(StrFormat("%d users", u));
  TableWriter table(std::move(header));
  for (SimDuration b : bounds) {
    std::vector<std::string> row = {BoundLabel(b)};
    for (int u : user_counts) {
      const ControlSweepCell* cell = Find(b, u);
      row.push_back(cell == nullptr ? std::string("-") : text(cell->result));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

namespace {

/// One grid cell and its run configuration, seeds derived from the grid
/// coordinates up front exactly like harness::RunSweep.
struct PlannedControlCell {
  ControlSweepCell cell;
  ControlExperimentConfig run;
};

std::vector<PlannedControlCell> PlanCells(const ControlSweepConfig& config) {
  std::vector<PlannedControlCell> cells;
  cells.reserve(config.staleness_bounds.size() * config.user_counts.size());
  for (SimDuration bound : config.staleness_bounds) {
    for (int users : config.user_counts) {
      ControlExperimentConfig run = config.base;
      run.staleness_bound = bound;
      run.base_users = users;
      run.surge_users =
          static_cast<int>(static_cast<double>(users) * config.surge_factor);
      run.seed = config.base.seed + config.seed_salt +
                 static_cast<uint64_t>(users) * 7919ull +
                 static_cast<uint64_t>(bound < 0 ? 1 : bound) * 104729ull;
      if (!run.placement_seed.has_value()) {
        run.placement_seed = config.base.seed * 131 + config.seed_salt;
      }
      cells.push_back(PlannedControlCell{ControlSweepCell{bound, users, {}},
                                         std::move(run)});
    }
  }
  return cells;
}

}  // namespace

Result<ControlSweepResult> RunControlSweep(
    const ControlSweepConfig& config,
    const std::function<void(const ControlSweepCell&)>& progress) {
  return RunPlannedGrid<ControlSweepResult>(PlanCells(config), config.jobs,
                                            RunControlExperiment, progress);
}

}  // namespace clouddb::harness
