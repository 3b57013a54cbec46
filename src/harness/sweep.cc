#include "harness/sweep.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "common/str_util.h"
#include "common/result.h"
#include "common/status.h"
#include "common/table_writer.h"
#include "harness/experiment.h"

namespace clouddb::harness {

const SweepCell* SweepResult::Find(int slaves, int users) const {
  for (const SweepCell& cell : cells_) {
    if (cell.slaves == slaves && cell.users == users) return &cell;
  }
  return nullptr;
}

double SweepResult::Throughput(int slaves, int users) const {
  const SweepCell* cell = Find(slaves, users);
  return cell == nullptr ? 0.0 : cell->result.benchmark.throughput_ops;
}

double SweepResult::RelativeDelay(int slaves, int users) const {
  const SweepCell* cell = Find(slaves, users);
  return cell == nullptr ? 0.0 : cell->result.mean_relative_delay_ms;
}

int SweepResult::SaturationUsers(int slaves,
                                 const std::vector<int>& user_counts) const {
  // Find the workload with the maximum observed throughput; the saturation
  // point is the next workload step (0 if the maximum sits at the end).
  double best = -1.0;
  size_t best_i = 0;
  for (size_t i = 0; i < user_counts.size(); ++i) {
    double t = Throughput(slaves, user_counts[i]);
    if (t > best) {
      best = t;
      best_i = i;
    }
  }
  if (best_i + 1 >= user_counts.size()) return 0;
  return user_counts[best_i + 1];
}

TableWriter SweepResult::FigureTable(
    double (SweepResult::*value)(int, int) const,
    const std::vector<int>& slave_counts,
    const std::vector<int>& user_counts) const {
  std::vector<std::string> header = {"users"};
  for (int s : slave_counts) {
    header.push_back(StrFormat("%d slave%s", s, s == 1 ? "" : "s"));
  }
  TableWriter table(std::move(header));
  for (int u : user_counts) {
    std::vector<std::string> row = {StrFormat("%d", u)};
    for (int s : slave_counts) {
      row.push_back(StrFormat("%.1f", (this->*value)(s, u)));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

namespace {

/// One grid cell and its fully derived run configuration. Planning every
/// cell up front (in grid order) makes each seed a pure function of the grid
/// coordinates — never of worker scheduling — which is what lets the
/// parallel runner reproduce the serial runner's output byte for byte.
struct PlannedCell {
  SweepCell cell;
  ExperimentConfig run;
};

std::vector<PlannedCell> PlanCells(const SweepConfig& config) {
  std::vector<PlannedCell> cells;
  cells.reserve(config.slave_counts.size() * config.user_counts.size());
  for (int slaves : config.slave_counts) {
    for (int users : config.user_counts) {
      ExperimentConfig run = config.base;
      run.num_slaves = slaves;
      run.num_users = users;
      // Decorrelate the workload deterministically, but pin the cloud
      // randomness so the whole sweep runs on one fixed set of instances
      // (the paper's deployment is constant within a figure).
      run.seed = config.base.seed + config.seed_salt +
                 static_cast<uint64_t>(slaves) * 1000003ull +
                 static_cast<uint64_t>(users) * 7919ull;
      if (!run.placement_seed.has_value()) {
        run.placement_seed = config.base.seed * 131 + config.seed_salt;
      }
      cells.push_back(
          PlannedCell{SweepCell{slaves, users, {}}, std::move(run)});
    }
  }
  return cells;
}

}  // namespace

Result<SweepResult> RunSweep(
    const SweepConfig& config,
    const std::function<void(const SweepCell&)>& progress) {
  return RunPlannedGrid<SweepResult>(PlanCells(config), config.jobs,
                                     RunExperiment, progress);
}

Status RunGridInOrder(size_t n, int jobs,
                      const std::function<Status(size_t)>& run_cell,
                      const std::function<void(size_t)>& deliver) {
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;
  if (jobs > static_cast<int>(n)) jobs = static_cast<int>(n);

  if (jobs <= 1) {
    for (size_t i = 0; i < n; ++i) {
      CLOUDDB_RETURN_IF_ERROR(run_cell(i));
      deliver(i);
    }
    return Status::Ok();
  }

  // Parallel runner: each cell is an independent single-threaded Simulation,
  // so workers just claim cells from a shared cursor. The calling thread
  // consumes outcomes strictly in grid order — delivery order, and with it
  // every derived table, is byte-identical to jobs == 1. A worker publishes
  // cell i's status under `mu` after run_cell(i) returns, so deliver(i) sees
  // everything run_cell(i) wrote.
  std::vector<std::optional<Status>> outcomes(n);
  std::atomic<size_t> cursor{0};
  std::mutex mu;
  std::condition_variable cell_ready;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        size_t i = cursor.fetch_add(1);
        if (i >= n) return;
        Status status = run_cell(i);
        {
          std::lock_guard<std::mutex> lock(mu);
          outcomes[i] = std::move(status);
        }
        cell_ready.notify_all();
      }
    });
  }

  Status failed = Status::Ok();
  for (size_t i = 0; i < n; ++i) {
    std::unique_lock<std::mutex> lock(mu);
    cell_ready.wait(lock, [&] { return outcomes[i].has_value(); });
    if (!outcomes[i]->ok()) {
      // Match the serial runner: the first grid-order failure wins and no
      // later cell is delivered (workers still drain so join() returns).
      failed = *outcomes[i];
      break;
    }
    lock.unlock();
    deliver(i);
  }
  for (std::thread& worker : workers) worker.join();
  return failed;
}

}  // namespace clouddb::harness
