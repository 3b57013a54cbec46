// End-to-end control-loop tests: a short RunControlExperiment exercising the
// full spine (heartbeats -> tracker -> bounded routing -> controller), and
// the sweep determinism contract — with the controller in the loop, the
// rendered tables must be byte-identical for any worker count.

#include "harness/sweep_control.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "client/rw_split_proxy.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/time_types.h"
#include "harness/control_experiment.h"

namespace clouddb::harness {
namespace {

ControlExperimentConfig ShortConfig() {
  ControlExperimentConfig config;
  config.staleness_bound = Millis(500);
  config.base_users = 4;
  config.surge_users = 12;
  config.warmup = Seconds(10);
  config.measure = Seconds(90);
  config.surge_start = Seconds(20);
  config.surge_duration = Seconds(30);
  config.data_scale = 20;
  config.initial_slaves = 1;
  config.controller.max_active_slaves = 3;
  config.controller.sustain_ticks = 2;
  config.controller.cooldown_ticks = 3;
  config.seed = 42;
  return config;
}

TEST(ControlExperimentTest, ClosesTheLoopOnAShortRun) {
  auto outcome = RunControlExperiment(ShortConfig());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const ControlExperimentResult& r = *outcome;
  EXPECT_GT(r.completed_ops, 0);
  EXPECT_EQ(r.failed_ops, 0);
  EXPECT_GT(r.bounded_reads, 0);
  // Every bounded read either went to an in-bound replica or fell back.
  EXPECT_EQ(r.bounded_to_slave + r.master_fallbacks + r.read_retries,
            r.bounded_reads);
  EXPECT_GE(r.achieved_freshness_pct, 0.0);
  EXPECT_LE(r.achieved_freshness_pct, 100.0);
  // The merged cluster table carries spine metrics from every tier.
  EXPECT_NE(r.metrics_table.find("proxy.reads.bounded"), std::string::npos);
  EXPECT_NE(r.metrics_table.find("control.ticks"), std::string::npos);
  EXPECT_NE(r.metrics_table.find("repl.slave.applied_index"),
            std::string::npos);
}

TEST(ControlExperimentTest, IdenticalSeedsReproduceByteIdenticalMetrics) {
  auto a = RunControlExperiment(ShortConfig());
  auto b = RunControlExperiment(ShortConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->metrics_table, b->metrics_table);
  EXPECT_EQ(a->TimelineString(), b->TimelineString());
  EXPECT_EQ(a->completed_ops, b->completed_ops);
  EXPECT_EQ(a->sla_violations, b->sla_violations);
}

TEST(ControlSweepTest, ParallelJobsAreByteIdenticalToSerial) {
  ControlSweepConfig sweep;
  sweep.base = ShortConfig();
  sweep.base.measure = Seconds(60);
  sweep.staleness_bounds = {Millis(250), client::kNoStalenessBound};
  sweep.user_counts = {2, 4};
  sweep.surge_factor = 2.0;

  sweep.jobs = 1;
  auto serial = RunControlSweep(sweep);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  sweep.jobs = 4;
  auto parallel = RunControlSweep(sweep);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  auto text = [](const ControlExperimentResult& r) {
    return StrFormat("%.2f%% %.1f%% %d/%d", r.achieved_freshness_pct,
                     r.master_offload_pct, r.peak_active_slaves,
                     r.final_active_slaves);
  };
  EXPECT_EQ(
      serial->FigureTable(text, sweep.staleness_bounds, sweep.user_counts)
          .ToAscii(),
      parallel->FigureTable(text, sweep.staleness_bounds, sweep.user_counts)
          .ToAscii());
  ASSERT_EQ(serial->cells().size(), parallel->cells().size());
  for (size_t i = 0; i < serial->cells().size(); ++i) {
    EXPECT_EQ(serial->cells()[i].result.metrics_table,
              parallel->cells()[i].result.metrics_table);
  }
}

TEST(ControlSweepTest, GridIsCompleteAndOrdered) {
  ControlSweepConfig sweep;
  sweep.base = ShortConfig();
  sweep.base.measure = Seconds(30);
  sweep.base.enable_controller = false;  // routing-only cells run faster
  sweep.staleness_bounds = {SimDuration{0}, Millis(500)};
  sweep.user_counts = {2};
  auto result = RunControlSweep(sweep);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->cells().size(), 2u);
  EXPECT_EQ(result->cells()[0].bound, SimDuration{0});
  EXPECT_EQ(result->cells()[1].bound, Millis(500));
  ASSERT_NE(result->Find(SimDuration{0}, 2), nullptr);
  // Bound 0 never trusts a replica: full master fallback.
  EXPECT_EQ(result->Find(SimDuration{0}, 2)->result.bounded_to_slave, 0);
  EXPECT_EQ(result->Find(SimDuration{0}, 2)->result.master_offload_pct, 0.0);
  // Table cells the grid lacks render as "-".
  std::string table =
      result
          ->FigureTable([](const ControlExperimentResult&) { return "x"; },
                        {SimDuration{0}}, {2, 3})
          .ToCsv();
  EXPECT_NE(table.find("0ms,x,-"), std::string::npos) << table;
}

TEST(ControlSweepTest, FailingCellsFailTheSweepForEveryJobCount) {
  // Every cell fails at set-up (the parser rejects the heartbeat table's
  // CREATE TABLE): serial and threaded runs return the same error and
  // deliver no cell.
  ControlSweepConfig sweep;
  sweep.base = ShortConfig();
  sweep.base.heartbeat.table = "bad name";
  sweep.staleness_bounds = {Millis(250), client::kNoStalenessBound};
  sweep.user_counts = {2, 4};
  std::vector<Status> errors;
  for (int jobs : {1, 4}) {
    sweep.jobs = jobs;
    int progress_calls = 0;
    auto result = RunControlSweep(
        sweep, [&](const ControlSweepCell&) { ++progress_calls; });
    ASSERT_FALSE(result.ok()) << "jobs=" << jobs;
    EXPECT_EQ(progress_calls, 0) << "jobs=" << jobs;
    errors.push_back(result.status());
  }
  EXPECT_EQ(errors[0].code(), errors[1].code());
  EXPECT_EQ(errors[0].ToString(), errors[1].ToString());
}

}  // namespace
}  // namespace clouddb::harness
