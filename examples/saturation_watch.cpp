// Example: *watching* the paper's §IV-A saturation transition live.
//
// The paper infers the saturation point's movement from throughput curves:
// slaves pin their CPUs first; adding slaves moves the knee until the
// master's write capacity becomes the wall. This example runs the same
// deployment, samples every node's metric registry once a minute, and prints
// the per-replica CPU and backlog time series while the workload doubles
// every few minutes — the transition is visible directly in the utilization
// columns.

#include <algorithm>
#include <cstdio>

#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "cloudstone/benchmark_driver.h"
#include "cloudstone/operations.h"
#include "cloudstone/schema.h"
#include "repl/replication_cluster.h"
#include "cloud/instance.h"
#include "cloud/placement.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/table_writer.h"
#include "common/time_types.h"
#include "metrics/metric_registry.h"
#include "repl/db_node.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

using namespace clouddb;

int main() {
  sim::Simulation sim;
  cloud::CloudOptions cloud_options;
  cloud_options.cpu_speed_cov = 0.0;  // clean curves for the demo
  cloud::CloudProvider provider(&sim, cloud_options, 9);

  repl::ClusterConfig cluster_config;
  cluster_config.num_slaves = 2;
  cluster_config.cost_model =
      cloudstone::MakeWorkloadCostModel(cloudstone::OperationCosts{});
  repl::ReplicationCluster cluster(&provider, cluster_config);
  cloud::Instance* app = provider.Launch("app", cloud::InstanceType::kLarge,
                                         cloud::MasterPlacement());

  cloudstone::WorkloadState state;
  Status loaded = cloudstone::LoadInitialData(
      [&](const std::string& sql) {
        return cluster.ExecuteEverywhereDirect(sql);
      },
      /*scale=*/120, /*seed=*/5, &state);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }

  std::vector<repl::SlaveNode*> slaves = cluster.slaves();
  client::ReadWriteSplitProxy proxy(&sim, &provider.network(), app->node_id(),
                                    cluster.master(), slaves,
                                    client::ProxyOptions{});

  // Per-minute health of the tier, read from the nodes' metric registries:
  // each node's CPU utilization over the last minute, and each slave's relay
  // backlog and event lag (binlog size - 1 - applied index).
  const SimDuration kInterval = Minutes(1);
  std::vector<repl::DbNode*> nodes = {cluster.master(), slaves[0], slaves[1]};
  auto busy_micros = [](repl::DbNode* node) {
    return node->metrics().ValueOf("db.cpu.busy_micros");
  };
  std::vector<double> last_busy;
  for (repl::DbNode* node : nodes) last_busy.push_back(busy_micros(node));
  TableWriter health({"t", "master_cpu", "slave1_cpu", "slave1_backlog",
                      "slave2_cpu", "slave2_backlog"});
  int samples = 0;
  int slave1_saturated = 0;
  double master_cpu_total = 0.0;
  double max_lag_events = 0.0;
  sim::PeriodicTimer sampler;
  sampler.Start(&sim, kInterval, [&] {
    double binlog_size =
        cluster.master()->metrics().ValueOf("repl.master.binlog_size");
    std::vector<std::string> row = {FormatDuration(sim.Now())};
    for (size_t i = 0; i < nodes.size(); ++i) {
      // Busy time is accounted when a job *completes*, so a job spanning a
      // sample boundary lands entirely in the later window; clamp to 100%.
      double busy = busy_micros(nodes[i]);
      double cpu = std::min(
          1.0, (busy - last_busy[i]) /
                   (static_cast<double>(kInterval) *
                    nodes[i]->instance().cpu().num_cores()));
      last_busy[i] = busy;
      row.push_back(StrFormat("%.2f", cpu));
      if (i == 0) {
        master_cpu_total += cpu;
        continue;
      }
      if (i == 1 && cpu > 0.9) ++slave1_saturated;
      const metrics::MetricRegistry& m = nodes[i]->metrics();
      row.push_back(StrFormat("%.0f", m.ValueOf("repl.slave.relay_backlog")));
      max_lag_events =
          std::max(max_lag_events,
                   binlog_size - 1 - m.ValueOf("repl.slave.applied_index"));
    }
    health.AddRow(std::move(row));
    ++samples;
  });

  cloudstone::OperationGenerator generator(
      cloudstone::WorkloadMix::FiftyFifty(), cloudstone::OperationCosts{},
      &state, [&] { return app->LocalNowMicros(); });
  cloudstone::MetricsCollector metrics;
  std::vector<std::unique_ptr<cloudstone::UserEmulator>> users;
  Rng seeder(3);
  SimTime horizon = Minutes(16);
  auto add_users = [&](int n) {
    for (int i = 0; i < n; ++i) {
      users.push_back(std::make_unique<cloudstone::UserEmulator>(
          &sim, &proxy, &generator, &metrics, seeder.Fork(users.size() + 1),
          Seconds(9)));
      users.back()->Activate(sim.Now(), horizon);
    }
  };
  // Workload steps: 50 -> 100 -> 200 users.
  add_users(50);
  sim.ScheduleAt(Minutes(5), [&] { add_users(50); });
  sim.ScheduleAt(Minutes(10), [&] { add_users(100); });
  sim.RunUntil(horizon);
  sampler.Stop();
  sim.Run();

  std::printf("Per-minute cluster health (50 users, +50 at 5min, +100 at "
              "10min):\n\n%s\n",
              health.ToAscii().c_str());
  std::printf("mean master CPU: %.0f%%   max slave lag: %.0f events\n",
              100.0 * (master_cpu_total / samples), max_lag_events);
  std::printf("slave 1 saturated (>90%% CPU) in %.0f%% of samples\n",
              100.0 * (static_cast<double>(slave1_saturated) / samples));
  std::printf(
      "\nReading the table: the slave CPU columns pin at 1.00 first (reads\n"
      "plus writeset applies) while the master still has headroom; by the\n"
      "final workload step the master hits its wall too and the relay\n"
      "backlogs grow without bound. That is the paper's §IV-A saturation\n"
      "story — and its scaling limit — observed directly.\n");
  return 0;
}
