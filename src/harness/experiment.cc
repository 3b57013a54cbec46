#include "harness/experiment.h"

#include <memory>

#include "cloud/ntp.h"
#include "cloudstone/schema.h"
#include "repl/delay_monitor.h"
#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "cloud/instance.h"
#include "cloud/placement.h"
#include "cloudstone/benchmark_driver.h"
#include "cloudstone/operations.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "db/database.h"
#include "repl/heartbeat.h"
#include "repl/replication_cluster.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

namespace clouddb::harness {

const char* LocationConfigToString(LocationConfig location) {
  switch (location) {
    case LocationConfig::kSameZone:
      return "same zone (us-west-1a)";
    case LocationConfig::kDifferentZone:
      return "different zone (us-west-1b)";
    case LocationConfig::kDifferentRegion:
      return "different region (eu-west-1a)";
  }
  return "?";
}

cloud::Placement SlavePlacementFor(LocationConfig location) {
  switch (location) {
    case LocationConfig::kSameZone:
      return cloud::SameZonePlacement();
    case LocationConfig::kDifferentZone:
      return cloud::DifferentZonePlacement();
    case LocationConfig::kDifferentRegion:
      return cloud::DifferentRegionPlacement();
  }
  return cloud::SameZonePlacement();
}

namespace {

/// Draws the derived placement seed even when `placement_seed` pins it, so
/// the later draws do not depend on the pin.
uint64_t PlacementSeed(const ExperimentConfig& config, Rng* seeder) {
  uint64_t derived = seeder->NextU64();
  return config.placement_seed.value_or(derived);
}

repl::ClusterConfig ClusterConfigFor(const ExperimentConfig& config) {
  repl::ClusterConfig cluster_config;
  cluster_config.num_slaves = config.num_slaves;
  cluster_config.slave_placement = SlavePlacementFor(config.location);
  cluster_config.cost_model =
      cloudstone::MakeWorkloadCostModel(config.costs, config.apply_factor);
  cluster_config.synchronous_replication = config.synchronous_replication;
  return cluster_config;
}

}  // namespace

Deployment::Deployment(const ExperimentConfig& config)
    : seeder(config.seed),
      provider(&sim, config.cloud, PlacementSeed(config, &seeder)),
      cluster(&provider, ClusterConfigFor(config)) {
  cluster.SetStatementCacheEnabled(config.statement_cache);
  cluster.SetVectorizedExecEnabled(config.vectorized_exec);
  cluster.SetRowBasedReplication(config.row_based_repl);
  cluster.SetBinlogBatchSize(config.binlog_batch_size);
  bench_instance =
      provider.Launch("cloudstone", cloud::InstanceType::kLarge,
                      cluster.config().master_placement);
  // NTP daemons, synchronizing every second.
  if (config.enable_ntp) {
    for (const auto& instance : provider.instances()) {
      ntp_clients.push_back(std::make_unique<cloud::NtpClient>(
          &sim, instance.get(), config.ntp, seeder.NextU64()));
      ntp_clients.back()->StartPeriodic();
    }
  }
}

Result<std::unique_ptr<Deployment>> Deployment::Build(
    const ExperimentConfig& config) {
  std::unique_ptr<Deployment> d(new Deployment(config));
  // Load the master, then seed every slave with a copy of its tables — the
  // dump-and-restore a MySQL slave starts from. The replicas come out
  // exactly as if each had executed the load itself.
  uint64_t load_seed = d->seeder.NextU64();
  repl::ReplicationCluster& cluster = d->cluster;
  CLOUDDB_RETURN_IF_ERROR(cloudstone::LoadInitialData(
      [&](const std::string& sql) {
        return cluster.ExecuteOnMasterDirect(sql);
      },
      config.data_scale, load_seed, &d->state));
  for (repl::SlaveNode* slave : cluster.slaves()) {
    slave->database().CopyTablesFrom(cluster.master()->database());
  }
  d->heartbeat.emplace(&d->sim, cluster.master(), config.heartbeat);
  CLOUDDB_RETURN_IF_ERROR(d->heartbeat->CreateTable());
  d->heartbeat->Start();
  return d;
}

Result<ExperimentResult> RunExperiment(const ExperimentConfig& config) {
  CLOUDDB_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> deployment,
                           Deployment::Build(config));
  sim::Simulation& sim = deployment->sim;
  repl::ReplicationCluster& cluster = deployment->cluster;
  repl::HeartbeatPlugin& heartbeat = *deployment->heartbeat;
  cloud::Instance* bench_instance = deployment->bench_instance;

  // Idle window: heartbeats with no workload.
  sim.RunUntil(sim.Now() + config.idle_window);
  int64_t idle_max_id = heartbeat.next_id() - 1;

  // The proxy (Connector/J-style) runs inside the benchmark process.
  client::ProxyOptions proxy_options;
  proxy_options.policy = config.policy;
  proxy_options.route_cache = config.statement_cache;
  proxy_options.pool.max_active = std::max(8, config.num_users);
  client::ReadWriteSplitProxy proxy(
      &sim, &deployment->provider.network(), bench_instance->node_id(),
      cluster.master(), cluster.slaves(), proxy_options);

  cloudstone::OperationGenerator generator(
      config.mix, config.costs, &deployment->state,
      [bench_instance] { return bench_instance->LocalNowMicros(); });
  cloudstone::BenchmarkOptions bench_options = config.benchmark;
  bench_options.num_users = config.num_users;
  bench_options.seed = deployment->seeder.NextU64();
  cloudstone::BenchmarkDriver driver(&sim, &proxy, &cluster, &generator,
                                     bench_options);
  driver.Start();

  // Record which heartbeat ids fall inside the steady window.
  int64_t loaded_min_id = 0;
  int64_t loaded_max_id = 0;
  sim.ScheduleAt(driver.steady_start(),
                 [&] { loaded_min_id = heartbeat.next_id(); });
  sim.ScheduleAt(driver.steady_end(),
                 [&] { loaded_max_id = heartbeat.next_id() - 1; });

  sim.RunUntil(driver.end_time());
  heartbeat.Stop();
  for (auto& ntp : deployment->ntp_clients) ntp->Stop();
  // Drain: outstanding operations complete and relay logs apply fully.
  sim.Run();

  ExperimentResult result;
  result.benchmark = driver.Report();
  result.heartbeats_issued = heartbeat.next_id() - 1;
  result.binlog_events = cluster.master()->database().binlog().size();
  result.fully_replicated = cluster.FullyReplicated();
  result.converged = cluster.Converged();

  db::Database& master_db = cluster.master()->database();
  double sum_relative = 0.0;
  for (int i = 0; i < cluster.num_slaves(); ++i) {
    db::Database& slave_db = cluster.slave(i)->database();
    std::vector<double> idle = repl::HeartbeatDelaysMs(
        master_db, slave_db, 1, idle_max_id, config.heartbeat.table);
    std::vector<double> loaded =
        repl::HeartbeatDelaysMs(master_db, slave_db, loaded_min_id,
                                loaded_max_id, config.heartbeat.table);
    Sample idle_sample;
    idle_sample.AddAll(idle);
    Sample loaded_sample;
    loaded_sample.AddAll(loaded);
    double relative = repl::AverageRelativeDelayMs(loaded, idle);
    result.idle_delay_ms.push_back(idle_sample.TrimmedMean(0.05));
    result.loaded_delay_ms.push_back(loaded_sample.TrimmedMean(0.05));
    result.relative_delay_ms.push_back(relative);
    sum_relative += relative;
  }
  if (cluster.num_slaves() > 0) {
    result.mean_relative_delay_ms =
        sum_relative / static_cast<double>(cluster.num_slaves());
  }
  return result;
}

}  // namespace clouddb::harness
