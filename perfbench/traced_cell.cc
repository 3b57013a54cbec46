#include "traced_cell.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "client/rw_split_proxy.h"
#include "cloud/cloud_provider.h"
#include "cloud/instance.h"
#include "cloud/ntp.h"
#include "cloudstone/benchmark_driver.h"
#include "cloudstone/operations.h"
#include "cloudstone/schema.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/str_util.h"
#include "db/binlog.h"
#include "db/database.h"
#include "db/writeset_apply.h"
#include "repl/delay_monitor.h"
#include "repl/heartbeat.h"
#include "repl/replication_cluster.h"
#include "repl/slave_node.h"
#include "sim/simulation.h"

namespace clouddb::perfbench {

double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Caps on replayed units per cell, so one traced run stays well inside the
/// benchmark's time limit on the largest cell.
constexpr int64_t kReadReplayCap = 2000;
constexpr int64_t kGenerateReplayCap = 20000;

/// Adds host time `seconds` spent on `units` units to `<metric>.s/.n`.
void AddUnits(Ledger* ledger, const std::string& metric, double seconds,
              int64_t units) {
  (*ledger)[metric + ".s"] += seconds;
  (*ledger)[metric + ".n"] += static_cast<double>(units);
}

bool IsWorkloadInsert(const std::string& sql) {
  return sql.rfind("INSERT INTO ", 0) == 0 &&
         sql.rfind("INSERT INTO heartbeat", 0) != 0;
}

/// The table a write operation inserts its one row into.
const char* InsertedTable(cloudstone::OpType type) {
  switch (type) {
    case cloudstone::OpType::kCreateEvent:
      return "events";
    case cloudstone::OpType::kJoinEvent:
      return "attendees";
    case cloudstone::OpType::kTagEvent:
      return "event_tags";
    default:
      return "comments";
  }
}

/// A fresh database holding the cell's initial data set (the same
/// statements and seed the cell loaded), with binlog appends suppressed
/// during the load.
Result<std::unique_ptr<db::Database>> LoadedReplica(
    const harness::ExperimentConfig& config, uint64_t load_seed, bool binlog,
    bool row_based) {
  db::DatabaseOptions options;
  options.enable_binlog = binlog;
  options.row_based_repl = row_based;
  auto database = std::make_unique<db::Database>(options);
  database->set_binlog_suppressed(true);
  cloudstone::WorkloadState state;
  CLOUDDB_RETURN_IF_ERROR(cloudstone::LoadInitialData(
      [&](const std::string& sql) { return database->Execute(sql).status(); },
      config.data_scale, load_seed, &state));
  database->set_binlog_suppressed(false);
  return database;
}

/// Replays the cell's statements through the db and repl layers and checks
/// that every replayed copy ends equal to the cell's master.
Status ReplayCell(const harness::ExperimentConfig& config, uint64_t load_seed,
                  const cloudstone::WorkloadState& final_state,
                  const std::vector<cloudstone::OpRecord>& records,
                  db::Database& master, Ledger* ledger,
                  std::vector<std::string>* failures) {
  const std::vector<std::string> kIgnore = {"heartbeat"};
  const db::Binlog& log = master.binlog();

  // Master writes: the binlog's statements in commit order, on a replica in
  // the cell's own binlog mode.
  CLOUDDB_ASSIGN_OR_RETURN(
      auto replay_master,
      LoadedReplica(config, load_seed, true, config.row_based_repl));
  double write_s = 0.0;
  int64_t writes = 0;
  for (int64_t i = 0; i < log.size(); ++i) {
    for (const std::string& sql : log.At(i).statements) {
      double t0 = HostSeconds();
      Status s = replay_master->Execute(sql).status();
      double t1 = HostSeconds();
      CLOUDDB_RETURN_IF_ERROR(s);
      if (IsWorkloadInsert(sql)) {
        write_s += t1 - t0;
        ++writes;
      }
    }
  }
  AddUnits(ledger, "db.write_us", write_s, writes);
  if (!db::Database::ContentsEqual(*replay_master, master, kIgnore)) {
    failures->push_back("replayed master writes differ from the master");
  }

  // Slave statement apply: each event's statement text on a binlog-less
  // replica, timed per event.
  CLOUDDB_ASSIGN_OR_RETURN(auto replay_slave,
                           LoadedReplica(config, load_seed, false, false));
  double apply_s = 0.0;
  for (int64_t i = 0; i < log.size(); ++i) {
    double t0 = HostSeconds();
    for (const std::string& sql : log.At(i).statements) {
      CLOUDDB_RETURN_IF_ERROR(replay_slave->Execute(sql).status());
    }
    apply_s += HostSeconds() - t0;
  }
  AddUnits(ledger, "repl.apply.statement_us", apply_s, log.size());
  if (!db::Database::ContentsEqual(*replay_slave, master, kIgnore)) {
    failures->push_back("statement-replayed slave differs from the master");
  }

  // Writeset apply and codec: the cell's own row images when it shipped
  // them, else images captured by replaying its writes in row-based mode.
  std::unique_ptr<db::Database> capture;
  const db::Binlog* ws_log = &log;
  if (!config.row_based_repl) {
    CLOUDDB_ASSIGN_OR_RETURN(capture,
                             LoadedReplica(config, load_seed, true, true));
    for (int64_t i = 0; i < log.size(); ++i) {
      for (const std::string& sql : log.At(i).statements) {
        CLOUDDB_RETURN_IF_ERROR(capture->Execute(sql).status());
      }
    }
    ws_log = &capture->binlog();
  }
  CLOUDDB_ASSIGN_OR_RETURN(auto replay_ws,
                           LoadedReplica(config, load_seed, false, false));
  std::unique_ptr<db::Session> session = replay_ws->CreateSession();
  double ws_s = 0.0;
  for (int64_t i = 0; i < ws_log->size(); ++i) {
    const db::BinlogEvent& event = ws_log->At(i);
    double t0 = HostSeconds();
    for (size_t k = 0; k < event.statements.size(); ++k) {
      if (k < event.writesets.size() && event.writesets[k].covered) {
        CLOUDDB_RETURN_IF_ERROR(
            db::ApplyStatementWriteset(replay_ws.get(), session.get(),
                                       event.writesets[k])
                .status());
      } else {
        CLOUDDB_RETURN_IF_ERROR(
            replay_ws->Execute(event.statements[k]).status());
      }
    }
    ws_s += HostSeconds() - t0;
  }
  AddUnits(ledger, "repl.apply.writeset_us", ws_s, ws_log->size());
  if (!db::Database::ContentsEqual(*replay_ws, master, kIgnore)) {
    failures->push_back("writeset-applied slave differs from the master");
  }

  double codec_s = 0.0;
  int64_t codec_mismatches = 0;
  for (int64_t i = 0; i < ws_log->size(); ++i) {
    const db::BinlogEvent& event = ws_log->At(i);
    double t0 = HostSeconds();
    std::string wire = db::SerializeBinlogEvent(event);
    Result<db::BinlogEvent> decoded = db::DeserializeBinlogEvent(wire);
    codec_s += HostSeconds() - t0;
    if (!decoded.ok() || decoded->statements != event.statements ||
        db::SerializeBinlogEvent(*decoded) != wire) {
      ++codec_mismatches;
    }
  }
  AddUnits(ledger, "repl.codec_us", codec_s, ws_log->size());
  if (codec_mismatches != 0) {
    failures->push_back(
        StrFormat("%lld binlog events failed the codec round trip",
                  static_cast<long long>(codec_mismatches)));
  }

  // Reads: statements of each read type drawn by the cell's generator over
  // its final id ranges, as many as the cell completed (capped), executed
  // on the replayed master copy.
  struct ReadKind {
    cloudstone::OpType type;
    const char* metric;
  };
  const ReadKind kReads[] = {
      {cloudstone::OpType::kViewEvent, "db.read.view_us"},
      {cloudstone::OpType::kBrowseEvents, "db.read.browse_us"},
      {cloudstone::OpType::kSearchEvents, "db.read.search_us"},
  };
  for (const ReadKind& kind : kReads) {
    int64_t count = 0;
    for (const cloudstone::OpRecord& record : records) {
      if (record.ok && record.type == kind.type) ++count;
    }
    count = std::min(count, kReadReplayCap);
    cloudstone::WorkloadMix mix;
    mix.read_fraction = 1.0;
    mix.browse_weight =
        kind.type == cloudstone::OpType::kBrowseEvents ? 1.0 : 0.0;
    mix.search_weight =
        kind.type == cloudstone::OpType::kSearchEvents ? 1.0 : 0.0;
    mix.view_weight = kind.type == cloudstone::OpType::kViewEvent ? 1.0 : 0.0;
    cloudstone::WorkloadState state = final_state;
    cloudstone::OperationGenerator generator(mix, config.costs, &state);
    Rng rng(config.seed ^ 0x5EEDull);
    double read_s = 0.0;
    for (int64_t i = 0; i < count; ++i) {
      cloudstone::GeneratedOp op = generator.Next(rng);
      double t0 = HostSeconds();
      Result<db::ExecResult> rows = replay_master->Execute(op.sql);
      read_s += HostSeconds() - t0;
      CLOUDDB_RETURN_IF_ERROR(rows.status());
    }
    AddUnits(ledger, kind.metric, read_s, count);
  }

  // Operation generation with the cell's own mix.
  {
    const int64_t count = std::min(static_cast<int64_t>(records.size()),
                                   kGenerateReplayCap);
    cloudstone::WorkloadState state = final_state;
    cloudstone::OperationGenerator generator(config.mix, config.costs, &state);
    Rng rng(config.seed ^ 0x6E4ull);
    size_t bytes = 0;
    double t0 = HostSeconds();
    for (int64_t i = 0; i < count; ++i) bytes += generator.Next(rng).sql.size();
    AddUnits(ledger, "cloudstone.generate_us", HostSeconds() - t0, count);
    if (count > 0 && bytes == 0) {
      failures->push_back("generator produced no SQL");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<harness::ExperimentResult> RunTracedCell(
    const harness::ExperimentConfig& config, Ledger* ledger,
    std::vector<std::string>* failures) {
  // Adds the host seconds since the previous step ended to `metric`.
  double step_start = HostSeconds();
  auto step = [&](const char* metric) {
    const double now = HostSeconds();
    (*ledger)[metric] += now - step_start;
    step_start = now;
  };
  harness::ExperimentResult result;
  {
    // Deployment: the same construction sequence as harness::RunExperiment.
    Rng seeder(config.seed);
    sim::Simulation sim;
    uint64_t derived_placement_seed = seeder.NextU64();
    cloud::CloudProvider provider(
        &sim, config.cloud,
        config.placement_seed.value_or(derived_placement_seed));
    repl::ClusterConfig cluster_config;
    cluster_config.num_slaves = config.num_slaves;
    cluster_config.slave_placement =
        harness::SlavePlacementFor(config.location);
    cluster_config.cost_model =
        cloudstone::MakeWorkloadCostModel(config.costs, config.apply_factor);
    cluster_config.synchronous_replication = config.synchronous_replication;
    repl::ReplicationCluster cluster(&provider, cluster_config);
    cluster.SetStatementCacheEnabled(config.statement_cache);
    cluster.SetVectorizedExecEnabled(config.vectorized_exec);
    cluster.SetRowBasedReplication(config.row_based_repl);
    cluster.SetBinlogBatchSize(config.binlog_batch_size);
    cloud::Instance* bench_instance =
        provider.Launch("cloudstone", cloud::InstanceType::kLarge,
                        cluster_config.master_placement);
    std::vector<std::unique_ptr<cloud::NtpClient>> ntp_clients;
    if (config.enable_ntp) {
      for (const auto& instance : provider.instances()) {
        ntp_clients.push_back(std::make_unique<cloud::NtpClient>(
            &sim, instance.get(), config.ntp, seeder.NextU64()));
        ntp_clients.back()->StartPeriodic();
      }
    }
    step("harness.build_s");

    // Initial load of every replica.
    cloudstone::WorkloadState state;
    uint64_t load_seed = seeder.NextU64();
    int64_t load_statements = 0;
    Status load_status = cloudstone::LoadInitialData(
        [&](const std::string& sql) {
          ++load_statements;
          return cluster.ExecuteEverywhereDirect(sql);
        },
        config.data_scale, load_seed, &state);
    step("harness.load_s");
    if (!load_status.ok()) return load_status;

    repl::HeartbeatPlugin heartbeat(&sim, cluster.master(), config.heartbeat);
    CLOUDDB_RETURN_IF_ERROR(heartbeat.CreateTable());
    heartbeat.Start();
    step("harness.build_s");

    sim.RunUntil(sim.Now() + config.idle_window);
    step("sim.run_s");
    int64_t idle_max_id = heartbeat.next_id() - 1;

    client::ProxyOptions proxy_options;
    proxy_options.policy = config.policy;
    proxy_options.route_cache = config.statement_cache;
    proxy_options.pool.max_active = std::max(8, config.num_users);
    std::vector<repl::SlaveNode*> slaves;
    for (int i = 0; i < cluster.num_slaves(); ++i) {
      slaves.push_back(cluster.slave(i));
    }
    client::ReadWriteSplitProxy proxy(&sim, &provider.network(),
                                      bench_instance->node_id(),
                                      cluster.master(), slaves, proxy_options);
    cloudstone::OperationGenerator generator(
        config.mix, config.costs, &state,
        [bench_instance] { return bench_instance->LocalNowMicros(); });
    cloudstone::BenchmarkOptions bench_options = config.benchmark;
    bench_options.num_users = config.num_users;
    bench_options.seed = seeder.NextU64();
    cloudstone::BenchmarkDriver driver(&sim, &proxy, &cluster, &generator,
                                       bench_options);
    driver.Start();
    int64_t loaded_min_id = 0;
    int64_t loaded_max_id = 0;
    sim.ScheduleAt(driver.steady_start(),
                   [&] { loaded_min_id = heartbeat.next_id(); });
    sim.ScheduleAt(driver.steady_end(),
                   [&] { loaded_max_id = heartbeat.next_id() - 1; });
    step("harness.build_s");

    sim.RunUntil(driver.end_time());
    step("sim.run_s");
    heartbeat.Stop();
    for (auto& ntp : ntp_clients) ntp->Stop();
    sim.Run();
    step("sim.drain_s");

    result.benchmark = driver.Report();
    result.heartbeats_issued = heartbeat.next_id() - 1;
    result.binlog_events = cluster.master()->database().binlog().size();
    step("harness.report_s");

    result.fully_replicated = cluster.FullyReplicated();
    result.converged = cluster.Converged();
    step("harness.check_s");

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
    step("harness.report_s");

    // Public counters of every layer.
    Ledger& l = *ledger;
    const cloudstone::BenchmarkReport& report = result.benchmark;
    const std::vector<cloudstone::OpRecord>& records =
        driver.metrics().records();
    l["harness.load_statements"] += static_cast<double>(load_statements);
    l["sim.events"] += static_cast<double>(sim.events_executed());
    l["net.messages"] +=
        static_cast<double>(provider.network().messages_sent());
    l["net.bytes"] += static_cast<double>(provider.network().bytes_sent());
    l["client.reads_routed"] += static_cast<double>(proxy.total_reads_routed());
    l["client.writes_routed"] += static_cast<double>(proxy.writes_routed());
    l["client.route_cache.hits"] +=
        static_cast<double>(proxy.route_cache().stats().hits);
    l["cloudstone.ops_issued"] += static_cast<double>(records.size());
    for (const auto& ntp : ntp_clients) {
      l["cloud.ntp.syncs"] += static_cast<double>(ntp->syncs_performed());
    }
    l["db.statement_cache.hits"] +=
        static_cast<double>(report.statement_cache_hits);
    l["db.statement_cache.misses"] +=
        static_cast<double>(report.statement_cache_misses);
    l["repl.binlog.events"] += static_cast<double>(result.binlog_events);
    l["repl.binlog.batches"] += static_cast<double>(report.binlog_batches);
    l["repl.apply.writeset"] += static_cast<double>(report.writeset_applies);
    l["repl.apply.fallback"] += static_cast<double>(report.fallback_applies);
    std::vector<repl::DbNode*> nodes = {cluster.master()};
    for (repl::SlaveNode* slave : slaves) nodes.push_back(slave);
    for (repl::DbNode* node : nodes) {
      l["db.queries"] += static_cast<double>(node->queries_completed());
      l["db.vec.rows_filtered"] +=
          static_cast<double>(node->database().vec_stats().rows_filtered);
      l["db.vec.scalar_fallbacks"] +=
          static_cast<double>(node->database().vec_stats().scalar_fallbacks);
    }

    // Exactly-once apply: every slave applied each binlog event once.
    for (int i = 0; i < cluster.num_slaves(); ++i) {
      const repl::SlaveNode* slave = cluster.slave(i);
      l["repl.events_applied"] += static_cast<double>(slave->events_applied());
      if (slave->events_applied() != result.binlog_events ||
          slave->duplicate_events_dropped() != 0) {
        failures->push_back(StrFormat(
            "slave %d applied %lld of %lld binlog events (%lld duplicates)", i,
            static_cast<long long>(slave->events_applied()),
            static_cast<long long>(result.binlog_events),
            static_cast<long long>(slave->duplicate_events_dropped())));
      }
    }

    // Row counts: every replica holds the initial DataProfile rows plus one
    // row per successful inserting operation of the matching type.
    const cloudstone::DataProfile profile =
        cloudstone::DataProfile::FromScale(config.data_scale);
    std::map<std::string, int64_t> expected = {
        {"users", profile.users},
        {"tags", profile.tags},
        {"events", profile.events},
        {"attendees", profile.events * profile.attendees_per_event},
        {"event_tags", profile.events * profile.tags_per_event},
        {"comments", profile.events * profile.comments_per_event},
    };
    for (const cloudstone::OpRecord& record : records) {
      if (record.ok && !record.is_read) ++expected[InsertedTable(record.type)];
    }
    for (repl::DbNode* node : nodes) {
      for (const auto& [table, rows] : expected) {
        const db::Table* t = node->database().GetTable(table);
        int64_t actual =
            t == nullptr ? -1 : static_cast<int64_t>(t->num_rows());
        if (actual != rows) {
          failures->push_back(StrFormat(
              "%s: table %s holds %lld rows, expected %lld",
              node->instance().name().c_str(), table.c_str(),
              static_cast<long long>(actual), static_cast<long long>(rows)));
        }
      }
    }

    CLOUDDB_RETURN_IF_ERROR(ReplayCell(config, load_seed, state, records,
                                       master_db, ledger, failures));
    step_start = HostSeconds();  // The counters and replays are not timed.
  }  // The deployment is destroyed here, as when RunExperiment returns.
  step("harness.teardown_s");
  return result;
}

}  // namespace clouddb::perfbench
