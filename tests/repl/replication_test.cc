#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/cloud_provider.h"
#include "common/stats.h"
#include "common/str_util.h"
#include "repl/delay_monitor.h"
#include "repl/heartbeat.h"
#include "repl/master_node.h"
#include "repl/replication_cluster.h"
#include "repl/slave_node.h"
#include "common/result.h"
#include "common/status.h"
#include "common/time_types.h"
#include "db/binlog.h"
#include "db/database.h"
#include "db/sql_parser.h"
#include "db/statement_cache.h"
#include "repl/cost_model.h"
#include "sim/simulation.h"

namespace clouddb::repl {
namespace {

/// A cluster on a deterministic cloud with jitter and variance disabled
/// unless a test opts in.
class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest() {
    options_.latency_jitter_sigma = 0.0;
    options_.cpu_speed_cov = 0.0;
    options_.max_initial_clock_offset = 0;
    options_.max_clock_drift_ppm = 0.0;
  }

  std::unique_ptr<ReplicationCluster> MakeCluster(int slaves,
                                                  bool sync = false) {
    provider_ = std::make_unique<cloud::CloudProvider>(&sim_, options_, 1);
    ClusterConfig config;
    config.num_slaves = slaves;
    config.synchronous_replication = sync;
    return std::make_unique<ReplicationCluster>(provider_.get(), config);
  }

  sim::Simulation sim_;
  cloud::CloudOptions options_;
  std::unique_ptr<cloud::CloudProvider> provider_;
};

TEST_F(ReplicationTest, WritesPropagateToAllSlaves) {
  auto cluster = MakeCluster(3);
  ASSERT_TRUE(cluster->master()
                  ->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY)")
                  .ok());
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (1)").ok());
  sim_.Run();  // drain replication
  EXPECT_TRUE(cluster->FullyReplicated());
  EXPECT_TRUE(cluster->Converged());
  for (int i = 0; i < 3; ++i) {
    auto r = cluster->slave(i)->database().Execute("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
  }
}

TEST_F(ReplicationTest, ReadsDoNotReplicate) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("CREATE TABLE t (a INT)").ok());
  sim_.Run();
  int64_t size = cluster->master()->database().binlog().size();
  ASSERT_TRUE(cluster->master()->ExecuteDirect("SELECT * FROM t").ok());
  sim_.Run();
  EXPECT_EQ(cluster->master()->database().binlog().size(), size);
  EXPECT_EQ(cluster->slave(0)->events_applied(), size);
}

TEST_F(ReplicationTest, EventsApplyInOrder) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->master()
                  ->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
                  .ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster->master()
                    ->ExecuteDirect(StrFormat("INSERT INTO t VALUES (%d, %d)",
                                              i, i))
                    .ok());
    ASSERT_TRUE(cluster->master()
                    ->ExecuteDirect(StrFormat(
                        "UPDATE t SET b = b * 2 + 1 WHERE a = %d", i))
                    .ok());
  }
  sim_.Run();
  EXPECT_TRUE(cluster->Converged());
  EXPECT_EQ(cluster->slave(0)->applied_index(),
            cluster->master()->database().binlog().size() - 1);
}

TEST_F(ReplicationTest, AsyncWriteCompletesBeforeSlaveApplies) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("CREATE TABLE t (a INT)").ok());
  sim_.Run();
  bool responded = false;
  cluster->master()->Submit("INSERT INTO t VALUES (1)", Millis(10),
                            [&](Result<db::ExecResult> r) {
                              ASSERT_TRUE(r.ok());
                              responded = true;
                              // Asynchronous: the slave cannot have applied
                              // yet (one-way latency alone exceeds 0).
                              EXPECT_LT(cluster->slave(0)->events_applied(),
                                        cluster->master()->binlog_size());
                            });
  sim_.Run();
  EXPECT_TRUE(responded);
  EXPECT_TRUE(cluster->Converged());
}

TEST_F(ReplicationTest, SyncWriteWaitsForAllSlaveAcks) {
  auto cluster = MakeCluster(2, /*sync=*/true);
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("CREATE TABLE t (a INT)").ok());
  sim_.Run();
  SimTime responded_at = -1;
  cluster->master()->Submit("INSERT INTO t VALUES (1)", Millis(10),
                            [&](Result<db::ExecResult> r) {
                              ASSERT_TRUE(r.ok());
                              responded_at = sim_.Now();
                              // Both slaves must already have applied.
                              EXPECT_EQ(cluster->slave(0)->events_applied(),
                                        cluster->master()->binlog_size());
                              EXPECT_EQ(cluster->slave(1)->events_applied(),
                                        cluster->master()->binlog_size());
                            });
  sim_.Run();
  ASSERT_GT(responded_at, 0);
  // Response time covers master exec + one-way push + apply + ack.
  EXPECT_GE(responded_at, Millis(10) + 2 * options_.same_zone_one_way);
}

TEST_F(ReplicationTest, SyncModeSlowerThanAsyncForTheClient) {
  SimTime async_done = 0;
  SimTime sync_done = 0;
  for (bool sync : {false, true}) {
    sim::Simulation sim;
    auto provider = std::make_unique<cloud::CloudProvider>(&sim, options_, 1);
    ClusterConfig config;
    config.num_slaves = 3;
    config.synchronous_replication = sync;
    ReplicationCluster cluster(provider.get(), config);
    ASSERT_TRUE(
        cluster.master()->ExecuteDirect("CREATE TABLE t (a INT)").ok());
    sim.Run();
    SimTime start = sim.Now();
    SimTime done = 0;
    cluster.master()->Submit("INSERT INTO t VALUES (1)", Millis(10),
                             [&](Result<db::ExecResult>) { done = sim.Now(); });
    sim.Run();
    (sync ? sync_done : async_done) = done - start;
  }
  EXPECT_GT(sync_done, async_done);
}

TEST_F(ReplicationTest, FailedStatementsDoNotReplicate) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->master()
                  ->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY)")
                  .ok());
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (1)").ok());
  sim_.Run();
  EXPECT_TRUE(cluster->Converged());
  auto r = cluster->slave(0)->database().Execute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
}

TEST_F(ReplicationTest, SlaveAppliesChargeCpu) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("CREATE TABLE t (a INT)").ok());
  sim_.Run();
  int64_t busy_before = cluster->slave(0)->instance().cpu().CumulativeBusyMicros();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster->master()
                    ->ExecuteDirect(StrFormat("INSERT INTO t VALUES (%d)", i))
                    .ok());
  }
  sim_.Run();
  int64_t busy_after = cluster->slave(0)->instance().cpu().CumulativeBusyMicros();
  // 10 inserts at apply cost = 0.5 * insert_cost (30ms) = 150ms.
  CostModel defaults;
  EXPECT_EQ(busy_after - busy_before,
            10 * static_cast<int64_t>(defaults.apply_factor *
                                      static_cast<double>(defaults.insert_cost)));
}

TEST_F(ReplicationTest, BrokenSlaveStopsApplying) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(cluster->master()
                  ->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY)")
                  .ok());
  sim_.Run();
  // Sabotage: insert a conflicting row directly on the slave (out-of-band
  // write — the classic way operators break MySQL replication).
  ASSERT_TRUE(
      cluster->slave(0)->database().Execute("INSERT INTO t VALUES (7)").ok());
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (7)").ok());
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (8)").ok());
  sim_.Run();
  EXPECT_TRUE(cluster->slave(0)->replication_broken());
  // The event after the failure was never applied.
  auto r = cluster->slave(0)->database().Execute(
      "SELECT COUNT(*) FROM t WHERE a = 8");
  EXPECT_EQ(r->rows[0][0].AsInt64(), 0);
  EXPECT_FALSE(cluster->FullyReplicated());
}

TEST_F(ReplicationTest, ExecuteEverywhereDirectDoesNotReplicate) {
  auto cluster = MakeCluster(2);
  ASSERT_TRUE(
      cluster->ExecuteEverywhereDirect("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(cluster->ExecuteEverywhereDirect("INSERT INTO t VALUES (1)").ok());
  sim_.Run();
  // Nothing went through the binlog; contents equal by direct loading.
  EXPECT_EQ(cluster->master()->database().binlog().size(), 0);
  EXPECT_TRUE(cluster->Converged());
  EXPECT_TRUE(cluster->FullyReplicated());  // trivially: empty binlog
}

TEST_F(ReplicationTest, AddSlaveCopiesTablesWithTheirIndexes) {
  auto cluster = MakeCluster(1);
  db::Database& master = cluster->master()->database();
  for (const char* sql :
       {"CREATE TABLE t (a INT PRIMARY KEY, b INT NOT NULL, c TEXT)",
        "CREATE INDEX idx_b ON t (b)", "CREATE INDEX idx_c ON t (c)",
        "INSERT INTO t VALUES (1, 10, 'x')", "INSERT INTO t VALUES (2, 20, 'y')",
        "INSERT INTO t VALUES (3, 10, NULL)", "DELETE FROM t WHERE a = 2"}) {
    ASSERT_TRUE(cluster->master()->ExecuteDirect(sql).ok()) << sql;
  }
  sim_.Run();
  Result<int> added = cluster->AddSlave();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  db::Database& fresh = cluster->slave(*added)->database();
  for (const std::string& name : master.TableNames()) {
    ASSERT_NE(fresh.GetTable(name), nullptr) << name;
    EXPECT_EQ(fresh.GetTable(name)->SecondaryIndexes(),
              master.GetTable(name)->SecondaryIndexes())
        << name;
  }
  std::string err;
  EXPECT_TRUE(fresh.ValidateAllIndexes(&err)) << err;
  auto read = fresh.Execute("SELECT a FROM t WHERE b = 10");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->plan, "index_eq(b)");
  EXPECT_EQ(read->rows.size(), 2u);
  // The new slave streams only what commits after the snapshot.
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("INSERT INTO t VALUES (4, 40, 'z')").ok());
  sim_.Run();
  EXPECT_TRUE(cluster->FullyReplicated());
  EXPECT_TRUE(cluster->Converged());
  EXPECT_TRUE(fresh.ValidateAllIndexes(&err)) << err;
}

TEST_F(ReplicationTest, TransactionAppliesAtomicallyOnSlave) {
  auto cluster = MakeCluster(1);
  ASSERT_TRUE(
      cluster->master()->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY)").ok());
  auto session = cluster->master()->database().CreateSession();
  ASSERT_TRUE(cluster->master()->database().Execute("BEGIN", session.get()).ok());
  ASSERT_TRUE(cluster->master()
                  ->database()
                  .Execute("INSERT INTO t VALUES (1)", session.get())
                  .ok());
  ASSERT_TRUE(cluster->master()
                  ->database()
                  .Execute("INSERT INTO t VALUES (2)", session.get())
                  .ok());
  ASSERT_TRUE(
      cluster->master()->database().Execute("COMMIT", session.get()).ok());
  sim_.Run();
  EXPECT_TRUE(cluster->Converged());
  // One binlog event carried both statements.
  const db::Binlog& binlog = cluster->master()->database().binlog();
  EXPECT_EQ(binlog.At(binlog.size() - 1).statements.size(), 2u);
}

// ---- Submit: one prepare per statement -------------------------------------

TEST_F(ReplicationTest, SubmitWithoutCostPreparesOnce) {
  auto cluster = MakeCluster(1);
  MasterNode* master = cluster->master();
  ASSERT_TRUE(master->ExecuteDirect("CREATE TABLE t (a INT PRIMARY KEY)").ok());
  sim_.Run();
  db::StatementCache& cache = master->database().statement_cache();
  cache.ResetStats();
  bool responded = false;
  // A negative cost asks the node to estimate it from the statement; the
  // estimate and the execution share one prepared call.
  master->Submit("SELECT a FROM t WHERE a = 1", /*cpu_cost=*/-1,
                 [&](Result<db::ExecResult> r) {
                   EXPECT_TRUE(r.ok());
                   responded = true;
                 });
  sim_.Run();
  EXPECT_TRUE(responded);
  const db::StatementCacheStats& stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.bypasses, 1);
}

TEST_F(ReplicationTest, SubmitAnswersPrepareErrorWhenTheCpuReachesIt) {
  auto cluster = MakeCluster(1);
  MasterNode* master = cluster->master();
  const std::string bad = "SELECT 'unterminated";
  std::optional<Status> answer;
  SimTime answered_at = -1;
  master->Submit(bad, Millis(2), [&](Result<db::ExecResult> r) {
    answer = r.status();
    answered_at = sim_.Now();
  });
  sim_.Run();
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->ToString(), db::ParseSql(bad).status().ToString());
  EXPECT_GE(answered_at, Millis(2));
  EXPECT_EQ(master->queries_failed(), 1);
  EXPECT_EQ(master->queries_completed(), 0);
}

// A SELECT prepared when submitted but executed after DDL returns what a
// fresh Execute returns after the DDL: templates are re-bound against the
// live catalog on every execution.
class QueuedAcrossDdlTest : public ReplicationTest {
 protected:
  /// Submits `select` behind `cpu_cost` of CPU, runs `ddl` directly while it
  /// waits, and checks the queued result against a fresh execution.
  void ExpectQueuedMatchesFresh(MasterNode* master, const std::string& select,
                                const std::vector<std::string>& ddl,
                                const std::string& expected_plan) {
    std::optional<Result<db::ExecResult>> queued;
    master->Submit(select, Millis(5), [&](Result<db::ExecResult> r) {
      queued = std::move(r);
    });
    for (const std::string& sql : ddl) {
      ASSERT_TRUE(master->ExecuteDirect(sql).ok()) << sql;
    }
    sim_.Run();
    ASSERT_TRUE(queued.has_value());
    ASSERT_TRUE(queued->ok()) << queued->status().ToString();
    auto fresh = master->database().Execute(select);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ((*queued)->plan, expected_plan);
    EXPECT_EQ((*queued)->plan, fresh->plan);
    EXPECT_EQ((*queued)->column_names, fresh->column_names);
    EXPECT_EQ((*queued)->rows, fresh->rows);
  }
};

TEST_F(QueuedAcrossDdlTest, CreateIndex) {
  auto cluster = MakeCluster(1);
  MasterNode* master = cluster->master();
  ASSERT_TRUE(
      master->ExecuteDirect("CREATE TABLE t (id BIGINT PRIMARY KEY, d BIGINT)")
          .ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(master
                    ->ExecuteDirect(
                        StrFormat("INSERT INTO t VALUES (%d, %d)", i, i % 5))
                    .ok());
  }
  const std::string select = "SELECT id FROM t WHERE d = 3";
  auto before = master->database().Execute(select);  // caches the template
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->plan, "table_scan");
  ExpectQueuedMatchesFresh(master, select, {"CREATE INDEX idx_d ON t (d)"},
                           "index_eq(d)");
}

TEST_F(QueuedAcrossDdlTest, DropAndRecreateTable) {
  auto cluster = MakeCluster(1);
  MasterNode* master = cluster->master();
  ASSERT_TRUE(master
                  ->ExecuteDirect(
                      "CREATE TABLE t (id BIGINT PRIMARY KEY, n BIGINT, s TEXT)")
                  .ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(master
                    ->ExecuteDirect(StrFormat("INSERT INTO t VALUES (%d, %d, "
                                              "'x%d')",
                                              i, i % 7, i % 3))
                    .ok());
  }
  // The recreated table moves the filtered columns to other slots and holds
  // different rows: a call bound to the old catalog would filter the wrong
  // columns or return the old ids.
  std::vector<std::string> ddl = {
      "DROP TABLE t",
      "CREATE TABLE t (id BIGINT PRIMARY KEY, s TEXT, extra DOUBLE, "
      "n BIGINT)"};
  for (int i = 0; i < 30; ++i) {
    ddl.push_back(StrFormat("INSERT INTO t VALUES (%d, 'x%d', 0.5, %d)",
                            100 + i, i % 3, i % 7));
  }
  ExpectQueuedMatchesFresh(master, "SELECT id FROM t WHERE n = 3 AND s = 'x1'",
                           ddl, "table_scan");
}

// ---- Heartbeat & delay monitor -------------------------------------------

class HeartbeatTest : public ReplicationTest {};

TEST_F(HeartbeatTest, HeartbeatsReplicateWithLocalTimestamps) {
  auto cluster = MakeCluster(1);
  HeartbeatOptions options;
  HeartbeatPlugin heartbeat(&sim_, cluster->master(), options);
  ASSERT_TRUE(heartbeat.CreateTable().ok());
  heartbeat.Start();
  sim_.RunUntil(Seconds(10));
  heartbeat.Stop();
  sim_.Run();

  auto master_hb =
      ReadHeartbeats(cluster->master()->database(), options.table);
  auto slave_hb = ReadHeartbeats(cluster->slave(0)->database(), options.table);
  EXPECT_EQ(master_hb.size(), 11u);  // t = 0..10 inclusive
  EXPECT_EQ(slave_hb.size(), 11u);
  // Slave apply timestamps trail master commit timestamps (no clock skew in
  // this fixture): delay = network + apply CPU > 0 for every heartbeat.
  for (const auto& [id, master_ts] : master_hb) {
    ASSERT_TRUE(slave_hb.count(id) > 0);
    EXPECT_GT(slave_hb[id], master_ts) << "heartbeat " << id;
  }
}

TEST_F(HeartbeatTest, DelaysReflectNetworkPlusApply) {
  auto cluster = MakeCluster(1);
  HeartbeatOptions options;
  HeartbeatPlugin heartbeat(&sim_, cluster->master(), options);
  ASSERT_TRUE(heartbeat.CreateTable().ok());
  heartbeat.Start();
  sim_.RunUntil(Seconds(30));
  heartbeat.Stop();
  sim_.Run();
  std::vector<double> delays =
      HeartbeatDelaysMs(cluster->master()->database(),
                        cluster->slave(0)->database(), 1,
                        heartbeat.next_id() - 1, options.table);
  ASSERT_GT(delays.size(), 20u);
  for (double d : delays) {
    // One-way 16ms + apply 4ms (idle slave), plus the master-side insert.
    EXPECT_GT(d, 16.0);
    EXPECT_LT(d, 40.0);
  }
}

TEST_F(HeartbeatTest, RelativeDelayCancelsClockOffset) {
  // Give the slave instance a large fixed clock offset; the relative delay
  // computation must cancel it.
  auto cluster = MakeCluster(1);
  cluster->slave(0)->instance().clock().StepTo(0, Millis(500));

  HeartbeatOptions options;
  HeartbeatPlugin heartbeat(&sim_, cluster->master(), options);
  ASSERT_TRUE(heartbeat.CreateTable().ok());
  heartbeat.Start();
  sim_.RunUntil(Seconds(20));
  int64_t idle_max = heartbeat.next_id() - 1;
  // "Load": occupy the slave CPU with reads so applies queue behind them.
  for (int i = 0; i < 200; ++i) {
    cluster->slave(0)->Submit("SELECT COUNT(*) FROM heartbeat", Millis(50),
                              [](Result<db::ExecResult>) {});
  }
  sim_.RunUntil(Seconds(40));
  heartbeat.Stop();
  sim_.Run();

  std::vector<double> idle =
      HeartbeatDelaysMs(cluster->master()->database(),
                        cluster->slave(0)->database(), 1, idle_max);
  std::vector<double> loaded = HeartbeatDelaysMs(
      cluster->master()->database(), cluster->slave(0)->database(),
      idle_max + 1, heartbeat.next_id() - 1);
  ASSERT_FALSE(idle.empty());
  ASSERT_FALSE(loaded.empty());
  // Raw delays carry the 500ms offset...
  Sample idle_sample;
  idle_sample.AddAll(idle);
  EXPECT_GT(idle_sample.Mean(), 400.0);
  // ...but the relative delay cancels it and reflects pure queueing.
  double relative = AverageRelativeDelayMs(loaded, idle);
  EXPECT_GT(relative, 100.0);    // queueing behind 200 x 50ms reads
  EXPECT_LT(relative, 20000.0);  // and no runaway offset contamination
}

TEST_F(HeartbeatTest, MoreHeartbeatsWithShorterPeriod) {
  auto cluster = MakeCluster(1);
  HeartbeatOptions fast;
  fast.period = Millis(200);
  HeartbeatPlugin heartbeat(&sim_, cluster->master(), fast);
  ASSERT_TRUE(heartbeat.CreateTable().ok());
  heartbeat.Start();
  sim_.RunUntil(Seconds(10));
  heartbeat.Stop();
  sim_.Run();
  EXPECT_EQ(heartbeat.next_id() - 1, 51);  // t=0,0.2,...,10.0
}

TEST(ReconnectOptionsTest, EffectiveAckTimeoutFallsBackToNamedDefault) {
  ReconnectOptions options;
  EXPECT_EQ(options.ack_timeout, ReconnectOptions::kDefaultAckTimeout);
  options.ack_timeout = 0;  // "use the default", not "no timeout"
  EXPECT_EQ(options.effective_ack_timeout(),
            ReconnectOptions::kDefaultAckTimeout);
  options.ack_timeout = Seconds(3);
  EXPECT_EQ(options.effective_ack_timeout(), Seconds(3));
}

TEST_F(HeartbeatTest, DelayMonitorHandlesMissingTables) {
  db::Database a;
  db::Database b;
  EXPECT_TRUE(ReadHeartbeats(a, "heartbeat").empty());
  EXPECT_TRUE(HeartbeatDelaysMs(a, b, 1, 100).empty());
  EXPECT_EQ(AverageRelativeDelayMs({}, {}), 0.0);
}

}  // namespace
}  // namespace clouddb::repl
