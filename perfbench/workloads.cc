#include "workloads.h"

#include <cmath>

#include "cloudstone/operations.h"
#include "common/str_util.h"
#include "common/time_types.h"

namespace clouddb::perfbench {

namespace {

constexpr uint64_t kPlacementBaseSeed = 42;

/// The paper's run structure (§III-B): 10/20/5-minute ramp-up, steady stage
/// and ramp-down after a 2-minute idle heartbeat window. Smoke mode keeps
/// the structure at 1/2/0.5 minutes after a 0.5-minute idle window, so the
/// benchmark's own tests exercise every workload and check in seconds.
void ApplyPhases(bool smoke, harness::ExperimentConfig* config) {
  if (smoke) {
    config->idle_window = Seconds(30);
    config->benchmark.ramp_up = Minutes(1);
    config->benchmark.steady = Minutes(2);
    config->benchmark.ramp_down = Seconds(30);
  } else {
    config->idle_window = Minutes(2);
    config->benchmark.ramp_up = Minutes(10);
    config->benchmark.steady = Minutes(20);
    config->benchmark.ramp_down = Minutes(5);
  }
}

/// Index of a location in the fig* binaries' location loop; the placement
/// seed below is the one those binaries give that location's sweep.
int LocationIndex(harness::LocationConfig location) {
  switch (location) {
    case harness::LocationConfig::kSameZone:
      return 0;
    case harness::LocationConfig::kDifferentZone:
      return 1;
    case harness::LocationConfig::kDifferentRegion:
      return 2;
  }
  return 0;
}

Workload Build(std::string name, harness::ExperimentConfig base,
               std::vector<int> slaves, std::vector<int> users, uint64_t seed,
               bool smoke) {
  ApplyPhases(smoke, &base);
  base.seed = seed;
  // The instance lottery (speeds, clock offsets, network jitter) is pinned:
  // the fig* binaries' placement seed for this location at their default
  // seed. The workload seed varies users, operations and the initial data,
  // never the deployment, as in the paper, which reused one deployment
  // across a figure's runs.
  base.placement_seed = kPlacementBaseSeed * 977 +
                        static_cast<uint64_t>(LocationIndex(base.location)) +
                        1;
  Workload workload;
  workload.name = std::move(name);
  workload.sweep.base = base;
  workload.sweep.slave_counts = std::move(slaves);
  workload.sweep.user_counts = std::move(users);
  workload.sweep.jobs = 1;
  return workload;
}

harness::ExperimentConfig FiftyFifty() {
  harness::ExperimentConfig config;
  config.mix = cloudstone::WorkloadMix::FiftyFifty();
  config.data_scale = 300;
  config.benchmark.think_time_mean = Seconds(9);
  return config;
}

}  // namespace

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     bool smoke) {
  if (name == "fig2-sweep-5050") {
    // Fig. 2a sub-grid: unsaturated, slave-saturated and master-saturated
    // cells, statement-based unbatched shipping.
    return Build(name, FiftyFifty(), {1, 2, 4}, {50, 125, 200}, seed, smoke);
  }
  if (name == "fig3-saturated-8020") {
    // Fig. 3's master-saturated knee: 12 replicas, read-dominated.
    harness::ExperimentConfig base;
    base.mix = cloudstone::WorkloadMix::EightyTwenty();
    base.data_scale = 600;
    base.benchmark.think_time_mean = Seconds(7);
    return Build(name, base, {11}, {450}, seed, smoke);
  }
  if (name == "fig5-rowrepl-region") {
    // Fig. 5's different-region placement with row-based writesets and a
    // binlog batch size of 64 (the ablation_row_repl configuration).
    harness::ExperimentConfig base = FiftyFifty();
    base.location = harness::LocationConfig::kDifferentRegion;
    base.row_based_repl = true;
    base.binlog_batch_size = 64;
    return Build(name, base, {2, 3, 4}, {100, 150, 200}, seed, smoke);
  }
  return std::nullopt;
}

std::vector<harness::ExperimentConfig> PlanCells(
    const harness::SweepConfig& sweep) {
  std::vector<harness::ExperimentConfig> cells;
  for (int slaves : sweep.slave_counts) {
    for (int users : sweep.user_counts) {
      harness::ExperimentConfig run = sweep.base;
      run.num_slaves = slaves;
      run.num_users = users;
      run.seed = sweep.base.seed + sweep.seed_salt +
                 static_cast<uint64_t>(slaves) * 1000003ull +
                 static_cast<uint64_t>(users) * 7919ull;
      if (!run.placement_seed.has_value()) {
        run.placement_seed = sweep.base.seed * 131 + sweep.seed_salt;
      }
      cells.push_back(std::move(run));
    }
  }
  return cells;
}

harness::ExperimentConfig SetupConfig(const Workload& workload,
                                      uint64_t seed) {
  harness::ExperimentConfig config = workload.sweep.base;
  config.num_slaves = workload.sweep.slave_counts.back();
  config.num_users = workload.sweep.user_counts.back();
  config.seed = seed;
  config.idle_window = 0;
  config.benchmark.ramp_up = 0;
  config.benchmark.steady = 0;
  config.benchmark.ramp_down = 0;
  return config;
}

std::string OutputRow(const std::string& workload, uint64_t seed,
                      const harness::ExperimentConfig& run,
                      const harness::ExperimentResult& result) {
  std::string delays;
  for (double d : result.relative_delay_ms) {
    if (!delays.empty()) delays += ",";
    delays += StrFormat("%.17g", d);
  }
  const cloudstone::BenchmarkReport& report = result.benchmark;
  return StrFormat(
      "%s\t%llu\t%d\t%d\t%.17g\t%.17g\t%.17g\t%s\t%lld\t%lld",
      workload.c_str(), static_cast<unsigned long long>(seed), run.num_slaves,
      run.num_users, report.throughput_ops, report.p95_response_ms,
      report.mean_response_ms, delays.c_str(),
      static_cast<long long>(result.binlog_events),
      static_cast<long long>(report.completed_ops));
}

std::vector<std::string> CheckCell(const harness::ExperimentConfig& run,
                                   const harness::ExperimentResult& result) {
  std::vector<std::string> failures;
  auto fail = [&](const std::string& what) {
    failures.push_back(StrFormat("slaves=%d users=%d: %s", run.num_slaves,
                                 run.num_users, what.c_str()));
  };
  const cloudstone::BenchmarkReport& report = result.benchmark;
  if (!result.converged) fail("replicas not converged after drain");
  if (!result.fully_replicated) fail("binlog not fully applied after drain");
  if (report.failed_ops != 0) {
    fail(StrFormat("%lld failed operations",
                   static_cast<long long>(report.failed_ops)));
  }
  if (report.completed_ops <= 0) {
    fail("no operation completed in the steady window");
    return failures;
  }

  // Closed-loop law: N users each alternate a think of mean Z with one
  // request of mean response R, so the steady throughput is X = N/(Z+R).
  // The tolerance is 3 relative standard errors of a count of C
  // completions plus 1% for the ramp edges of the window.
  const double completed = static_cast<double>(report.completed_ops);
  const double z_s = ToSeconds(run.benchmark.think_time_mean);
  const double law = report.throughput_ops *
                     (z_s + report.mean_response_ms / 1000.0) /
                     static_cast<double>(run.num_users);
  const double law_tolerance = 0.01 + 3.0 / std::sqrt(completed);
  if (!(std::fabs(law - 1.0) <= law_tolerance)) {
    fail(StrFormat("closed-loop law X(Z+R)/N = %.4f, outside 1 +- %.4f", law,
                   law_tolerance));
  }

  // Reads are drawn with probability p per operation: the completed read
  // share must lie within 4 binomial standard deviations of p.
  const double p = run.mix.read_fraction;
  const double read_share = report.read_throughput_ops / report.throughput_ops;
  const double share_bound = 4.0 * std::sqrt(p * (1.0 - p) / completed);
  if (!(std::fabs(read_share - p) <= share_bound)) {
    fail(StrFormat("read share %.4f outside %.2f +- %.4f", read_share, p,
                   share_bound));
  }

  // Every event here carries one statement, so each slave applies each
  // shipped statement once: through its writeset or through the fallback.
  const int64_t expected_applies =
      run.row_based_repl ? run.num_slaves * result.binlog_events : 0;
  if (report.writeset_applies + report.fallback_applies != expected_applies) {
    fail(StrFormat("writeset %lld + fallback %lld applies, expected %lld",
                   static_cast<long long>(report.writeset_applies),
                   static_cast<long long>(report.fallback_applies),
                   static_cast<long long>(expected_applies)));
  }
  return failures;
}

}  // namespace clouddb::perfbench
