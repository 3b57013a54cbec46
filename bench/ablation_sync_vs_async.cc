// Ablation: asynchronous vs synchronous replication (the §II trade-off).
//
// The paper deploys MySQL's asynchronous replication and accepts staleness;
// synchronous replication would bound staleness at the cost of write latency
// that grows with the slowest replica's distance. This ablation quantifies
// both sides on the same workload.

#include <cstdio>

#include "bench_util.h"
#include "common/str_util.h"
#include "common/table_writer.h"
#include "harness/experiment.h"

int main() {
  using namespace clouddb;
  bench::PrintHeader(
      "Ablation: asynchronous vs synchronous replication "
      "(2 slaves, 100 users, 50/50)");

  TableWriter table({"placement", "mode", "throughput (ops/s)",
                     "mean resp (ms)", "p95 resp (ms)",
                     "avg relative delay (ms)"});
  for (auto location : {harness::LocationConfig::kSameZone,
                        harness::LocationConfig::kDifferentRegion}) {
    for (bool sync : {false, true}) {
      harness::ExperimentConfig config = bench::FiftyFiftyBase();
      config.location = location;
      config.num_slaves = 2;
      config.num_users = 100;
      config.synchronous_replication = sync;
      config.seed = 314;
      const harness::ExperimentResult result = bench::RunOrExit(config);
      std::fprintf(stderr, "  [run] %s %s done\n",
                   LocationConfigToString(location), sync ? "sync" : "async");
      table.AddRow({LocationConfigToString(location),
                    sync ? "synchronous" : "asynchronous",
                    StrFormat("%.1f", result.benchmark.throughput_ops),
                    StrFormat("%.1f", result.benchmark.mean_response_ms),
                    StrFormat("%.1f", result.benchmark.p95_response_ms),
                    StrFormat("%.1f", result.mean_relative_delay_ms)});
    }
  }
  std::printf("%s", table.ToAscii().c_str());
  std::printf(
      "\nExpected: synchronous mode inflates response times — write latency\n"
      "now includes the slowest replica's apply round trip, which is why the\n"
      "penalty explodes across regions. The heartbeat-measured apply delay\n"
      "barely changes (events still traverse the network and the slave CPU),\n"
      "but the *client-observed* staleness window is eliminated: a write is\n"
      "acknowledged only after every slave has applied it (§II).\n");
  return 0;
}
