// Ablation: read load-balancing policy of the application-side proxy.
//
// The paper's proxy distributes reads round-robin and §IV-B.2 suggests that
// "a smart load balancer which is able of balancing the operations based on
// estimated processing time" would make geographic replication practical.
// With instance performance variation enabled (CoV 0.21), slaves are
// heterogeneous and round-robin overloads the slow ones.

#include <cstdio>

#include "bench_util.h"
#include "client/rw_split_proxy.h"
#include "common/str_util.h"
#include "common/table_writer.h"
#include "harness/experiment.h"

int main() {
  using namespace clouddb;
  bench::PrintHeader(
      "Ablation: proxy balancing policy (4 heterogeneous slaves, 250 users, "
      "80/20)");

  TableWriter table({"policy", "throughput (ops/s)", "mean resp (ms)",
                     "p95 resp (ms)", "avg relative delay (ms)"});
  for (auto policy : {client::BalancePolicy::kRoundRobin,
                      client::BalancePolicy::kLeastOutstanding,
                      client::BalancePolicy::kLatencyWeighted}) {
    harness::ExperimentConfig config = bench::EightyTwentyBase();
    config.num_slaves = 4;
    config.num_users = 250;
    config.policy = policy;
    // Exaggerated heterogeneity so the policy difference is visible.
    config.cloud.cpu_speed_cov = 0.35;
    config.seed = 2718;
    const harness::ExperimentResult result = bench::RunOrExit(config);
    std::fprintf(stderr, "  [run] %s done\n", BalancePolicyToString(policy));
    table.AddRow({client::BalancePolicyToString(policy),
                  StrFormat("%.1f", result.benchmark.throughput_ops),
                  StrFormat("%.1f", result.benchmark.mean_response_ms),
                  StrFormat("%.1f", result.benchmark.p95_response_ms),
                  StrFormat("%.1f", result.mean_relative_delay_ms)});
  }
  std::printf("%s", table.ToAscii().c_str());
  std::printf(
      "\nExpected: queue/latency-aware policies beat round-robin on "
      "response time\nwhen slave instances differ in speed.\n");
  return 0;
}
