// The control-loop figure (no paper counterpart — the experiment the paper's
// §V outlook asks for): staleness-SLA bound x offered load, under a mid-run
// load step, with the freshness tracker routing bounded reads and the
// elasticity controller scaling the replica tier.
//
// Expected shape: tight bounds sacrifice offload (reads fall back to the
// fresh master) but hold freshness near 100%; loose bounds keep offload high;
// under the load step the controller adds a replica, then retires it once
// the surge drains. A bound of 0 is the always-master degenerate row.

#include <cstdio>

#include "bench_util.h"
#include "client/rw_split_proxy.h"
#include "common/time_types.h"
#include "harness/control_experiment.h"
#include "harness/sweep_control.h"
#include "cloudstone/operations.h"
#include "common/str_util.h"

namespace {

void Progress(const clouddb::harness::ControlSweepCell& cell) {
  std::fprintf(stderr,
               "  [run] bound=%-10s users=%-3d -> fresh %6.2f%%, offload "
               "%5.1f%%, replicas peak %d final %d\n",
               clouddb::harness::BoundLabel(cell.bound).c_str(), cell.users,
               cell.result.achieved_freshness_pct,
               cell.result.master_offload_pct,
               cell.result.peak_active_slaves,
               cell.result.final_active_slaves);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace clouddb;
  bench::PrintHeader(
      "Figure 7: freshness-SLA routing + elasticity under a load step");

  harness::ControlSweepConfig sweep;
  sweep.base.mix = cloudstone::WorkloadMix::FiftyFifty();
  sweep.base.data_scale = 100;
  sweep.base.initial_slaves = 1;
  sweep.base.controller.max_active_slaves = 4;
  if (bench::FastMode()) {
    sweep.base.warmup = Seconds(20);
    sweep.base.measure = Minutes(4);
    sweep.base.surge_start = Seconds(45);
    sweep.base.surge_duration = Seconds(90);
    sweep.user_counts = {10, 20};
  } else {
    sweep.base.warmup = Seconds(30);
    sweep.base.measure = Minutes(8);
    sweep.base.surge_start = Minutes(1);
    sweep.base.surge_duration = Minutes(3);
    sweep.user_counts = {10, 20, 40};
  }
  // 0 = always-master, -1 = unbounded; the interesting regime in between.
  sweep.staleness_bounds = {0, Millis(250), Millis(1000), Seconds(5),
                            client::kNoStalenessBound};
  sweep.jobs = bench::SweepJobs(argc, argv);

  auto result = harness::RunControlSweep(sweep, Progress);
  if (!result.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  using harness::ControlExperimentResult;
  auto print_table = [&](const char* title, const auto& text) {
    bench::PrintHeader(title);
    std::printf("%s", result->FigureTable(text, sweep.staleness_bounds,
                                          sweep.user_counts)
                          .ToAscii()
                          .c_str());
  };
  print_table("Fig7a: achieved freshness (% of bounded reads within bound at "
              "completion)",
              [](const ControlExperimentResult& r) {
                return StrFormat("%.2f%%", r.achieved_freshness_pct);
              });
  print_table("Fig7b: master offload (% of bounded reads served by a "
              "replica)",
              [](const ControlExperimentResult& r) {
                return StrFormat("%.1f%%", r.master_offload_pct);
              });
  print_table("Fig7c: replica count under the controller",
              [](const ControlExperimentResult& r) {
                return StrFormat("peak %d, final %d (+%lld/-%lld)",
                                 r.peak_active_slaves, r.final_active_slaves,
                                 static_cast<long long>(r.scale_outs),
                                 static_cast<long long>(r.scale_ins));
              });

  // One representative cell's scaling timeline, to make the loop visible.
  const auto& cells = result->cells();
  if (!cells.empty()) {
    const harness::ControlSweepCell* shown = nullptr;
    for (const auto& cell : cells) {
      if (!cell.result.scaling_events.empty()) {
        shown = &cell;
        break;
      }
    }
    if (shown == nullptr) shown = &cells.back();
    bench::PrintHeader(StrFormat("Scaling timeline (bound %s, %d users)",
                                 harness::BoundLabel(shown->bound).c_str(),
                                 shown->users));
    std::printf("%s", shown->result.TimelineString().c_str());
  }
  return 0;
}
