// Reproduces paper Figs. 3 and 6 (a–c) from one sweep per location: end-to-
// end throughput (Fig. 3) and average relative replication delay (Fig. 6)
// with an increasing workload (50–450 users), 1–11 slaves and three
// geographic configurations. Read/write ratio 80/20, initial data size 600.
//
// Expected shape (paper §IV-A): throughput scales with slaves until ~10
// slaves (9 in the different-region configuration), where the master
// saturates; maximum throughput decreases with distance (same zone >
// different zone > different region), and the degradation is larger than in
// Fig. 2 because the read percentage is higher.

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace clouddb;
  bench::PrintHeader(
      "Figure 3: throughput, 80/20 read/write, data size 600, 1-11 slaves");
  return bench::RunLocationSweeps(
      bench::EightyTwentyBase(), bench::Fig3Slaves(), bench::Fig3Users(),
      "Fig3",
      "Figure 6: average relative replication delay (ms), 80/20, 1-11 slaves",
      "Fig6", bench::SweepJobs(argc, argv));
}
