/// \file ablation_moment.cc
/// \brief Substrate ablation: Moment's incremental CET maintenance versus
/// the naive baseline that re-mines the window from scratch at every report
/// — the comparison that motivated Moment in the first place (Chi et al.
/// ICDM'04) and the reason the paper's Fig. 8 mining times look the way
/// they do.

#include <vector>

#include "common/timing.h"
#include "harness.h"
#include "moment/moment.h"
#include "moment/recompute_miner.h"

namespace butterfly::bench {
namespace {

void Run(DatasetProfile profile, size_t window, size_t report_stride) {
  const size_t reports = 20;
  auto data = GenerateProfile(profile, window + reports * report_stride, 7);
  if (!data.ok()) std::exit(1);

  PrintTableHeader(
      "Moment vs re-mining, " + ProfileName(profile) + ", H=" +
          std::to_string(window) + ", report every " +
          std::to_string(report_stride) + " slides",
      {"engine", "s/window", "itemsets"});

  // Incremental Moment: per-record updates + output walk per report.
  {
    MomentMiner miner(window, 25);
    Stopwatch watch;
    double total = 0;
    size_t itemsets = 0;
    size_t reported = 0;
    size_t fed = 0;
    for (const Transaction& t : *data) {
      watch.Restart();
      miner.Append(t);
      total += watch.Seconds();
      ++fed;
      if (fed < window || (fed - window) % report_stride != 0 ||
          reported >= reports) {
        continue;
      }
      ++reported;
      watch.Restart();
      MiningOutput out = miner.GetClosedFrequent();
      total += watch.Seconds();
      itemsets = out.size();
    }
    PrintTableRow({"moment (incremental)",
                   FormatDouble(total / static_cast<double>(reported), 5),
                   std::to_string(itemsets)});
  }

  // Recompute baseline: buffer updates are free; the full miner runs at
  // every report.
  {
    RecomputeStreamMiner miner(window, 25);
    Stopwatch watch;
    double total = 0;
    size_t itemsets = 0;
    size_t reported = 0;
    size_t fed = 0;
    for (const Transaction& t : *data) {
      watch.Restart();
      miner.Append(t);
      total += watch.Seconds();
      ++fed;
      if (fed < window || (fed - window) % report_stride != 0 ||
          reported >= reports) {
        continue;
      }
      ++reported;
      watch.Restart();
      MiningOutput out = miner.GetClosedFrequent();
      total += watch.Seconds();
      itemsets = out.size();
    }
    PrintTableRow({"re-mine (closed eclat)",
                   FormatDouble(total / static_cast<double>(reported), 5),
                   std::to_string(itemsets)});
  }
}

}  // namespace
}  // namespace butterfly::bench

int main() {
  std::printf("Substrate ablation: incremental CET maintenance vs per-report "
              "re-mining, C=25\n");
  butterfly::bench::Run(butterfly::DatasetProfile::kBmsWebView1, 2000, 1);
  butterfly::bench::Run(butterfly::DatasetProfile::kBmsWebView1, 2000, 100);
  butterfly::bench::Run(butterfly::DatasetProfile::kBmsPos, 2000, 1);
  butterfly::bench::Run(butterfly::DatasetProfile::kBmsPos, 2000, 100);
  return 0;
}
