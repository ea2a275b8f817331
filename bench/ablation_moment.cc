/// \file ablation_moment.cc
/// \brief Substrate ablation: Moment's incremental CET maintenance versus
/// the naive baseline that re-mines the window from scratch at every report
/// — the comparison that motivated Moment in the first place (Chi et al.
/// ICDM'04) and the reason the paper's Fig. 8 mining times look the way
/// they do.
///
/// Each arm is one whole stream pass: fill the window, then append and walk
/// the closed itemsets at every report point. The two arms alternate under
/// the harness's warmup + median-of-N plan, and a row is the median pass
/// divided by the reports.

#include <cstdlib>
#include <vector>

#include "harness.h"
#include "moment/moment.h"
#include "moment/recompute_miner.h"

namespace butterfly::bench {
namespace {

constexpr Support kMinSupport = 25;
constexpr size_t kReports = 20;
constexpr RepeatPlan kPlan{/*warmup=*/1, /*reps=*/9};

/// One stream pass through a fresh \p Miner; returns the closed itemsets at
/// the last report.
template <typename Miner>
size_t StreamPass(const std::vector<Transaction>& data, size_t window,
                  size_t report_stride) {
  Miner miner(window, kMinSupport);
  size_t itemsets = 0;
  size_t reported = 0;
  size_t fed = 0;
  for (const Transaction& t : data) {
    miner.Append(t);
    ++fed;
    if (fed < window || (fed - window) % report_stride != 0 ||
        reported >= kReports) {
      continue;
    }
    ++reported;
    itemsets = miner.GetClosedFrequent().size();
  }
  return itemsets;
}

void Run(DatasetProfile profile, size_t window, size_t report_stride) {
  auto data =
      GenerateProfile(profile, window + kReports * report_stride, 7);
  if (!data.ok()) std::exit(1);

  size_t moment_itemsets = 0;
  size_t remine_itemsets = 0;
  const std::vector<double> seconds = MeasureMedianSeconds(
      kPlan,
      {[&] {
         moment_itemsets =
             StreamPass<MomentMiner>(*data, window, report_stride);
       },
       [&] {
         remine_itemsets =
             StreamPass<RecomputeStreamMiner>(*data, window, report_stride);
       }});
  const double reports = static_cast<double>(kReports);

  PrintTableHeader(
      "Moment vs re-mining, " + ProfileName(profile) + ", H=" +
          std::to_string(window) + ", report every " +
          std::to_string(report_stride) + " slides",
      {"engine", "s/window", "itemsets"});
  // Incremental Moment: per-record updates + output walk per report.
  PrintTableRow({"moment (incremental)", FormatDouble(seconds[0] / reports, 5),
                 std::to_string(moment_itemsets)});
  // Recompute baseline: buffer updates are free; the full miner runs at
  // every report.
  PrintTableRow({"re-mine (closed eclat)",
                 FormatDouble(seconds[1] / reports, 5),
                 std::to_string(remine_itemsets)});
}

}  // namespace
}  // namespace butterfly::bench

int main() {
  using butterfly::bench::kPlan;
  std::printf("Substrate ablation: incremental CET maintenance vs per-report "
              "re-mining, C=%lld, %zu reports; whole stream passes (window "
              "fill included), arms alternating, medians of %d after %d "
              "warmup\n",
              static_cast<long long>(butterfly::bench::kMinSupport),
              butterfly::bench::kReports, kPlan.reps, kPlan.warmup);
  butterfly::bench::Run(butterfly::DatasetProfile::kBmsWebView1, 2000, 1);
  butterfly::bench::Run(butterfly::DatasetProfile::kBmsWebView1, 2000, 100);
  butterfly::bench::Run(butterfly::DatasetProfile::kBmsPos, 2000, 1);
  butterfly::bench::Run(butterfly::DatasetProfile::kBmsPos, 2000, 100);
  return 0;
}
