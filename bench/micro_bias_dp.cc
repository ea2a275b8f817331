/// \file micro_bias_dp.cc
/// \brief google-benchmark microbenchmarks for the order-preserving bias DP
/// (Algorithm 1): the flat compact-row implementation versus the map-based
/// reference, swept over FEC count and window length γ. The flat DP is the
/// release hot path; the reference is the retained oracle it must match
/// bit-for-bit (see bias_property_test.cc), so their gap here is exactly the
/// win the rewrite buys.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/bias_setting.h"
#include "core/fec.h"
#include "core/noise.h"
#include "datagen/profiles.h"
#include "moment/moment.h"
#include "stream/window_bitmap_index.h"

namespace butterfly {
namespace {

/// A synthetic FEC support profile shaped like the BMS traces: supports
/// spaced 1–5 apart with small member counts. Deterministic per n so flat
/// and reference time identical inputs.
std::vector<FecProfile> MakeProfiles(size_t n) {
  std::vector<FecProfile> fecs;
  fecs.reserve(n);
  Rng rng(11);
  Support t = 25;
  for (size_t i = 0; i < n; ++i) {
    fecs.push_back(FecProfile{t, static_cast<size_t>(rng.UniformInt(1, 6)),
                              MaxAdjustableBias(t, 0.016, 5.0)});
    t += static_cast<Support>(rng.UniformInt(1, 5));
  }
  return fecs;
}

void BM_BiasDpFlat(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<FecProfile> fecs = MakeProfiles(n);
  OrderOptConfig opt;
  opt.gamma = static_cast<size_t>(state.range(1));
  BiasDpScratch scratch;  // reused across iterations, as the engine does
  for (auto _ : state) {
    std::vector<double> biases = OrderPreservingBiases(fecs, 7, opt, &scratch);
    benchmark::DoNotOptimize(biases);
  }
  state.counters["fecs/s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_BiasDpReference(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<FecProfile> fecs = MakeProfiles(n);
  OrderOptConfig opt;
  opt.gamma = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    std::vector<double> biases = OrderPreservingBiasesReference(fecs, 7, opt);
    benchmark::DoNotOptimize(biases);
  }
  state.counters["fecs/s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void DpArgs(benchmark::internal::Benchmark* b) {
  for (int n : {25, 100, 400}) {
    for (int gamma : {2, 4, 8}) b->Args({n, gamma});
  }
  b->ArgNames({"fecs", "gamma"});
}

BENCHMARK(BM_BiasDpFlat)->Apply(DpArgs);
BENCHMARK(BM_BiasDpReference)->Apply(DpArgs);

/// Profiles shaped like the end-to-end workloads' dense windows (ε = 0.1,
/// δ = 0.4, K = 5, so α = 7 and σ² = 5.25): supports from 8 into the
/// thousands with 1–200 members each, so all but the lowest FECs' grids hold
/// 21 points. MakeProfiles' ε = 0.016 at supports from 25 never reaches
/// grids that wide.
std::vector<FecProfile> MakeWideGridProfiles(size_t n) {
  std::vector<FecProfile> fecs;
  fecs.reserve(n);
  Rng rng(11);
  Support t = 8;
  for (size_t i = 0; i < n; ++i) {
    fecs.push_back(FecProfile{t, static_cast<size_t>(rng.UniformInt(1, 200)),
                              MaxAdjustableBias(t, 0.1, 5.25)});
    t += static_cast<Support>(rng.UniformInt(1, std::max<Support>(1, t / 8)));
  }
  return fecs;
}

void BM_BiasDpWideGrid(benchmark::State& state) {
  std::vector<FecProfile> fecs = MakeWideGridProfiles(120);
  OrderOptConfig opt;
  opt.gamma = static_cast<size_t>(state.range(0));
  BiasDpScratch scratch;
  for (auto _ : state) {
    std::vector<double> biases = OrderPreservingBiases(fecs, 7, opt, &scratch);
    benchmark::DoNotOptimize(biases);
  }
}

BENCHMARK(BM_BiasDpWideGrid)->Arg(1)->Arg(2)->Arg(3)->ArgName("gamma");

/// Algorithm 1 on the FECs of one mined window shaped like an end-to-end
/// workload's: Moment mines the first H records of the workload's stream
/// (data seed 7) at support C, and the FECs are profiled as
/// ButterflyEngine::Sanitize profiles them, at δ = 0.4 and K = 5 (α = 7).
/// The mining runs in setup, untimed.
void BM_BiasDpMinedWindow(benchmark::State& state, DatasetProfile profile,
                          size_t window, Support min_support, double epsilon) {
  Result<std::vector<Transaction>> data = GenerateProfile(profile, window, 7);
  if (!data.ok()) {
    state.SkipWithError(data.status().ToString().c_str());
    return;
  }
  MomentMiner miner(window, min_support,
                    profile == DatasetProfile::kWebScale1M
                        ? IndexRowStore::kHybrid
                        : IndexRowStore::kDense);
  for (const Transaction& t : *data) miner.Append(t);
  const NoiseModel noise(0.4, 5);
  std::vector<FecProfile> fecs;
  for (const Fec& fec : PartitionIntoFecs(miner.GetAllFrequent())) {
    fecs.push_back(FecProfile{
        fec.support, fec.member_count,
        MaxAdjustableBias(fec.support, epsilon, noise.variance())});
  }
  OrderOptConfig opt;
  BiasDpScratch scratch;
  for (auto _ : state) {
    std::vector<double> biases =
        OrderPreservingBiases(fecs, noise.alpha(), opt, &scratch);
    benchmark::DoNotOptimize(biases);
  }
  state.counters["fecs"] = static_cast<double>(fecs.size());
}

// solo-dense: BMS-WebView-1, H = 5000, C = 8, ε = 0.1; fleet-64:
// BMS-WebView-1, H = 500, C = 15, ε = 0.03; solo-webscale: WebScale1M on the
// hybrid index, H = 5000, C = 25, ε = 0.016.
BENCHMARK_CAPTURE(BM_BiasDpMinedWindow, solo_dense,
                  DatasetProfile::kBmsWebView1, 5000, 8, 0.1);
BENCHMARK_CAPTURE(BM_BiasDpMinedWindow, fleet_64,
                  DatasetProfile::kBmsWebView1, 500, 15, 0.03);
BENCHMARK_CAPTURE(BM_BiasDpMinedWindow, solo_webscale,
                  DatasetProfile::kWebScale1M, 5000, 25, 0.016);

/// The flat DP without scratch reuse — isolates what the preallocated
/// scratch saves (allocation/zeroing per release).
void BM_BiasDpFlatNoScratch(benchmark::State& state) {
  std::vector<FecProfile> fecs = MakeProfiles(100);
  OrderOptConfig opt;
  opt.gamma = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<double> biases = OrderPreservingBiases(fecs, 7, opt);
    benchmark::DoNotOptimize(biases);
  }
}

BENCHMARK(BM_BiasDpFlatNoScratch)->Arg(2)->Arg(4)->Arg(8)
    ->ArgName("gamma");

}  // namespace
}  // namespace butterfly

BENCHMARK_MAIN();
