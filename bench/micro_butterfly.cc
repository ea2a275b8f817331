/// \file micro_butterfly.cc
/// \brief google-benchmark microbenchmarks for the Butterfly core: per-scheme
/// sanitization, the order-preserving DP as FEC count grows, noise sampling,
/// and the adversary's breach enumeration.

#include <benchmark/benchmark.h>

#include "core/butterfly.h"
#include "core/noise.h"
#include "datagen/profiles.h"
#include "inference/breach_finder.h"
#include "moment/moment.h"

namespace butterfly {
namespace {

MiningOutput TraceWindow() {
  static MiningOutput cached = [] {
    auto data = *GenerateProfile(DatasetProfile::kBmsWebView1, 2100, 7);
    MomentMiner miner(2000, 25);
    for (const Transaction& t : data) miner.Append(t);
    return miner.GetAllFrequent();
  }();
  return cached;
}

ButterflyConfig SchemeConfig(ButterflyScheme scheme) {
  ButterflyConfig config;
  config.epsilon = 0.016;
  config.delta = 0.4;
  config.min_support = 25;
  config.vulnerable_support = 5;
  config.scheme = scheme;
  config.lambda = 0.4;
  config.republish_cache = false;  // measure the full perturbation path
  return config;
}

void BM_SanitizeScheme(benchmark::State& state) {
  ButterflyScheme scheme = static_cast<ButterflyScheme>(state.range(0));
  ButterflyEngine engine(SchemeConfig(scheme));
  MiningOutput raw = TraceWindow();
  for (auto _ : state) {
    SanitizedOutput release = engine.Sanitize(raw, 2000);
    benchmark::DoNotOptimize(release);
  }
  state.SetLabel(SchemeName(scheme));
  state.counters["itemsets"] = static_cast<double>(raw.size());
}

BENCHMARK(BM_SanitizeScheme)
    ->Arg(static_cast<int>(ButterflyScheme::kBasic))
    ->Arg(static_cast<int>(ButterflyScheme::kOrderPreserving))
    ->Arg(static_cast<int>(ButterflyScheme::kRatioPreserving))
    ->Arg(static_cast<int>(ButterflyScheme::kHybrid));

/// A dense synthetic window: `count` distinct 3-item itemsets spread over
/// FECs of ~8 members — the shape where per-itemset work dominates.
MiningOutput LargeSyntheticWindow(size_t count) {
  MiningOutput out(25);
  Support support = 25;
  for (size_t i = 0; i < count; ++i) {
    if (i % 8 == 0) support += 1 + static_cast<Support>(i % 3);
    Item base = static_cast<Item>(3 * i + 1);
    out.Add(Itemset::FromSorted({base, base + 1, base + 2}), support);
  }
  out.Seal();
  return out;
}

/// The sanitize hot path at 16k itemsets/window. Pass
/// --benchmark_out=FILE --benchmark_out_format=json for a machine-readable
/// trajectory alongside BENCH_overhead.json.
void BM_SanitizeLarge(benchmark::State& state) {
  ButterflyEngine engine(SchemeConfig(ButterflyScheme::kOrderPreserving));
  MiningOutput raw = LargeSyntheticWindow(16384);
  for (auto _ : state) {
    SanitizedOutput release = engine.Sanitize(raw, 100000);
    benchmark::DoNotOptimize(release);
  }
  state.counters["itemsets/s"] = benchmark::Counter(
      static_cast<double>(raw.size()) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

BENCHMARK(BM_SanitizeLarge)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The same window under the basic scheme (independent per-itemset draws).
void BM_SanitizeLargeBasic(benchmark::State& state) {
  ButterflyEngine engine(SchemeConfig(ButterflyScheme::kBasic));
  MiningOutput raw = LargeSyntheticWindow(16384);
  for (auto _ : state) {
    SanitizedOutput release = engine.Sanitize(raw, 100000);
    benchmark::DoNotOptimize(release);
  }
}

BENCHMARK(BM_SanitizeLargeBasic)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_OrderDpVsFecCount(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<FecProfile> fecs;
  Rng rng(5);
  Support t = 25;
  for (size_t i = 0; i < n; ++i) {
    fecs.push_back(FecProfile{t, static_cast<size_t>(rng.UniformInt(1, 5)),
                              MaxAdjustableBias(t, 0.016, 5.0)});
    t += static_cast<Support>(rng.UniformInt(1, 5));
  }
  OrderOptConfig opt;
  for (auto _ : state) {
    std::vector<double> biases = OrderPreservingBiases(fecs, 7, opt);
    benchmark::DoNotOptimize(biases);
  }
  state.counters["fecs/s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

BENCHMARK(BM_OrderDpVsFecCount)->Arg(25)->Arg(100)->Arg(400);

void BM_OrderDpVsGamma(benchmark::State& state) {
  std::vector<FecProfile> fecs;
  Rng rng(5);
  Support t = 25;
  for (size_t i = 0; i < 100; ++i) {
    fecs.push_back(FecProfile{t, 2, MaxAdjustableBias(t, 0.016, 5.0)});
    t += static_cast<Support>(rng.UniformInt(1, 5));
  }
  OrderOptConfig opt;
  opt.gamma = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<double> biases = OrderPreservingBiases(fecs, 7, opt);
    benchmark::DoNotOptimize(biases);
  }
}

BENCHMARK(BM_OrderDpVsGamma)->DenseRange(1, 6);

void BM_NoiseSample(benchmark::State& state) {
  NoiseModel noise(0.4, 5);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(noise.Sample(1.5, &rng));
  }
}

BENCHMARK(BM_NoiseSample);

void BM_FecPartition(benchmark::State& state) {
  MiningOutput raw = TraceWindow();
  for (auto _ : state) {
    std::vector<Fec> fecs = PartitionIntoFecs(raw);
    benchmark::DoNotOptimize(fecs);
  }
}

BENCHMARK(BM_FecPartition);

void BM_IntraWindowAttack(benchmark::State& state) {
  MiningOutput raw = TraceWindow();
  AttackConfig attack;
  attack.vulnerable_support = 5;
  attack.use_estimation = state.range(0) != 0;
  size_t breaches = 0;
  for (auto _ : state) {
    auto found = FindIntraWindowBreaches(raw, 2000, attack);
    breaches = found.size();
    benchmark::DoNotOptimize(found);
  }
  state.SetLabel(attack.use_estimation ? "with-estimation" : "derive-only");
  state.counters["breaches"] = static_cast<double>(breaches);
}

BENCHMARK(BM_IntraWindowAttack)->Arg(0)->Arg(1);

}  // namespace
}  // namespace butterfly

BENCHMARK_MAIN();
