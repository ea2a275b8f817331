/// \file micro_miners.cc
/// \brief google-benchmark microbenchmarks for the mining substrate: the
/// Eclat batch miner, the closed-itemset pipeline, and Moment's incremental
/// maintenance (per-append steady-state cost, the closed walk and the full
/// output walk against the ExpandClosed oracle), plus a
/// harness-measured bitmap-vs-map comparison of the two CET implementations
/// (the arena + WindowBitmapIndex MomentMiner against the std::map
/// reference MapCetMiner) printed before the registered benchmarks run.

#include <benchmark/benchmark.h>

#include "datagen/profiles.h"
#include "harness.h"
#include "mining/closed.h"
#include "mining/eclat.h"
#include "core/stream_engine.h"
#include "moment/map_cet_miner.h"
#include "moment/moment.h"

namespace butterfly {
namespace {

std::vector<Transaction> Window(size_t n) {
  static auto data = *GenerateProfile(DatasetProfile::kBmsWebView1, 8000, 7);
  return std::vector<Transaction>(data.begin(), data.begin() + n);
}

Support ScaledSupport(size_t window) {
  // Keep relative support constant (C = 25 at H = 2000).
  return static_cast<Support>(25 * window / 2000);
}

template <typename Miner>
void BM_BatchMiner(benchmark::State& state) {
  Miner miner;
  std::vector<Transaction> window = Window(state.range(0));
  Support c = ScaledSupport(window.size());
  size_t found = 0;
  for (auto _ : state) {
    MiningOutput out = miner.Mine(window, c);
    found = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["itemsets"] = static_cast<double>(found);
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(window.size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

BENCHMARK_TEMPLATE(BM_BatchMiner, EclatMiner)->Arg(500)->Arg(2000);
BENCHMARK_TEMPLATE(BM_BatchMiner, ClosedMiner)->Arg(500)->Arg(2000);

template <typename Miner>
void BM_StreamMinerAppend(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  auto data = *GenerateProfile(DatasetProfile::kBmsWebView1,
                               window + 200000, 7);
  Miner miner(window, ScaledSupport(window));
  size_t next = 0;
  // Fill to steady state outside the timed loop.
  for (; next < window; ++next) miner.Append(data[next]);
  for (auto _ : state) {
    if (next >= data.size()) {
      state.PauseTiming();
      next = window;  // recycle the stream tail
      state.ResumeTiming();
    }
    miner.Append(data[next++]);
  }
  state.counters["appends/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

/// MomentMiner over the hybrid (array/bitmap container) row store; the
/// two-argument ctor shape lets it ride the same benchmark template.
struct HybridMomentMiner : MomentMiner {
  HybridMomentMiner(size_t window, Support min_support)
      : MomentMiner(window, min_support, IndexRowStore::kHybrid) {}
};

BENCHMARK_TEMPLATE(BM_StreamMinerAppend, MomentMiner)->Arg(2000)->Arg(5000);
BENCHMARK_TEMPLATE(BM_StreamMinerAppend, HybridMomentMiner)
    ->Arg(2000)
    ->Arg(5000);
BENCHMARK_TEMPLATE(BM_StreamMinerAppend, MapCetMiner)->Arg(2000)->Arg(5000);

void BM_MomentOutputWalk(benchmark::State& state) {
  const size_t window = 2000;
  auto data = *GenerateProfile(DatasetProfile::kBmsWebView1, window + 100, 7);
  MomentMiner miner(window, 25);
  for (const Transaction& t : data) miner.Append(t);
  for (auto _ : state) {
    MiningOutput out = miner.GetClosedFrequent();
    benchmark::DoNotOptimize(out);
  }
}

BENCHMARK(BM_MomentOutputWalk);

void BM_MomentExpandClosed(benchmark::State& state) {
  const size_t window = 2000;
  auto data = *GenerateProfile(DatasetProfile::kBmsWebView1, window + 100, 7);
  MomentMiner miner(window, 25);
  for (const Transaction& t : data) miner.Append(t);
  MiningOutput closed = miner.GetClosedFrequent();
  for (auto _ : state) {
    MiningOutput all = ExpandClosed(closed);
    benchmark::DoNotOptimize(all);
  }
}

BENCHMARK(BM_MomentExpandClosed);

/// The same window's full output as a release gets it: one CET walk, against
/// the ExpandClosed oracle above.
void BM_MomentGetAllFrequent(benchmark::State& state) {
  const size_t window = 2000;
  auto data = *GenerateProfile(DatasetProfile::kBmsWebView1, window + 100, 7);
  MomentMiner miner(window, 25);
  for (const Transaction& t : data) miner.Append(t);
  for (auto _ : state) {
    MiningOutput all = miner.GetAllFrequent();
    benchmark::DoNotOptimize(all);
  }
}

BENCHMARK(BM_MomentGetAllFrequent);

/// End-to-end release cadence through the unified API: a reporting stride of
/// appends followed by one Release(). The per-stage attribution comes from
/// ReleaseResult::stats, so the counters split the same measurement the
/// figure-8 harness reports without a second instrumented pass.
void BM_EngineReleaseStride(benchmark::State& state) {
  const size_t window = 2000;
  const size_t stride = static_cast<size_t>(state.range(0));
  auto data = *GenerateProfile(DatasetProfile::kBmsWebView1,
                               window + 100 * stride, 7);
  ButterflyConfig config;
  config.min_support = ScaledSupport(window);
  config.vulnerable_support = 5;
  config.epsilon = 0.016;
  config.delta = 0.4;
  config.scheme = ButterflyScheme::kHybrid;
  StreamPrivacyEngine engine(window, config);
  size_t next = 0;
  for (; next < window; ++next) engine.Append(data[next]);  // fill
  StageSpans spans;
  for (auto _ : state) {
    if (next + stride > data.size()) next = window;  // recycle the tail
    for (size_t i = 0; i < stride; ++i) engine.Append(data[next++]);
    ReleaseResult r = engine.Release();
    spans += r.stats.spans;
    benchmark::DoNotOptimize(r.output);
  }
  const double n = static_cast<double>(state.iterations());
  for (size_t s = 0; s < kStageCount; ++s) {
    state.counters[std::string(kStageNames[s]) + "_ns/release"] =
        spans.ns[s] / n;
  }
  state.counters["releases/s"] =
      benchmark::Counter(n, benchmark::Counter::kIsRate);
}

BENCHMARK(BM_EngineReleaseStride)->Arg(100);

/// Head-to-head steady-state maintenance comparison of the two CET
/// implementations on the same stream, measured with the shared harness's
/// warmup + median-of-N discipline (whole-segment timing, so per-append
/// clock-read overhead does not distort the short arena appends).
void RunBitmapVsMapComparison() {
  using bench::MeasureMedianSeconds;
  using bench::RepeatPlan;

  const size_t window = 2000;
  const size_t appends = 20000;
  const Support c = ScaledSupport(window);
  auto data = *GenerateProfile(DatasetProfile::kBmsWebView1,
                               window + appends, 7);

  RepeatPlan plan{/*warmup=*/1, /*reps=*/5};
  auto per_append_ns = [&](auto make_miner) {
    double seconds = MeasureMedianSeconds(plan, [&] {
      auto miner = make_miner();
      for (size_t i = 0; i < window; ++i) miner.Append(data[i]);  // fill
      for (size_t i = window; i < data.size(); ++i) miner.Append(data[i]);
    });
    // The fill is inside the timed body (it cannot be split out without
    // timing per append); both miners pay it identically.
    return seconds * 1e9 / static_cast<double>(appends);
  };

  double map_ns =
      per_append_ns([&] { return MapCetMiner(window, c); });
  double arena_ns =
      per_append_ns([&] { return MomentMiner(window, c); });
  double hybrid_ns = per_append_ns(
      [&] { return MomentMiner(window, c, IndexRowStore::kHybrid); });

  bench::PrintTableHeader(
      "bitmap+arena (dense/hybrid rows) vs map CET, WebView1, H=" +
          std::to_string(window) + ", C=" + std::to_string(c) + ", " +
          std::to_string(appends) + " steady-state appends, median of " +
          std::to_string(plan.reps),
      {"miner", "ns/append", "speedup"});
  bench::PrintTableRow({"map", bench::FormatDouble(map_ns, 0), "1.00"});
  bench::PrintTableRow({"bitmap+arena", bench::FormatDouble(arena_ns, 0),
                        bench::FormatDouble(map_ns / arena_ns, 2)});
  bench::PrintTableRow({"hybrid rows", bench::FormatDouble(hybrid_ns, 0),
                        bench::FormatDouble(map_ns / hybrid_ns, 2)});
}

}  // namespace
}  // namespace butterfly

int main(int argc, char** argv) {
  butterfly::RunBitmapVsMapComparison();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
