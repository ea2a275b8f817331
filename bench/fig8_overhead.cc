/// \file fig8_overhead.cc
/// \brief Reproduces Fig. 8: the runtime overhead Butterfly adds to the
/// mining system, split into Mining alg / Basic (perturbation) / Opt (bias
/// optimization), versus the minimum support C, at window size H = 5000.
///
/// Expected shape (paper): the Butterfly parts are nearly unnoticeable next
/// to the mining cost; both grow as C shrinks, but the overhead grows much
/// more slowly (the number of FECs rises far slower than the number of
/// frequent itemsets).
///
/// Beyond the figure, this binary tracks the release-path perf trajectory:
///  * the `mine_ns` stage — Moment's incremental maintenance per reported
///    window, taken from StreamPrivacyEngine's per-stage accounting,
///  * the expansion to every frequent itemset per reported window (the
///    CET walk Release() consumes), on the figure's datasets and on
///    WebScale1M, and
///  * two sanitize rows over window traces, with the per-stage split: the
///    figure configuration and a dense one (lower C, about a thousand
///    itemsets per window). A release runs on one thread, so each is a
///    single threads=1 row;
///  * a `release/serial` row: appends and releases through the whole
///    engine, with all six stages and the time none of them covers
///    (`unattributed_ns`). The stages must cover at least 95% of its wall
///    time; otherwise the binary prints STAGE COVERAGE and exits 1.
/// Rows are measured with the harness's warmup + median-of-N discipline.
/// Results are written as machine-readable JSON only when --json=PATH names
/// a file (see BENCH_overhead.json), so future PRs can diff the trajectory.
/// --smoke runs a seconds-scale variant, registered in ctest.
///
/// Flags: --smoke --json=PATH
///        --baseline=PATH (fail if a guarded bench regresses >3x vs artifact)
///        --baseline_factor=F (override the 3x bound)

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/timing.h"
#include "core/stream_engine.h"
#include "harness.h"
#include "moment/map_cet_miner.h"

namespace butterfly::bench {
namespace {

struct RunShape {
  size_t window = 5000;
  size_t reports = 20;
  size_t stride = 25;
  std::vector<Support> supports{30, 25, 20, 15, 10};
  /// Second sanitize trace, about a thousand itemsets per window: the bias
  /// DP, noise and emit stages all show in its split.
  size_t dense_window = 5000;
  Support dense_support = 3;
  /// Slides between releases in the full-engine release bench, so each
  /// release period includes a real share of mining.
  size_t release_stride = 200;
  RepeatPlan plan{/*warmup=*/1, /*reps=*/7};
};

std::vector<BenchRecord> g_records;

struct OverheadRow {
  double mining_per_window = 0;
  double expand_scratch_per_window = 0;
  double basic_per_window = 0;
  double opt_per_window = 0;
  size_t frequent = 0;
  size_t fecs = 0;
  /// Window-index row-table accounting after the last release.
  IndexMemoryStats index;
};

/// One full stream pass: mines through a StreamPrivacyEngine (whose mine_ns
/// accounting attributes maintenance time per reported window) and times the
/// expansion and sanitize paths per report.
OverheadRow MeasureOnce(Support min_support, const RunShape& shape,
                        const std::vector<Transaction>& data,
                        IndexRowStore row_store) {
  SchemeVariant basic{"Basic", ButterflyScheme::kBasic, 0.0};
  SchemeVariant opt{"Opt", ButterflyScheme::kOrderPreserving, 1.0};
  TraceConfig trace_config;  // only C matters for MakeConfig here
  trace_config.min_support = min_support;
  ButterflyEngine basic_engine(
      MakeConfig(trace_config, basic, /*epsilon=*/0.016, /*delta=*/0.4));
  ButterflyConfig opt_config =
      MakeConfig(trace_config, opt, /*epsilon=*/0.016, /*delta=*/0.4);
  opt_config.hybrid_index = row_store == IndexRowStore::kHybrid;
  StreamPrivacyEngine engine(shape.window, opt_config);

  OverheadRow row;
  size_t fed = 0;
  size_t reported = 0;
  size_t mining_reports = 0;
  for (const Transaction& t : data) {
    engine.Append(t);
    ++fed;
    if (fed < shape.window) continue;
    if ((fed - shape.window) % shape.stride != 0 || reported >= shape.reports) {
      continue;
    }
    ++reported;

    // The output walk: RawOutput() walks the CET for every frequent itemset
    // and keeps the result, which Release() below consumes.
    Stopwatch watch;
    const MiningOutput& raw = engine.RawOutput();
    row.expand_scratch_per_window += watch.Seconds();

    row.frequent = raw.size();
    row.fecs = PartitionIntoFecs(raw).size();

    watch.Restart();
    SanitizedOutput basic_release =
        basic_engine.Sanitize(raw, static_cast<Support>(shape.window));
    row.basic_per_window += watch.Seconds();

    // The optimized path is the engine's own Release() (FEC partition +
    // sanitize of the expansion above); its stats also carry the mining
    // maintenance attributed to this window. The very first report sits
    // right after the one-time window fill (H appends of CET construction),
    // which is not the steady-state maintenance cost the figure tracks —
    // discard it.
    watch.Restart();
    ReleaseResult opt_release = engine.Release();
    row.opt_per_window += watch.Seconds();
    if (reported > 1) {
      row.mining_per_window += opt_release.stats.spans[Stage::kMine] / 1e9;
      ++mining_reports;
    }
    row.index = engine.miner().bitmap_index().MemoryStats();
    (void)basic_release;
  }
  double n = static_cast<double>(reported);
  row.mining_per_window /= static_cast<double>(std::max<size_t>(1, mining_reports));
  row.expand_scratch_per_window /= n;
  row.basic_per_window /= n;
  row.opt_per_window /= n;
  return row;
}

/// Warmup + median-of-reps over full stream passes, one row per row store
/// in \p stores. The stores' passes alternate, warmup included, so that host
/// drift hits each alike. The counts (frequent, FECs) are deterministic
/// across reps and taken from the last one.
std::vector<OverheadRow> Measure(DatasetProfile profile, Support min_support,
                                 const RunShape& shape,
                                 const std::vector<IndexRowStore>& stores) {
  auto data = GenerateProfile(profile,
                              shape.window + shape.reports * shape.stride, 7);
  if (!data.ok()) std::exit(1);

  std::vector<std::vector<OverheadRow>> reps(stores.size());
  for (int i = -shape.plan.warmup; i < shape.plan.reps; ++i) {
    for (size_t s = 0; s < stores.size(); ++s) {
      OverheadRow row = MeasureOnce(min_support, shape, *data, stores[s]);
      if (i >= 0) reps[s].push_back(std::move(row));  // not a warmup pass
    }
  }

  std::vector<OverheadRow> rows;
  for (const std::vector<OverheadRow>& store_reps : reps) {
    auto median_of = [&](double OverheadRow::*field) {
      std::vector<double> values;
      values.reserve(store_reps.size());
      for (const OverheadRow& r : store_reps) values.push_back(r.*field);
      return Median(std::move(values));
    };
    OverheadRow row = store_reps.back();
    row.mining_per_window = median_of(&OverheadRow::mining_per_window);
    row.expand_scratch_per_window =
        median_of(&OverheadRow::expand_scratch_per_window);
    row.basic_per_window = median_of(&OverheadRow::basic_per_window);
    row.opt_per_window = median_of(&OverheadRow::opt_per_window);
    rows.push_back(row);
  }
  return rows;
}

/// Steady-state maintenance cost of the pre-PR map-based CET on the same
/// stream: fill the window untimed, then accumulate per-append maintenance
/// time over the reported span — the same accounting StreamPrivacyEngine
/// applies to the bitmap+arena miner, so the two `mine/*` rows compare like
/// for like.
double MeasureMapMinerPerWindow(DatasetProfile profile, Support min_support,
                                const RunShape& shape) {
  auto data = GenerateProfile(profile,
                              shape.window + shape.reports * shape.stride, 7);
  if (!data.ok()) std::exit(1);
  auto run_once = [&] {
    MapCetMiner miner(shape.window, min_support);
    size_t fed = 0;
    double steady_seconds = 0;
    Stopwatch watch;
    for (const Transaction& t : *data) {
      const bool timed = ++fed > shape.window;
      if (timed) watch.Restart();
      miner.Append(t);
      if (timed) steady_seconds += watch.Seconds();
    }
    return steady_seconds;
  };
  for (int i = 0; i < shape.plan.warmup; ++i) run_once();
  std::vector<double> reps;
  for (int i = 0; i < shape.plan.reps; ++i) reps.push_back(run_once());
  return Median(std::move(reps)) / static_cast<double>(shape.reports);
}

void CopyIndexStats(const IndexMemoryStats& stats, BenchRecord* rec) {
  rec->index_bytes = stats.index_bytes;
  rec->index_dense_bytes = stats.dense_equivalent_bytes;
  rec->index_array_rows = stats.array_rows;
  rec->index_bitmap_rows = stats.bitmap_rows;
}

void RecordMinerRows(DatasetProfile profile, const RunShape& shape,
                     Support min_support, const OverheadRow& row,
                     const OverheadRow& hybrid_row) {
  {
    BenchRecord rec;
    rec.bench = "mine/moment";
    rec.dataset = ProfileName(profile);
    rec.threads = 1;
    rec.windows = shape.reports;
    rec.itemsets_per_window = row.frequent;
    rec.ns_per_window = row.mining_per_window * 1e9;
    rec.windows_per_sec =
        row.mining_per_window > 0 ? 1.0 / row.mining_per_window : 0;
    rec.spans[Stage::kMine] = rec.ns_per_window;
    CopyIndexStats(row.index, &rec);
    g_records.push_back(rec);
  }
  {
    // The same engine accounting over the same stream with the hybrid
    // (array/bitmap container) row store: mined output is bit-identical,
    // so the row isolates the container overhead at a BMS-scale alphabet —
    // the guard requires it within noise of the dense store here, while the
    // WebScale1M row below requires the hybrid to outright win.
    BenchRecord rec;
    rec.bench = "mine/hybrid";
    rec.dataset = ProfileName(profile);
    rec.threads = 1;
    rec.windows = shape.reports;
    rec.itemsets_per_window = hybrid_row.frequent;
    rec.ns_per_window = hybrid_row.mining_per_window * 1e9;
    rec.windows_per_sec =
        hybrid_row.mining_per_window > 0 ? 1.0 / hybrid_row.mining_per_window
                                         : 0;
    rec.spans[Stage::kMine] = rec.ns_per_window;
    CopyIndexStats(hybrid_row.index, &rec);
    g_records.push_back(rec);
    std::printf("mine_ns per reported window: dense rows %.0f ns, hybrid rows "
                "%.0f ns (%.2fx); hybrid index %zu bytes vs dense %zu "
                "(%.1f%%)\n",
                row.mining_per_window * 1e9, hybrid_row.mining_per_window * 1e9,
                row.mining_per_window > 0
                    ? hybrid_row.mining_per_window / row.mining_per_window
                    : 0,
                hybrid_row.index.index_bytes,
                hybrid_row.index.dense_equivalent_bytes,
                hybrid_row.index.dense_equivalent_bytes > 0
                    ? 100.0 *
                          static_cast<double>(hybrid_row.index.index_bytes) /
                          static_cast<double>(
                              hybrid_row.index.dense_equivalent_bytes)
                    : 0);
  }
  {
    const double map_per_window =
        MeasureMapMinerPerWindow(profile, min_support, shape);
    BenchRecord rec;
    rec.bench = "mine/map-cet";
    rec.dataset = ProfileName(profile);
    rec.threads = 1;
    rec.windows = shape.reports;
    rec.itemsets_per_window = row.frequent;
    rec.ns_per_window = map_per_window * 1e9;
    rec.windows_per_sec = map_per_window > 0 ? 1.0 / map_per_window : 0;
    rec.spans[Stage::kMine] = rec.ns_per_window;
    g_records.push_back(rec);
    std::printf("mine_ns per reported window: map CET %.0f ns, bitmap+arena "
                "%.0f ns (%.2fx)\n",
                map_per_window * 1e9, row.mining_per_window * 1e9,
                row.mining_per_window > 0
                    ? map_per_window / row.mining_per_window
                    : 0);
  }
  {
    const double seconds = row.expand_scratch_per_window;
    BenchRecord rec;
    rec.bench = "expand/scratch";
    rec.dataset = ProfileName(profile);
    rec.threads = 1;
    rec.windows = shape.reports;
    rec.itemsets_per_window = row.frequent;
    rec.ns_per_window = seconds * 1e9;
    rec.windows_per_sec = seconds > 0 ? 1.0 / seconds : 0;
    g_records.push_back(rec);
  }
}

void RunDataset(DatasetProfile profile, const RunShape& shape) {
  PrintTableHeader(
      "Fig 8: per-window running time (s), " + ProfileName(profile) + ", H=" +
          std::to_string(shape.window),
      {"C", "Mining alg", "Expand", "Basic", "Opt", "frequent", "FECs"});
  for (Support c : shape.supports) {
    const OverheadRow row =
        Measure(profile, c, shape, {IndexRowStore::kDense}).front();
    PrintTableRow({std::to_string(c), FormatDouble(row.mining_per_window, 5),
                   FormatDouble(row.expand_scratch_per_window, 5),
                   FormatDouble(row.basic_per_window, 5),
                   FormatDouble(row.opt_per_window, 5),
                   std::to_string(row.frequent), std::to_string(row.fecs)});
  }

  // The miner trajectory rows (mine/moment vs mine/map-cet, expand/scratch)
  // are recorded at the paper's figure window (H = dense_window = 5000) — the
  // configuration whose maintenance cost the tentpole optimizes — even in
  // smoke mode, where the figure table above runs a smaller window to stay
  // seconds-scale. The dense and hybrid stores are measured alike, in
  // alternating passes, because the BMS-scale floor compares them.
  RunShape miner_shape = shape;
  miner_shape.window = shape.dense_window;
  const std::vector<OverheadRow> rows =
      Measure(profile, shape.dense_support, miner_shape,
              {IndexRowStore::kDense, IndexRowStore::kHybrid});
  RecordMinerRows(profile, miner_shape, shape.dense_support, rows[0], rows[1]);
}

/// The workload the hybrid row store exists for: the WebScale1M profile's
/// million-item power-law alphabet at the paper's H = 5000 window. Times the
/// steady-state miner maintenance under both row stores and records the
/// index memory accounting; the memory ceiling (hybrid <= 10% of the
/// dense-row equivalent) is enforced unconditionally — it is deterministic —
/// while the speed win is a floor (see CheckHybridFloors). Both stores also
/// time the expansion (GetAllFrequent) at the same report points, outside
/// the maintenance clock: at this alphabet almost every item is infrequent,
/// and neither the maintenance nor the output walk may pay for them (the CET
/// stores and counts only frequent items). An expansion slows the appends
/// after it, so both arms expand alike, and their reps alternate so that
/// host drift hits both.
void RunWebScaleRow(const RunShape& shape) {
  const DatasetProfile profile = DatasetProfile::kWebScale1M;
  const size_t window = 5000;
  const Support min_support = 25;
  auto data = GenerateProfile(profile,
                              window + shape.reports * shape.stride, 7);
  if (!data.ok()) std::exit(1);

  struct StoreSample {
    IndexRowStore store = IndexRowStore::kDense;
    double per_window = 0;
    double expand_per_window = 0;
    size_t frequent = 0;  ///< itemsets at the last report point
    IndexMemoryStats stats;
    std::vector<double> mine_reps;
    std::vector<double> expand_reps;
  };
  auto run_once = [&](StoreSample* sample) {
    MomentMiner miner(window, min_support, sample->store);
    size_t fed = 0;
    size_t reported = 0;
    double steady_seconds = 0;
    double expand_seconds = 0;
    Stopwatch watch;
    for (const Transaction& t : *data) {
      const bool timed = ++fed > window;
      if (timed) watch.Restart();
      miner.Append(t);
      if (timed) steady_seconds += watch.Seconds();
      if (fed < window || (fed - window) % shape.stride != 0 ||
          reported >= shape.reports) {
        continue;
      }
      ++reported;
      watch.Restart();
      const MiningOutput all = miner.GetAllFrequent();
      expand_seconds += watch.Seconds();
      sample->frequent = all.size();
    }
    sample->stats = miner.bitmap_index().MemoryStats();
    return std::pair{steady_seconds, expand_seconds};
  };

  StoreSample dense;
  StoreSample hybrid;
  hybrid.store = IndexRowStore::kHybrid;
  for (int i = -shape.plan.warmup; i < shape.plan.reps; ++i) {
    for (StoreSample* sample : {&dense, &hybrid}) {
      const auto [mine_seconds, expand_seconds] = run_once(sample);
      if (i < 0) continue;  // warmup
      sample->mine_reps.push_back(mine_seconds);
      sample->expand_reps.push_back(expand_seconds);
    }
  }
  const double reports = static_cast<double>(shape.reports);
  for (StoreSample* sample : {&dense, &hybrid}) {
    sample->per_window = Median(std::move(sample->mine_reps)) / reports;
    sample->expand_per_window =
        Median(std::move(sample->expand_reps)) / reports;
  }

  PrintTableHeader(
      "Million-item alphabet, " + ProfileName(profile) + ", H=" +
          std::to_string(window) + ", C=" + std::to_string(min_support),
      {"store", "mine ns/window", "expand ns/window", "index bytes",
       "dense-equiv", "rows a/b"});
  auto histogram = [](const IndexMemoryStats& s) {
    return std::to_string(s.array_rows) + "/" + std::to_string(s.bitmap_rows);
  };
  PrintTableRow({"dense", FormatDouble(dense.per_window * 1e9, 0),
                 FormatDouble(dense.expand_per_window * 1e9, 0),
                 std::to_string(dense.stats.index_bytes),
                 std::to_string(dense.stats.dense_equivalent_bytes),
                 histogram(dense.stats)});
  PrintTableRow({"hybrid", FormatDouble(hybrid.per_window * 1e9, 0),
                 FormatDouble(hybrid.expand_per_window * 1e9, 0),
                 std::to_string(hybrid.stats.index_bytes),
                 std::to_string(hybrid.stats.dense_equivalent_bytes),
                 histogram(hybrid.stats)});

  for (const auto& [bench, sample] :
       {std::pair<std::string, const StoreSample*>{"mine/dense-1m", &dense},
        {"mine/hybrid", &hybrid}}) {
    BenchRecord rec;
    rec.bench = bench;
    rec.dataset = ProfileName(profile);
    rec.threads = 1;
    rec.windows = shape.reports;
    rec.ns_per_window = sample->per_window * 1e9;
    rec.windows_per_sec =
        sample->per_window > 0 ? 1.0 / sample->per_window : 0;
    rec.spans[Stage::kMine] = rec.ns_per_window;
    CopyIndexStats(sample->stats, &rec);
    g_records.push_back(rec);
  }
  {
    BenchRecord rec;
    rec.bench = "expand/scratch";
    rec.dataset = ProfileName(profile);
    rec.threads = 1;
    rec.windows = shape.reports;
    rec.itemsets_per_window = hybrid.frequent;
    rec.ns_per_window = hybrid.expand_per_window * 1e9;
    rec.windows_per_sec =
        hybrid.expand_per_window > 0 ? 1.0 / hybrid.expand_per_window : 0;
    g_records.push_back(rec);
  }

  // Memory ceiling: deterministic (a pure function of the dataset), so it is
  // a hard failure everywhere, not a floor that hardware can excuse.
  if (hybrid.stats.index_bytes * 10 > hybrid.stats.dense_equivalent_bytes) {
    std::fprintf(stderr,
                 "MEMORY CEILING %s: hybrid index %zu bytes > 10%% of the "
                 "dense-row equivalent %zu\n",
                 ProfileName(profile).c_str(), hybrid.stats.index_bytes,
                 hybrid.stats.dense_equivalent_bytes);
    std::exit(1);
  }
}

/// One timed loop: its wall time and the stage spans of the work in it.
struct ReplayTimes {
  double seconds = 0;
  StageSpans spans;
};

/// The rep with the median wall time (the upper middle one for an even
/// count), so a row's stage split and its wall time come from one run.
ReplayTimes MedianRep(std::vector<ReplayTimes> reps) {
  std::sort(reps.begin(), reps.end(),
            [](const ReplayTimes& a, const ReplayTimes& b) {
              return a.seconds < b.seconds;
            });
  return reps[reps.size() / 2];
}

/// Fills \p rec's per-window wall time and stage split from \p times,
/// measured over \p windows windows.
void RecordPerWindow(const ReplayTimes& times, size_t windows,
                     BenchRecord* rec) {
  const double n = static_cast<double>(windows);
  const double per_window = times.seconds / n;
  rec->windows = windows;
  rec->ns_per_window = per_window * 1e9;
  rec->windows_per_sec = per_window > 0 ? 1.0 / per_window : 0;
  rec->spans = times.spans;
  for (double& ns : rec->spans.ns) ns /= n;
}

/// Replays the trace through one engine configuration.
ReplayTimes TimeReplay(const WindowTrace& trace, ButterflyConfig config) {
  ButterflyEngine engine(config);
  Stopwatch watch;
  ReplayTimes times;
  for (const MiningOutput& raw : trace.raw) {
    watch.Restart();
    const SanitizedOutput release =
        engine.Sanitize(raw, static_cast<Support>(trace.config.window),
                        &times.spans);
    times.seconds += watch.Seconds();  // the release is freed untimed
  }
  return times;
}

/// One sanitize row: the trace replayed through fresh threads=1 engines,
/// the median rep after warmup, with the per-stage split.
void SanitizeRow(DatasetProfile profile, const RunShape& shape,
                 const std::string& bench_name, size_t window,
                 Support min_support) {
  TraceConfig trace_config;
  trace_config.profile = profile;
  trace_config.window = window;
  trace_config.min_support = min_support;
  trace_config.reports = shape.reports;
  trace_config.stride = shape.stride;
  WindowTrace trace = CollectTrace(trace_config);
  size_t itemsets = trace.raw.empty() ? 0 : trace.raw.back().size();

  SchemeVariant opt{"Opt", ButterflyScheme::kOrderPreserving, 1.0};
  ButterflyConfig config = MakeConfig(trace_config, opt, 0.016, 0.4);
  config.republish_cache = false;  // time the full perturbation path

  for (int i = 0; i < shape.plan.warmup; ++i) {
    TimeReplay(trace, config);  // untimed (caches, cpu clocks)
  }
  std::vector<ReplayTimes> samples;
  for (int rep = 0; rep < shape.plan.reps; ++rep) {
    samples.push_back(TimeReplay(trace, config));
  }

  BenchRecord rec;
  rec.bench = bench_name;
  rec.dataset = ProfileName(profile);
  rec.threads = 1;
  rec.itemsets_per_window = itemsets;
  RecordPerWindow(MedianRep(std::move(samples)), trace.raw.size(), &rec);
  g_records.push_back(rec);

  PrintTableHeader(
      "Sanitize (" + bench_name + "), " + ProfileName(profile) + ", H=" +
          std::to_string(window) + ", C=" +
          std::to_string(trace_config.min_support) + ", " +
          std::to_string(itemsets) + " itemsets/window",
      {"s/window", "windows/s", "bias DP ns", "noise ns", "emit ns"});
  PrintTableRow({FormatDouble(rec.ns_per_window / 1e9, 6),
                 FormatDouble(rec.windows_per_sec, 1),
                 FormatDouble(rec.spans[Stage::kBias], 0),
                 FormatDouble(rec.spans[Stage::kNoise], 0),
                 FormatDouble(rec.spans[Stage::kEmit], 0)});
}

/// Full-engine Release: miner + sanitizer over one stream. The window fill
/// and a first release run untimed; then each of `reports` timed iterations
/// appends one `release_stride` of records and releases. The timed region is
/// exactly the work whose spans the releases report, so the row shows how
/// much of a release's wall time its stages cover.
void ReleaseBench(DatasetProfile profile, const RunShape& shape) {
  const size_t window = shape.dense_window;
  const Support min_support = shape.dense_support;
  const size_t stride = shape.release_stride;
  auto data =
      GenerateProfile(profile, window + shape.reports * stride, 7);
  if (!data.ok()) std::exit(1);

  TraceConfig trace_config;
  trace_config.min_support = min_support;
  SchemeVariant opt{"Opt", ButterflyScheme::kOrderPreserving, 1.0};

  size_t itemsets = 0;
  auto run_once = [&] {
    ButterflyConfig config = MakeConfig(trace_config, opt, 0.016, 0.4);
    config.republish_cache = false;  // time the full perturbation path
    StreamPrivacyEngine engine(window, config);
    size_t next = 0;
    for (; next < window; ++next) engine.Append((*data)[next]);
    // Held until the clock stops, so freeing the releases stays untimed.
    std::vector<ReleaseResult> results;
    results.reserve(shape.reports + 1);
    results.push_back(engine.Release());  // its mine span is the fill
    ReplayTimes times;
    Stopwatch watch;
    for (size_t r = 0; r < shape.reports; ++r) {
      for (size_t i = 0; i < stride; ++i) engine.Append((*data)[next++]);
      results.push_back(engine.Release());
      times.spans += results.back().stats.spans;
    }
    times.seconds = watch.Seconds();
    itemsets = results.back().stats.frequent_itemsets;
    return times;
  };

  run_once();  // warmup
  std::vector<ReplayTimes> reps;
  for (int rep = 0; rep < shape.plan.reps; ++rep) reps.push_back(run_once());
  BenchRecord rec;
  rec.bench = "release/serial";
  rec.dataset = ProfileName(profile);
  rec.threads = 1;
  rec.itemsets_per_window = itemsets;
  RecordPerWindow(MedianRep(std::move(reps)), shape.reports, &rec);
  rec.unattributed_ns = rec.ns_per_window - rec.spans.Total();
  g_records.push_back(rec);

  std::vector<std::string> columns{"s/window", "windows/s"};
  std::vector<std::string> cells{FormatDouble(rec.ns_per_window / 1e9, 6),
                                 FormatDouble(rec.windows_per_sec, 1)};
  for (size_t s = 0; s < kStageCount; ++s) {
    columns.push_back(std::string(kStageNames[s]) + " ns");
    cells.push_back(FormatDouble(rec.spans.ns[s], 0));
  }
  columns.push_back("unattributed ns");
  cells.push_back(FormatDouble(rec.unattributed_ns, 0));
  PrintTableHeader("Release, " + ProfileName(profile) + ", H=" +
                       std::to_string(window) + ", C=" +
                       std::to_string(min_support) + ", stride " +
                       std::to_string(stride),
                   columns);
  PrintTableRow(cells);
}

/// The share of a `release/serial` row's wall time its stages must cover.
constexpr double kMinStageCoverage = 0.95;

/// Checks that the stages of a release add up to its wall time. The spans
/// and the wall time of a row come from the same run, so a sanitizer build,
/// which slows both, is held to the same floor as an optimized one.
bool CheckStageCoverage() {
  bool ok = true;
  for (const BenchRecord& r : g_records) {
    if (r.bench != "release/serial" || r.ns_per_window <= 0) continue;
    const double coverage = r.spans.Total() / r.ns_per_window;
    std::printf("stage coverage %s (%s): %.1f%%\n", r.bench.c_str(),
                r.dataset.c_str(), 100 * coverage);
    if (coverage < kMinStageCoverage) {
      std::fprintf(stderr,
                   "STAGE COVERAGE %s (%s): the stages cover %.1f%% of "
                   "%.0f ns/window, < %.0f%%\n",
                   r.bench.c_str(), r.dataset.c_str(), 100 * coverage,
                   r.ns_per_window, 100 * kMinStageCoverage);
      ok = false;
    }
  }
  return ok;
}

/// True for the benches the baseline regression guard covers.
bool GuardedBench(const std::string& bench) {
  return bench == "sanitize/opt" || bench == "sanitize/opt-dense" ||
         bench == "mine/moment" || bench == "mine/hybrid" ||
         bench == "mine/dense-1m" || bench == "expand/scratch" ||
         bench == "release/serial";
}

/// Hybrid-row-store floors: at BMS scale the container overhead must stay
/// within noise of the dense rows (<= 1.1x mine_ns), and at the WebScale1M
/// alphabet the hybrid must outright win. Wall-clock comparisons, so they
/// only hard-fail under BUTTERFLY_REQUIRE_FLOORS=1 (the dedicated bench
/// runner); elsewhere a miss prints loudly and passes.
bool CheckHybridFloors() {
  const BenchRecord* dense_1m = nullptr;
  bool ok = true;
  for (const BenchRecord& r : g_records) {
    if (r.bench == "mine/dense-1m") dense_1m = &r;
  }
  for (const BenchRecord& r : g_records) {
    if (r.bench != "mine/hybrid") continue;
    double base_ns = 0;
    double bound = 0;
    const char* label = nullptr;
    if (r.dataset == "WebScale1M") {
      if (dense_1m == nullptr) continue;
      base_ns = dense_1m->ns_per_window;
      bound = 1.0;  // the hybrid must win at the million-item alphabet
      label = "mine/hybrid vs dense @WebScale1M";
    } else {
      for (const BenchRecord& d : g_records) {
        if (d.bench == "mine/moment" && d.dataset == r.dataset) {
          base_ns = d.ns_per_window;
        }
      }
      bound = 1.1;  // within noise of the dense rows at BMS scale
      label = "mine/hybrid vs mine/moment";
    }
    if (base_ns <= 0) continue;
    const double ratio = r.ns_per_window / base_ns;
    if (ratio > bound) {
      std::fprintf(stderr, "FLOOR %s (%s): %.2fx > %.2fx allowed\n", label,
                   r.dataset.c_str(), ratio, bound);
      if (FloorsRequired()) ok = false;
    }
  }
  return ok;
}

/// Regression guard: compares the guarded rows just measured (the sanitize
/// rows and the miner maintenance) against a checked-in baseline artifact;
/// fails on a > `factor`× ns/window regression (a generous bound that catches
/// order-of-magnitude regressions — the bug class where a cache stops firing
/// or an index degenerates to a rescan — without tripping on machine noise).
bool CheckBaseline(const std::string& baseline_path, double factor) {
  std::vector<BenchRecord> baseline;
  if (!ReadBenchJson(baseline_path, &baseline)) {
    std::fprintf(stderr, "baseline %s missing or unreadable\n",
                 baseline_path.c_str());
    return false;
  }
  bool ok = true;
  bool compared = false;
  for (const BenchRecord& now : g_records) {
    if (!GuardedBench(now.bench)) continue;
    for (const BenchRecord& base : baseline) {
      if (base.bench != now.bench || base.dataset != now.dataset ||
          base.threads != now.threads) {
        continue;
      }
      compared = true;
      if (base.ns_per_window > 0 &&
          now.ns_per_window > factor * base.ns_per_window) {
        std::fprintf(stderr,
                     "REGRESSION %s @%zu threads (%s): %.0f ns/window vs "
                     "baseline %.0f (> %.1fx)\n",
                     now.bench.c_str(), now.threads, now.dataset.c_str(),
                     now.ns_per_window, base.ns_per_window, factor);
        ok = false;
      }
    }
  }
  if (!compared) {
    std::fprintf(stderr, "baseline %s has no comparable guarded rows\n",
                 baseline_path.c_str());
    return false;
  }
  return ok;
}

}  // namespace
}  // namespace butterfly::bench

int main(int argc, char** argv) {
  using namespace butterfly;
  using namespace butterfly::bench;

  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string json_path = flags.GetString("json", "");
  const std::string baseline_path = flags.GetString("baseline", "");
  const double baseline_factor = flags.GetDouble("baseline_factor", 3.0);
  if (!flags.ok()) {
    for (const std::string& e : flags.errors()) {
      std::fprintf(stderr, "%s\n", e.c_str());
    }
    return 2;
  }

  RunShape shape;
  std::vector<DatasetProfile> profiles{DatasetProfile::kBmsWebView1,
                                       DatasetProfile::kBmsPos};
  if (smoke) {
    shape.window = 800;
    shape.reports = 6;
    shape.stride = 10;
    shape.supports = {25, 15};
    shape.dense_window = 5000;
    shape.dense_support = 5;
    shape.plan = {/*warmup=*/1, /*reps=*/5};
    profiles = {DatasetProfile::kBmsWebView1};
  }

  std::printf("Butterfly reproduction: Fig. 8 (overhead of Butterfly in the "
              "mining system)\nH=%zu, %zu reported windows, stride %zu; "
              "'Mining alg' = incremental Moment maintenance per reported "
              "window (the mine_ns stage); 'Expand' = the CET walk to every "
              "frequent itemset; medians of %d repetitions after %d "
              "warmup\n",
              shape.window, shape.reports, shape.stride, shape.plan.reps,
              shape.plan.warmup);
  for (DatasetProfile profile : profiles) {
    RunDataset(profile, shape);
    SanitizeRow(profile, shape, "sanitize/opt", shape.window,
                shape.supports.back());
    SanitizeRow(profile, shape, "sanitize/opt-dense", shape.dense_window,
                shape.dense_support);
    ReleaseBench(profile, shape);
  }
  RunWebScaleRow(shape);

  if (!json_path.empty()) {
    StampHost(&g_records);
    if (!WriteBenchJson(json_path, g_records)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu records)\n", json_path.c_str(),
                g_records.size());
  }
  bool ok = CheckStageCoverage();
  if (!baseline_path.empty() &&
      !CheckBaseline(baseline_path, baseline_factor)) {
    ok = false;
  }
  if (!CheckHybridFloors()) ok = false;
  return ok ? 0 : 1;
}
