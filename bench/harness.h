/// \file harness.h
/// \brief Shared experiment harness for the figure-reproduction benchmarks.
///
/// Every figure evaluates per-window releases over a stream. The harness
/// collects a *window trace* — the raw frequent-itemset output of each
/// reported window — once per dataset, then replays it through differently
/// configured ButterflyEngines. This mirrors the paper's setup (all schemes
/// see the same mining output) and keeps the benchmarks fast.

#ifndef BUTTERFLY_BENCH_HARNESS_H_
#define BUTTERFLY_BENCH_HARNESS_H_

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/timing.h"
#include "core/butterfly.h"
#include "datagen/profiles.h"
#include "inference/breach_finder.h"

namespace butterfly::bench {

/// How a trace is collected.
struct TraceConfig {
  DatasetProfile profile = DatasetProfile::kBmsWebView1;
  size_t window = 2000;      ///< H
  Support min_support = 25;  ///< C
  size_t reports = 100;      ///< number of reported windows
  size_t stride = 1;         ///< slides between consecutive reports
  uint64_t data_seed = 7;
  /// Parallelism of the replay-side analysis (per-window breach scans and
  /// the per-report output expansion); mining itself is inherently serial.
  int64_t threads = 1;
};

/// The raw outputs of the reported windows (shared across schemes).
struct WindowTrace {
  TraceConfig config;
  std::vector<MiningOutput> raw;  ///< full frequent itemsets per report
};

/// Mines the stream with Moment and records each reported window's output.
WindowTrace CollectTrace(const TraceConfig& config);

/// Ground-truth hard vulnerable patterns per reported window (the intra-
/// window attack on the unprotected output).
std::vector<std::vector<InferredPattern>> CollectBreaches(
    const WindowTrace& trace, Support vulnerable_support);

/// The four scheme variants of the paper's evaluation, in figure order.
struct SchemeVariant {
  std::string label;
  ButterflyScheme scheme;
  double lambda;  // used by the hybrid only
};
std::vector<SchemeVariant> PaperVariants();

/// Builds a ButterflyConfig for one evaluation point.
ButterflyConfig MakeConfig(const TraceConfig& trace, const SchemeVariant& v,
                           double epsilon, double delta, size_t gamma = 2,
                           uint64_t seed = 0x42);

/// Warmup/repeat discipline for a timed measurement: `warmup` untimed runs
/// (caches, branch predictors, cpu clocks), then `reps` timed runs whose
/// median is reported. The median damps scheduler noise without the min's
/// bias toward lucky runs.
struct RepeatPlan {
  int warmup = 1;
  int reps = 5;
};

/// Median of \p values (0 when empty); averages the middle pair on even
/// sizes. Consumes the vector (it is sorted in place).
double Median(std::vector<double> values);

/// Runs \p body plan.warmup times untimed, then plan.reps times timed, and
/// returns the median seconds of the timed runs.
double MeasureMedianSeconds(const RepeatPlan& plan,
                            const std::function<void()>& body);

/// The same for several arms compared with each other: each round runs
/// every body once, in order, so that host drift hits them alike. Returns
/// one median per body.
std::vector<double> MeasureMedianSeconds(
    const RepeatPlan& plan, const std::vector<std::function<void()>>& bodies);

/// Aligned table printing helpers (one table per figure panel).
void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns);
void PrintTableRow(const std::vector<std::string>& cells);
std::string FormatDouble(double v, int precision = 4);

/// One measured point of a perf-trajectory benchmark (see BENCH_overhead.json):
/// a labeled path timed at a thread count over some windows.
struct BenchRecord {
  std::string bench;    ///< e.g. "sanitize/opt" or "release/incremental"
  std::string dataset;
  size_t threads = 1;
  size_t windows = 0;
  size_t itemsets_per_window = 0;
  double ns_per_window = 0;
  double windows_per_sec = 0;
  /// Thread-sweep rows: throughput relative to the 1-thread row of the same
  /// bench (1.0 at 1 thread; < 1 flags inverse scaling). 0 = not a sweep row.
  double speedup_vs_1t = 0;
  /// Fleet rows (see fleet_throughput): how many tenant engines the row ran
  /// (0 = not a fleet row) and the per-release latency distribution across
  /// every tenant's releases
  /// (negative = absent). For fleet rows ns_per_window / windows_per_sec
  /// are per *release* aggregate figures.
  size_t tenants = 0;
  double p50_ns = -1;
  double p99_ns = -1;
  /// Per-stage ns/window; a zero stage is not written.
  StageSpans spans;
  /// Release rows: ns_per_window minus spans.Total(), the time no stage
  /// covers (0 = not a release row).
  double unattributed_ns = 0;
  /// Window-index row-table memory at the last release (mine rows only;
  /// 0 = absent): live payload bytes, what the same rows would cost as dense
  /// bitmaps, and the live-row histogram by container representation. For a
  /// dense-store row index_bytes == index_dense_bytes and the histogram is
  /// all bitmap rows.
  size_t index_bytes = 0;
  size_t index_dense_bytes = 0;
  size_t index_array_rows = 0;
  size_t index_bitmap_rows = 0;
  /// Nonzero when the measurement looks wrong (e.g. inverse thread scaling);
  /// makes BENCH artifacts flag the bug class instead of hiding it.
  std::string note;
};

/// Writes the records as a JSON array (machine-readable perf trajectory so
/// future PRs can diff against it). Returns false on I/O failure.
bool WriteBenchJson(const std::string& path,
                    const std::vector<BenchRecord>& records);

/// Reads back a WriteBenchJson artifact (the fields this harness writes; not
/// a general JSON parser). Returns false when the file is missing or
/// malformed. Used by the regression guard against the checked-in baseline.
bool ReadBenchJson(const std::string& path, std::vector<BenchRecord>* records);

/// True when BUTTERFLY_REQUIRE_FLOORS=1: the CI bench runner sets it so a
/// floor that would skip (machine too small to express the speedup) fails
/// loudly instead — an undersized runner looks exactly like a perf
/// regression that nobody measures.
bool FloorsRequired();

/// The explicit skip path of a hardware-gated floor: prints a grep-able
/// FLOORS-SKIPPED line to stderr and, under GitHub Actions, a ::notice
/// annotation — a silently skipped floor is indistinguishable from an
/// enforced one in a green log, and that is how perf gates rot.
void AnnotateFloorsSkipped(const std::string& bench, const std::string& reason);

}  // namespace butterfly::bench

#endif  // BUTTERFLY_BENCH_HARNESS_H_
