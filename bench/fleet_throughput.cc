/// \file fleet_throughput.cc
/// \brief Multi-tenant service throughput: a tenants × threads grid over the
/// EngineFleet scheduler.
///
/// The single-engine benchmarks (fig8_overhead) scale threads with window
/// size; this one scales them with tenant count — the service shape, where
/// each window is small but there are many of them. Every cell replays the
/// same per-tenant streams through a fleet: records are ingested through the
/// double-buffered queues one stride at a time and Pump() drains them, so the
/// measured loop covers the whole service path (enqueue, then a pump that
/// mines and releases each tenant end to end, tenants in parallel).
///
/// Two properties are enforced, not just measured:
///  * Byte identity (hard, every cell): each tenant's fleet release log must
///    equal a solo serial run of that tenant's derived engine — the fleet
///    determinism contract. Divergence exits nonzero at any thread count.
///  * Scaling floor (hardware-gated): at the 64-tenant BMS-scale grid row,
///    aggregate releases/sec at 8 threads must be >= 3x the 1-thread fleet.
///    It needs a host with at least 8 hardware threads: below that the
///    8-thread cell is oversubscribed, and a 4-vCPU host's ceiling is about
///    3.0x. A smaller host skips it with an explicit FLOORS-SKIPPED
///    annotation unless BUTTERFLY_REQUIRE_FLOORS=1 makes that an error.
///
/// Grid rows include the kWebScale1M profile with the hybrid window index —
/// the million-item alphabet where dense per-tenant row stores would not fit
/// at fleet scale.
///
/// Each row also prints the pump participants' idle share and cpu/wall, the
/// process's CPU time (user + sys) over the wall time of its timed pumps. On
/// a host that runs every thread, cpu/wall is about threads × (1 − idle
/// share); well below that, the host did not run threads the pool counted
/// as busy.
///
/// Flags: --smoke --json=PATH (written only when given; see
///        BENCH_throughput.json)
///        --baseline=PATH (fail if a fleet row regresses >3x vs artifact)
///        --baseline_factor=F (override the 3x bound)

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "common/timing.h"
#include "core/release_log.h"
#include "core/stream_engine.h"
#include "harness.h"
#include "service/engine_fleet.h"

namespace butterfly::bench {
namespace {

std::vector<BenchRecord> g_records;

/// Thread count of the scaling floor's parallel cell; the floor runs only on
/// hosts with at least this many hardware threads.
constexpr unsigned kFloorThreads = 8;

/// One grid family: a dataset profile with its per-tenant stream shape and
/// the tenant/thread axes swept over it.
struct GridShape {
  DatasetProfile profile = DatasetProfile::kBmsWebView1;
  size_t window = 500;
  size_t stride = 50;
  size_t releases_per_tenant = 8;
  bool hybrid_index = false;
  Support min_support = 15;
  double epsilon = 0.03;  ///< keeps ppr feasible at the row's C (K = 5)
  std::vector<size_t> tenants;
  std::vector<int64_t> threads;
};

FleetConfig MakeFleetConfig(const GridShape& shape, size_t tenants,
                            int64_t threads) {
  FleetConfig config;
  config.tenants = tenants;
  config.threads = threads;
  config.window = shape.window;
  config.stride = shape.stride;
  config.engine.epsilon = shape.epsilon;
  config.engine.delta = 0.4;
  config.engine.min_support = shape.min_support;
  config.engine.vulnerable_support = 5;
  config.engine.scheme = ButterflyScheme::kHybrid;
  config.engine.lambda = 0.4;
  config.engine.hybrid_index = shape.hybrid_index;
  config.engine.seed = 0x42u;
  return config;
}

/// Per-tenant input streams: each tenant mines its own stream (distinct data
/// seed), sized to yield exactly releases_per_tenant releases.
std::vector<std::vector<Transaction>> TenantStreams(const GridShape& shape,
                                                    size_t tenants) {
  const size_t records = shape.window + shape.releases_per_tenant * shape.stride;
  std::vector<std::vector<Transaction>> streams;
  streams.reserve(tenants);
  for (size_t t = 0; t < tenants; ++t) {
    auto data = GenerateProfile(shape.profile, records, /*seed=*/7 + 1000 * t);
    if (!data.ok()) {
      std::fprintf(stderr, "data generation failed: %s\n",
                   data.status().ToString().c_str());
      std::exit(1);
    }
    streams.push_back(std::move(*data));
  }
  return streams;
}

/// The solo side of the byte-identity contract: tenant `tenant`'s derived
/// engine run alone, serially, releasing at exactly window + k * stride.
std::string SoloReferenceLog(const FleetConfig& config, uint64_t tenant,
                             const std::vector<Transaction>& stream) {
  StreamPrivacyEngine engine(config.window, TenantEngineConfig(config, tenant));
  std::ostringstream log;
  uint64_t next_release = config.window;
  uint64_t pos = 0;
  for (const Transaction& t : stream) {
    engine.Append(t);
    if (++pos == next_release) {
      ReleaseResult result = engine.Release();
      Status written = WriteRelease(
          &log, EngineFleet::ReleaseLabel(tenant, pos), result.output);
      if (!written.ok()) {
        std::fprintf(stderr, "solo release serialization failed: %s\n",
                     written.ToString().c_str());
        std::exit(1);
      }
      next_release += config.stride;
    }
  }
  return log.str();
}

struct CellResult {
  double seconds = 0;
  FleetStats stats;
  double pump_cpu_s = 0;   ///< process user + sys time inside Pump()
  double pump_wall_s = 0;  ///< wall time inside Pump()
};

/// The process's user + sys CPU time so far, all threads, in seconds.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// One Pump() call, adding its CPU and wall time to *cell.
void TimedPump(EngineFleet* fleet, CellResult* cell) {
  const double cpu = ProcessCpuSeconds();
  Stopwatch watch;
  fleet->Pump();
  cell->pump_wall_s += watch.Seconds();
  cell->pump_cpu_s += ProcessCpuSeconds() - cpu;
}

/// Replays the streams through a fresh fleet: one stride of records per
/// tenant between Pump() calls, so queues carry real batches and releases
/// come due in every pump. Verifies the fleet logs against the solo
/// references before returning.
CellResult RunCell(const FleetConfig& config,
                   const std::vector<std::vector<Transaction>>& streams,
                   const std::vector<std::string>& references) {
  Result<EngineFleet> fleet = EngineFleet::Create(config);
  if (!fleet.ok()) {
    std::fprintf(stderr, "fleet creation failed: %s\n",
                 fleet.status().ToString().c_str());
    std::exit(1);
  }
  const size_t records = streams[0].size();
  CellResult cell;
  Stopwatch watch;
  for (size_t pos = 0; pos < records; ++pos) {
    for (size_t t = 0; t < config.tenants; ++t) {
      if (Status s = fleet->Ingest(t, streams[t][pos]); !s.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
    if ((pos + 1) % config.stride == 0) TimedPump(&*fleet, &cell);
  }
  TimedPump(&*fleet, &cell);
  cell.seconds = watch.Seconds();
  for (size_t t = 0; t < config.tenants; ++t) {
    if (fleet->ReleaseLog(t) != references[t]) {
      std::fprintf(stderr,
                   "DETERMINISM BREACH: tenant %zu fleet log != solo log "
                   "(tenants=%zu threads=%lld)\n",
                   t, config.tenants,
                   static_cast<long long>(config.threads));
      std::exit(1);
    }
  }
  cell.stats = fleet->Stats();
  return cell;
}

void RunGrid(const GridShape& shape, const RepeatPlan& plan) {
  const size_t max_tenants =
      *std::max_element(shape.tenants.begin(), shape.tenants.end());
  const std::vector<std::vector<Transaction>> streams =
      TenantStreams(shape, max_tenants);

  // Solo references are cell-independent (the derived config depends only on
  // the engine template and tenant id), so one pass covers the whole grid.
  const FleetConfig reference_config =
      MakeFleetConfig(shape, max_tenants, /*threads=*/1);
  std::vector<std::string> references(max_tenants);
  for (size_t t = 0; t < max_tenants; ++t) {
    references[t] = SoloReferenceLog(reference_config, t, streams[t]);
  }

  PrintTableHeader(
      "Fleet throughput, " + ProfileName(shape.profile) + ", H=" +
          std::to_string(shape.window) + ", C=" +
          std::to_string(shape.min_support) +
          (shape.hybrid_index ? ", hybrid index" : "") +
          "; p50/p99 from log buckets, within " +
          FormatDouble(LatencyHistogram::kRelativeError * 100, 1) + "%",
      {"tenants", "threads", "releases/s", "p50 ms", "p99 ms",
       "pump idle %", "cpu/wall", "speedup", "identical"});

  for (size_t tenants : shape.tenants) {
    double base_rps = 0;
    for (int64_t threads : shape.threads) {
      const FleetConfig config = MakeFleetConfig(shape, tenants, threads);
      std::vector<double> seconds;
      CellResult last;
      for (int rep = 0; rep < plan.warmup + plan.reps; ++rep) {
        last = RunCell(config, streams, references);
        if (rep >= plan.warmup) seconds.push_back(last.seconds);
      }
      const double secs = Median(std::move(seconds));
      const double releases = static_cast<double>(last.stats.releases);
      const double rps = secs > 0 ? releases / secs : 0;
      if (threads == shape.threads.front()) base_rps = rps;

      BenchRecord rec;
      rec.bench = "fleet/throughput";
      rec.dataset = ProfileName(shape.profile);
      rec.threads = static_cast<size_t>(ResolveThreadCount(threads));
      rec.tenants = tenants;
      rec.windows = last.stats.releases;
      rec.ns_per_window = releases > 0 ? secs * 1e9 / releases : 0;
      rec.windows_per_sec = rps;
      rec.speedup_vs_1t = base_rps > 0 ? rps / base_rps : 0;
      rec.p50_ns = last.stats.release_p50_ns;
      rec.p99_ns = last.stats.release_p99_ns;
      rec.cpu_per_wall =
          last.pump_wall_s > 0 ? last.pump_cpu_s / last.pump_wall_s : 0;
      g_records.push_back(rec);

      // The pump participants' idle share: capacity (threads x pump wall
      // time) not spent draining a tenant.
      const double capacity_ns =
          static_cast<double>(last.stats.threads) * last.stats.pump_wall_ns;
      const double idle_pct =
          capacity_ns > 0
              ? 100 * (capacity_ns - last.stats.pump_busy_ns) / capacity_ns
              : 0;
      PrintTableRow({std::to_string(tenants), std::to_string(threads),
                     FormatDouble(rps, 1),
                     FormatDouble(last.stats.release_p50_ns / 1e6, 3),
                     FormatDouble(last.stats.release_p99_ns / 1e6, 3),
                     FormatDouble(idle_pct, 1),
                     FormatDouble(rec.cpu_per_wall, 2),
                     FormatDouble(rec.speedup_vs_1t, 2), "yes"});
    }
  }
}

/// The scaling floor: at the 64-tenant BMS-scale row, the kFloorThreads
/// fleet must clear 3x the 1-thread fleet's aggregate releases/sec.
/// Hardware-gated: on fewer than kFloorThreads hardware threads that cell is
/// oversubscribed (at most 4x on 4 vCPUs, and about 3.0x once unequal vCPUs
/// and the serial ingest are counted), so such a host skips with an explicit
/// annotation (or fails under BUTTERFLY_REQUIRE_FLOORS=1).
bool CheckFleetFloors() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < kFloorThreads) {
    if (FloorsRequired()) {
      std::fprintf(stderr,
                   "FLOOR hardware: %u hardware thread(s) < %u but "
                   "BUTTERFLY_REQUIRE_FLOORS=1 — run on a machine with >= %u "
                   "hardware threads\n",
                   hw, kFloorThreads, kFloorThreads);
      return false;
    }
    AnnotateFloorsSkipped("fleet_throughput",
                          std::to_string(hw) + " hardware thread(s) < " +
                              std::to_string(kFloorThreads));
    return true;
  }
  const BenchRecord* one = nullptr;
  const BenchRecord* parallel = nullptr;
  for (const BenchRecord& r : g_records) {
    if (r.bench != "fleet/throughput" || r.tenants != 64) continue;
    if (r.dataset == ProfileName(DatasetProfile::kWebScale1M)) continue;
    if (r.threads == 1) one = &r;
    if (r.threads == kFloorThreads) parallel = &r;
  }
  if (one == nullptr || parallel == nullptr) {
    std::fprintf(stderr, "FLOOR fleet: 64-tenant 1T/%uT rows missing\n",
                 kFloorThreads);
    return false;
  }
  const double speedup = one->windows_per_sec > 0
                             ? parallel->windows_per_sec / one->windows_per_sec
                             : 0;
  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "FLOOR fleet/throughput @64 tenants: %uT/1T releases/sec "
                 "%.2f < 3.0\n",
                 kFloorThreads, speedup);
    return false;
  }
  std::printf("fleet floor ok: 64-tenant %uT/1T releases/sec = %.2fx\n",
              kFloorThreads, speedup);
  return true;
}

/// Regression guard against the checked-in BENCH_throughput.json: a fleet
/// row is keyed by (dataset, tenants, threads); > factor x aggregate
/// ns/release fails. Same generous bound philosophy as fig8's guard.
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
    if (now.bench != "fleet/throughput") continue;
    for (const BenchRecord& base : baseline) {
      if (base.bench != now.bench || base.dataset != now.dataset ||
          base.tenants != now.tenants || base.threads != now.threads) {
        continue;
      }
      compared = true;
      if (base.ns_per_window > 0 &&
          now.ns_per_window > factor * base.ns_per_window) {
        std::fprintf(stderr,
                     "REGRESSION fleet/throughput @%zu tenants %zu threads "
                     "(%s): %.0f ns/release vs baseline %.0f (> %.1fx)\n",
                     now.tenants, now.threads, now.dataset.c_str(),
                     now.ns_per_window, base.ns_per_window, factor);
        ok = false;
      }
    }
  }
  if (!compared) {
    std::fprintf(stderr, "baseline %s has no comparable fleet rows\n",
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

  RepeatPlan plan;
  GridShape bms;
  bms.profile = DatasetProfile::kBmsWebView1;
  GridShape web;
  web.profile = DatasetProfile::kWebScale1M;
  web.hybrid_index = true;
  web.min_support = 25;
  web.epsilon = 0.016;
  if (smoke) {
    plan.warmup = 1;
    plan.reps = 2;
    bms.window = 300;
    bms.stride = 30;
    bms.releases_per_tenant = 4;
    // The floor row (64 tenants, 1T vs kFloorThreads) must survive smoke:
    // the CI fleet-floor job runs --smoke under BUTTERFLY_REQUIRE_FLOORS=1
    // on a runner with at least kFloorThreads vCPUs.
    bms.tenants = {8, 64};
    bms.threads = {1, kFloorThreads};
    web.window = 300;
    web.stride = 60;
    web.releases_per_tenant = 2;
    web.tenants = {4};
    web.threads = {1, 8};
  } else {
    plan.warmup = 1;
    plan.reps = 3;
    bms.tenants = {4, 16, 64};
    bms.threads = {1, 2, 4, 8};
    web.releases_per_tenant = 4;
    web.tenants = {8};
    web.threads = {1, 8};
  }

  RunGrid(bms, plan);
  RunGrid(web, plan);

  bool ok = CheckFleetFloors();
  if (!baseline_path.empty() && !CheckBaseline(baseline_path, baseline_factor)) {
    ok = false;
  }
  if (!json_path.empty()) {
    StampHost(&g_records);
    if (!WriteBenchJson(json_path, g_records)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu records)\n", json_path.c_str(),
                g_records.size());
  }
  std::printf(ok ? "\nall fleet guards passed\n"
                 : "\nFLEET GUARD FAILURES (see stderr)\n");
  return ok ? 0 : 1;
}
