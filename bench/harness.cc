#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/thread_pool.h"
#include "common/timing.h"
#include "core/stream_engine.h"

namespace butterfly::bench {

WindowTrace CollectTrace(const TraceConfig& config) {
  size_t total_records = config.window + config.reports * config.stride;
  auto data = GenerateProfile(config.profile, total_records, config.data_seed);
  if (!data.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n",
                 data.status().ToString().c_str());
    std::exit(1);
  }

  MomentMiner miner(config.window, config.min_support);
  WindowTrace trace;
  trace.config = config;
  trace.raw.reserve(config.reports);
  size_t fed = 0;
  for (const Transaction& t : *data) {
    miner.Append(t);
    ++fed;
    if (fed < config.window) continue;
    size_t past_fill = fed - config.window;
    if (past_fill % config.stride == 0 && trace.raw.size() < config.reports) {
      trace.raw.push_back(miner.GetAllFrequent());
    }
  }
  return trace;
}

std::vector<std::vector<InferredPattern>> CollectBreaches(
    const WindowTrace& trace, Support vulnerable_support) {
  AttackConfig attack;
  attack.vulnerable_support = vulnerable_support;
  attack.max_itemset_size = 10;
  // Reported windows are attacked independently — fan them out across the
  // trace's thread budget and keep each window's inner derivation serial
  // (nested ParallelFor would run inline anyway).
  std::vector<std::vector<InferredPattern>> breaches(trace.raw.size());
  ParallelFor(ResolveThreadCount(trace.config.threads), trace.raw.size(),
              /*grain=*/1, [&](size_t begin, size_t end) {
                for (size_t w = begin; w < end; ++w) {
                  breaches[w] = FindIntraWindowBreaches(
                      trace.raw[w], static_cast<Support>(trace.config.window),
                      attack);
                }
              });
  return breaches;
}

std::vector<SchemeVariant> PaperVariants() {
  return {
      {"Basic", ButterflyScheme::kBasic, 0.0},
      {"Opt l=1", ButterflyScheme::kOrderPreserving, 1.0},
      {"Opt l=0.4", ButterflyScheme::kHybrid, 0.4},
      {"Opt l=0", ButterflyScheme::kRatioPreserving, 0.0},
  };
}

ButterflyConfig MakeConfig(const TraceConfig& trace, const SchemeVariant& v,
                           double epsilon, double delta, size_t gamma,
                           uint64_t seed) {
  ButterflyConfig config;
  config.epsilon = epsilon;
  config.delta = delta;
  config.min_support = trace.min_support;
  config.vulnerable_support = 5;
  config.scheme = v.scheme;
  config.lambda = v.lambda;
  config.order_opt.gamma = gamma;
  config.seed = seed;
  return config;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

double MeasureMedianSeconds(const RepeatPlan& plan,
                            const std::function<void()>& body) {
  return MeasureMedianSeconds(plan, std::vector<std::function<void()>>{body})
      .front();
}

std::vector<double> MeasureMedianSeconds(
    const RepeatPlan& plan, const std::vector<std::function<void()>>& bodies) {
  std::vector<std::vector<double>> seconds(bodies.size());
  for (int i = -plan.warmup; i < plan.reps; ++i) {
    for (size_t b = 0; b < bodies.size(); ++b) {
      Stopwatch watch;
      bodies[b]();
      if (i >= 0) seconds[b].push_back(watch.Seconds());  // not a warmup
    }
  }
  std::vector<double> medians;
  medians.reserve(bodies.size());
  for (std::vector<double>& s : seconds) medians.push_back(Median(std::move(s)));
  return medians;
}

void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (const std::string& c : columns) std::printf("%-20s ", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("%-20s ", "-------------------");
  std::printf("\n");
}

void PrintTableRow(const std::vector<std::string>& cells) {
  for (const std::string& c : cells) std::printf("%-20s ", c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

// The same host fields and detection as HostJson in bench/e2e/bfly_bench.cc,
// duplicated on purpose: bench/e2e builds on its own, without this harness,
// and its files change only together with the end-to-end benchmark. Moving
// both onto one helper belongs to such a change.
void StampHost(std::vector<BenchRecord>* records) {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  for (BenchRecord& r : *records) {
    r.hardware_threads = hw;
    r.compiler = compiler;
    r.build_type = BFLY_BENCH_BUILD_TYPE;
    r.oversubscribed = r.threads > hw;
  }
}

bool WriteBenchJson(const std::string& path,
                    const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "  {\"bench\": \"%s\", \"dataset\": \"%s\", "
                 "\"threads\": %zu, \"windows\": %zu, "
                 "\"itemsets_per_window\": %zu, \"ns_per_window\": %.1f, "
                 "\"windows_per_sec\": %.2f",
                 r.bench.c_str(), r.dataset.c_str(), r.threads, r.windows,
                 r.itemsets_per_window, r.ns_per_window, r.windows_per_sec);
    if (r.speedup_vs_1t > 0) {
      std::fprintf(f, ", \"speedup_vs_1t\": %.3f", r.speedup_vs_1t);
    }
    if (r.tenants > 0) {
      std::fprintf(f, ", \"tenants\": %zu", r.tenants);
    }
    if (r.p50_ns >= 0) {
      std::fprintf(f, ", \"p50_ns\": %.1f, \"p99_ns\": %.1f", r.p50_ns,
                   r.p99_ns);
    }
    if (r.cpu_per_wall > 0) {
      std::fprintf(f, ", \"cpu_per_wall\": %.3f", r.cpu_per_wall);
    }
    for (size_t s = 0; s < kStageCount; ++s) {
      if (r.spans.ns[s] == 0) continue;
      std::fprintf(f, ", \"%.*s_ns\": %.1f",
                   static_cast<int>(kStageNames[s].size()),
                   kStageNames[s].data(), r.spans.ns[s]);
    }
    if (r.unattributed_ns > 0) {
      std::fprintf(f, ", \"unattributed_ns\": %.1f", r.unattributed_ns);
    }
    if (r.index_bytes > 0) {
      std::fprintf(f,
                   ", \"index_bytes\": %zu, \"index_dense_bytes\": %zu, "
                   "\"index_array_rows\": %zu, \"index_bitmap_rows\": %zu",
                   r.index_bytes, r.index_dense_bytes, r.index_array_rows,
                   r.index_bitmap_rows);
    }
    if (!r.note.empty()) {
      std::fprintf(f, ", \"note\": \"%s\"", r.note.c_str());
    }
    if (r.hardware_threads > 0) {
      std::fprintf(f,
                   ", \"hardware_threads\": %zu, \"compiler\": \"%s\", "
                   "\"build_type\": \"%s\", \"oversubscribed\": %s",
                   r.hardware_threads, r.compiler.c_str(),
                   r.build_type.c_str(), r.oversubscribed ? "true" : "false");
    }
    std::fprintf(f, "}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

namespace {

/// Pulls `"key": <value>` out of one record line of our own JSON format.
/// Quoted values lose their quotes; missing keys return false.
bool ExtractField(const std::string& line, const std::string& key,
                  std::string* value) {
  const std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size()) return false;
  size_t end;
  if (line[pos] == '"') {
    ++pos;
    end = line.find('"', pos);
    if (end == std::string::npos) return false;
  } else {
    end = line.find_first_of(",}", pos);
    if (end == std::string::npos) return false;
  }
  *value = line.substr(pos, end - pos);
  return true;
}

}  // namespace

bool ReadBenchJson(const std::string& path,
                   std::vector<BenchRecord>* records) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  records->clear();
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    std::string line(buf);
    BenchRecord r;
    std::string value;
    if (!ExtractField(line, "bench", &r.bench)) continue;  // not a record line
    r.dataset = ExtractField(line, "dataset", &value) ? value : "";
    if (ExtractField(line, "threads", &value)) r.threads = std::stoul(value);
    if (ExtractField(line, "windows", &value)) r.windows = std::stoul(value);
    if (ExtractField(line, "itemsets_per_window", &value)) {
      r.itemsets_per_window = std::stoul(value);
    }
    if (ExtractField(line, "ns_per_window", &value)) {
      r.ns_per_window = std::stod(value);
    }
    if (ExtractField(line, "windows_per_sec", &value)) {
      r.windows_per_sec = std::stod(value);
    }
    if (ExtractField(line, "speedup_vs_1t", &value)) {
      r.speedup_vs_1t = std::stod(value);
    }
    if (ExtractField(line, "tenants", &value)) r.tenants = std::stoul(value);
    if (ExtractField(line, "p50_ns", &value)) r.p50_ns = std::stod(value);
    if (ExtractField(line, "p99_ns", &value)) r.p99_ns = std::stod(value);
    if (ExtractField(line, "cpu_per_wall", &value)) {
      r.cpu_per_wall = std::stod(value);
    }
    for (size_t s = 0; s < kStageCount; ++s) {
      if (ExtractField(line, std::string(kStageNames[s]) + "_ns", &value)) {
        r.spans.ns[s] = std::stod(value);
      }
    }
    if (ExtractField(line, "unattributed_ns", &value)) {
      r.unattributed_ns = std::stod(value);
    }
    if (ExtractField(line, "index_bytes", &value)) {
      r.index_bytes = std::stoul(value);
    }
    if (ExtractField(line, "index_dense_bytes", &value)) {
      r.index_dense_bytes = std::stoul(value);
    }
    if (ExtractField(line, "index_array_rows", &value)) {
      r.index_array_rows = std::stoul(value);
    }
    if (ExtractField(line, "index_bitmap_rows", &value)) {
      r.index_bitmap_rows = std::stoul(value);
    }
    if (ExtractField(line, "note", &value)) r.note = value;
    if (ExtractField(line, "hardware_threads", &value)) {
      r.hardware_threads = std::stoul(value);
    }
    if (ExtractField(line, "compiler", &value)) r.compiler = value;
    if (ExtractField(line, "build_type", &value)) r.build_type = value;
    if (ExtractField(line, "oversubscribed", &value)) {
      r.oversubscribed = value == "true";
    }
    records->push_back(std::move(r));
  }
  std::fclose(f);
  return !records->empty();
}

bool FloorsRequired() {
  const char* env = std::getenv("BUTTERFLY_REQUIRE_FLOORS");
  return env != nullptr && env[0] == '1';
}

void AnnotateFloorsSkipped(const std::string& bench,
                           const std::string& reason) {
  std::fprintf(stderr, "FLOORS-SKIPPED %s: %s\n", bench.c_str(),
               reason.c_str());
  if (std::getenv("GITHUB_ACTIONS") != nullptr) {
    // GitHub workflow-command annotation: surfaces the skip on the run's
    // summary page instead of burying it in a green log.
    std::printf("::notice title=floors-skipped (%s)::%s\n", bench.c_str(),
                reason.c_str());
  }
}

}  // namespace butterfly::bench
