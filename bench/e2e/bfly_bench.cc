/// \file bfly_bench.cc
/// \brief One child process of the end-to-end benchmark (see README.md).
///
///   bfly_bench --workload=NAME --role=round|reference [--seed=7] [--smoke]
///              [--trace=PATH] [--tmp=DIR]
///
/// A child generates its inputs from --seed before any timing starts, then
/// drives one workload through the program's public calls in the order
/// butterfly_cli issues them: Append / RawOutput / Release / WriteRelease for
/// one engine; Ingest / Pump / CheckpointNextTenant for a fleet. It prints
/// one JSON line: what it measured and a digest of every tenant's release
/// log. run.py is the parent: it builds this binary, starts the reference
/// and the rounds as separate processes, compares their digests and
/// aggregates the metrics.
///
///  * role=round     the measured run: setup, then the timed release loop.
///  * role=reference every tenant replayed alone on a threads=1 engine; its
///                   digests are what each round's releases must equal.
///
/// The benchmark reads no EngineStats or FleetStats field. Each number comes
/// from timing a public call or from a public accessor of its output
/// (RawOutput().size(), fec_partition().view(), bitmap_index().MemoryStats(),
/// ReleaseCount, snapshot file sizes), so the program's own stats plumbing
/// can change without this file changing.
///
/// With --trace=PATH the child records a span around every call it makes
/// into a layer, keeps the spans in memory, writes them as Chrome trace
/// events at exit, and adds per-layer numbers derived from them.

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "core/release_log.h"
#include "core/stream_engine.h"
#include "datagen/profiles.h"
#include "persist/engine_checkpoint.h"
#include "service/engine_fleet.h"

namespace butterfly {
namespace {

namespace fs = std::filesystem;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// Spans

struct Span {
  const char* name = "";
  int64_t start = 0;
  int64_t end = 0;
  int parent = -1;
  int64_t release = -1;  ///< release id; -1 when the span is not one release
  /// Async spans (a fleet release's wait) overlap their siblings, so they
  /// sit outside the parent/child nesting that self time is computed over.
  bool async = false;
  std::array<std::pair<const char*, double>, 3> args{};
  size_t nargs = 0;

  double Arg(std::string_view key) const {
    for (size_t i = 0; i < nargs; ++i) {
      if (key == args[i].first) return args[i].second;
    }
    return 0;
  }
};

/// Spans held in memory until the child exits. When off, every call returns
/// at once and reads no clock, so an untraced run pays one branch per span.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  int Begin(const char* name, int64_t release = -1) {
    if (!on_) return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.release = release;
    span.start = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = NowNs();
    open_.pop_back();
  }

  void Arg(int id, const char* key, double value) {
    if (id < 0) return;
    Span& span = spans_[static_cast<size_t>(id)];
    if (span.nargs < span.args.size()) span.args[span.nargs++] = {key, value};
  }

  void Async(const char* name, int64_t start, int64_t end, int64_t release,
             const char* key, double value) {
    if (!on_) return;
    Span span;
    span.name = name;
    span.start = start;
    span.end = end;
    span.release = release;
    span.async = true;
    span.args[0] = {key, value};
    span.nargs = 1;
    spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t release = -1)
      : tracer_(tracer), id_(tracer->Begin(name, release)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Arg(const char* key, double value) { tracer_->Arg(id_, key, value); }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Output helpers

/// FNV-1a over a release log: a regression check, not a security boundary.
class Digest {
 public:
  void Update(std::string_view bytes) {
    for (unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 1099511628211ull;
    }
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

template <typename T, typename Format>
std::string JsonList(const std::vector<T>& values, Format format) {
  std::string out = "[";
  for (const T& value : values) {
    if (out.size() > 1) out += ',';
    out += format(value);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  bool fleet = false;
  DatasetProfile profile = DatasetProfile::kBmsWebView1;
  /// Solo workloads read window, stride, threads and engine from here and
  /// leave tenants at 1; fleet workloads pass it to EngineFleet::Create.
  FleetConfig config;
  /// Timed releases per tenant in one round, after the setup's first one.
  size_t releases = 0;
  /// fleet-mixed-ckpt: set up by restoring a snapshot, and checkpoint one
  /// tenant after every Pump.
  bool checkpointed = false;
};

std::optional<Workload> MakeWorkload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  ButterflyConfig& e = w.config.engine;
  e.delta = 0.4;
  e.vulnerable_support = 5;
  e.seed = 66;  // butterfly_cli's default engine seed
  if (name == "solo-dense") {
    // The paper's H=5000 window over a dense lattice (~660 frequent
    // itemsets): mining, expansion and bias DP + noise each take about a
    // third of a release, and threads=4 runs the in-release parallel path.
    // Do not copy fig8_overhead's dense rows instead (C = 5 = K at
    // epsilon 0.016): their epsilon/delta is below K^2/(2C^2), so
    // ButterflyConfig::Validate() rejects them, and fig8 only runs them by
    // calling the bare constructor. Here ppr 0.25 clears the minimum 0.195.
    w.config.window = 5000;
    w.config.stride = 200;
    w.config.threads = 4;
    e.min_support = 8;
    e.epsilon = 0.1;
    e.scheme = ButterflyScheme::kOrderPreserving;
    w.releases = smoke ? 40 : 120;
  } else if (name == "solo-webscale") {
    // Mining-bound: a million-item Zipf alphabet on the hybrid index, one
    // thread, and a small release layer. The single-threaded baseline.
    w.profile = DatasetProfile::kWebScale1M;
    w.config.window = 5000;
    w.config.stride = 100;
    w.config.threads = 1;
    e.min_support = 25;
    e.epsilon = 0.016;
    e.scheme = ButterflyScheme::kHybrid;
    e.lambda = 0.4;
    e.hybrid_index = true;
    w.releases = smoke ? 8 : 40;
  } else if (name == "fleet-64") {
    // Many small releases (~300 us each): the pump phases, the pump lock
    // and the cross-engine batching decide throughput.
    w.fleet = true;
    w.config.tenants = 64;
    w.config.shards = 4;
    w.config.threads = 4;
    w.config.window = 500;
    w.config.stride = 50;
    e.min_support = 15;
    e.epsilon = 0.03;
    e.scheme = ButterflyScheme::kHybrid;
    e.lambda = 0.4;
    w.releases = smoke ? 6 : 40;
  } else if (name == "fleet-mixed-ckpt") {
    // Four release backends per pump and a snapshot beside every pump: a
    // change that speeds up Butterfly or the pump at the cost of the DP
    // backends, the snapshots or the restore shows here.
    w.fleet = true;
    w.checkpointed = true;
    w.config.tenants = 16;
    w.config.shards = 4;
    w.config.threads = 4;
    w.config.window = 2000;
    w.config.stride = 100;
    w.config.tenant_policies = {
        ReleasePolicyKind::kButterfly, ReleasePolicyKind::kPrivBasis,
        ReleasePolicyKind::kContinual, ReleasePolicyKind::kHeavyHitter};
    e.min_support = 25;
    e.epsilon = 0.016;
    e.scheme = ButterflyScheme::kHybrid;
    e.lambda = 0.4;
    e.policy_epsilon = 1.0;
    e.policy_top_k = 32;
    w.releases = smoke ? 6 : 50;
  } else {
    return std::nullopt;
  }
  return w;
}

/// The engine configuration tenant \p tenant runs under. A solo workload's
/// engine is the template itself; the reference forces it serial.
ButterflyConfig EngineConfigFor(const Workload& w, uint64_t tenant,
                                bool reference) {
  if (w.fleet) return TenantEngineConfig(w.config, tenant);
  ButterflyConfig config = w.config.engine;
  config.threads = reference ? 1 : w.config.threads;
  return config;
}

using Streams = std::vector<std::vector<Transaction>>;

/// Each tenant's stream is a stretch of one fixed calibrated dataset
/// (data seed 7 + 1000 t, butterfly_cli's fleet convention), the way a real
/// dataset stays fixed, and --seed picks which of 8 starting points the
/// stretch begins at. Letting the seed redraw the profile's pattern pool
/// instead changes the work per release by up to 2x from seed to seed. Every
/// seed generates the same number of records, so peak memory does not
/// depend on the seed either.
constexpr uint64_t kStartingPoints = 8;

Result<Streams> MakeStreams(const Workload& w, uint64_t seed) {
  const size_t step = w.config.window / 2;
  const size_t records = w.config.window + w.releases * w.config.stride;
  const size_t offset = static_cast<size_t>(seed % kStartingPoints) * step;
  Streams streams;
  for (uint64_t t = 0; t < w.config.tenants; ++t) {
    Result<std::vector<Transaction>> data = GenerateProfile(
        w.profile, (kStartingPoints - 1) * step + records, 7 + 1000 * t);
    if (!data.ok()) return data.status();
    std::vector<Transaction>& stream = *data;
    stream.erase(stream.begin(),
                 stream.begin() + static_cast<std::ptrdiff_t>(offset));
    stream.resize(records);
    for (size_t i = 0; i < records; ++i) stream[i].tid = i + 1;
    streams.push_back(std::move(stream));
  }
  return streams;
}

// ---------------------------------------------------------------------------
// Measurement

struct RunResult {
  double setup_s = 0;
  double loop_s = 0;
  size_t records = 0;   ///< records fed in the timed loop
  size_t releases = 0;  ///< releases emitted in the timed loop
  std::vector<double> latencies_ms;
  std::vector<double> iteration_ms;  ///< wall time of each loop iteration
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> digests;  ///< one per tenant

  /// Counts one operation; a non-OK status counts as failed.
  bool Check(const Status& status) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    if (errors.size() < 8) errors.push_back(status.ToString());
    return false;
  }
};

/// One release the way butterfly_cli issues it: RawOutput, Release, then
/// WriteRelease into the log. Folds the bytes into \p digest when
/// \p logged. Returns the time Release() returned.
int64_t ReleaseStep(StreamPrivacyEngine* engine, Tracer* tracer,
                    uint64_t tenant, uint64_t position, bool logged,
                    Digest* digest, RunResult* run) {
  {
    ScopedSpan span(tracer, "moment.expand");
    span.Arg("itemsets", static_cast<double>(engine->RawOutput().size()));
  }
  const int release_span = tracer->Begin("core.release");
  ReleaseResult result = engine->Release();
  const int64_t released_at = NowNs();
  tracer->Arg(release_span, "fecs",
              static_cast<double>(engine->fec_partition().view().size()));
  tracer->Arg(release_span, "policy",
              static_cast<double>(engine->config().policy));
  tracer->End(release_span);

  std::ostringstream out;
  {
    ScopedSpan span(tracer, "core.write_release");
    run->Check(WriteRelease(&out, EngineFleet::ReleaseLabel(tenant, position),
                            result.output));
    span.Arg("bytes", static_cast<double>(out.tellp()));
  }
  if (logged) digest->Update(out.str());
  return released_at;
}

/// Appends records [from, to) of \p data, as one span.
void AppendRange(StreamPrivacyEngine* engine, Tracer* tracer,
                 const std::vector<Transaction>& data, size_t from,
                 size_t to) {
  ScopedSpan span(tracer, "engine.append");
  for (size_t i = from; i < to; ++i) engine->Append(data[i]);
  span.Arg("records", static_cast<double>(to - from));
}

/// Snapshot and restore of the final state, plus the index accessor. Runs
/// after the timed loop of a traced round only.
void ProbeSolo(const StreamPrivacyEngine& engine, Tracer* tracer,
               const fs::path& tmp, RunResult* run) {
  ScopedSpan probe(tracer, "probe");
  {
    ScopedSpan span(tracer, "stream.index");
    const IndexMemoryStats m = engine.miner().bitmap_index().MemoryStats();
    span.Arg("index_bytes", static_cast<double>(m.index_bytes));
    span.Arg("dense_bytes", static_cast<double>(m.dense_equivalent_bytes));
  }
  const std::string path = (tmp / "probe.ckpt").string();
  {
    ScopedSpan span(tracer, "persist.checkpoint");
    if (run->Check(persist::SaveEngineCheckpoint(engine, path))) {
      span.Arg("bytes", static_cast<double>(fs::file_size(path)));
    }
  }
  ScopedSpan span(tracer, "persist.restore");
  run->Check(persist::LoadEngineCheckpoint(path).status());
}

RunResult RunSolo(const Workload& w, const Streams& streams, Tracer* tracer,
                  const fs::path& tmp) {
  RunResult run;
  const std::vector<Transaction>& data = streams[0];
  const size_t window = w.config.window;
  const size_t stride = w.config.stride;
  Digest digest;

  const int64_t setup_start = NowNs();
  const int setup_span = tracer->Begin("setup");
  Result<StreamPrivacyEngine> engine = [&] {
    ScopedSpan span(tracer, "engine.create");
    return StreamPrivacyEngine::Create(window,
                                       EngineConfigFor(w, 0, false));
  }();
  if (!run.Check(engine.status())) return run;
  AppendRange(&*engine, tracer, data, 0, window);
  ++run.attempted;  // the setup's release
  ReleaseStep(&*engine, tracer, 0, window, true, &digest, &run);
  tracer->End(setup_span);
  run.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

  size_t pos = window;
  const int64_t loop_start = NowNs();
  int64_t mark = loop_start;
  for (size_t k = 1; k <= w.releases; ++k) {
    {
      ScopedSpan iteration(tracer, "loop.release", static_cast<int64_t>(k));
      AppendRange(&*engine, tracer, data, pos, pos + stride);
      pos += stride;
      const int64_t closed = NowNs();
      ++run.attempted;
      const int64_t released =
          ReleaseStep(&*engine, tracer, 0, pos, true, &digest, &run);
      run.latencies_ms.push_back(Ms(released - closed));
    }
    const int64_t now = NowNs();
    run.iteration_ms.push_back(Ms(now - mark));
    mark = now;
  }
  run.loop_s = static_cast<double>(mark - loop_start) / 1e9;
  run.records = w.releases * stride;
  run.releases = w.releases;
  run.digests.push_back(digest.Hex());

  if (tracer->on()) ProbeSolo(*engine, tracer, tmp, &run);
  return run;
}

/// Feeds records [from, to) of every tenant's stream, as one span, and
/// records when each tenant's last (window-closing) Ingest started.
void IngestRange(EngineFleet* fleet, Tracer* tracer, const Streams& streams,
                 size_t from, size_t to, std::vector<int64_t>* closed,
                 RunResult* run) {
  ScopedSpan span(tracer, "fleet.ingest");
  for (uint64_t t = 0; t < streams.size(); ++t) {
    for (size_t i = from; i < to; ++i) {
      if (i + 1 == to) (*closed)[t] = NowNs();
      run->Check(fleet->Ingest(t, streams[t][i]));
    }
  }
  span.Arg("records", static_cast<double>((to - from) * streams.size()));
}

/// Checkpoints the next tenant in round-robin order, as one span.
void CheckpointNext(EngineFleet* fleet, Tracer* tracer, const fs::path& dir,
                    RunResult* run) {
  ScopedSpan span(tracer, "persist.checkpoint");
  Result<uint64_t> saved = fleet->CheckpointNextTenant(dir.string());
  if (run->Check(saved.status()) && tracer->on()) {
    span.Arg("bytes", static_cast<double>(fs::file_size(
                          EngineFleet::TenantCheckpointPath(dir.string(),
                                                            *saved))));
  }
}

void ProbeFleet(const Workload& w, EngineFleet* fleet, Tracer* tracer,
                const fs::path& tmp, RunResult* run) {
  ScopedSpan probe(tracer, "probe");
  {
    ScopedSpan span(tracer, "stream.index");
    double index_bytes = 0;
    double dense_bytes = 0;
    for (uint64_t t = 0; t < fleet->tenant_count(); ++t) {
      const IndexMemoryStats m =
          fleet->engine(t).miner().bitmap_index().MemoryStats();
      index_bytes += static_cast<double>(m.index_bytes);
      dense_bytes += static_cast<double>(m.dense_equivalent_bytes);
    }
    span.Arg("index_bytes", index_bytes);
    span.Arg("dense_bytes", dense_bytes);
  }
  // A fresh cursor starts at tenant 0, so `tenants` calls snapshot all.
  const fs::path dir = tmp / "probe";
  fs::create_directories(dir);
  Result<EngineFleet> copy = EngineFleet::Create(w.config);
  if (!run->Check(copy.status())) return;
  for (uint64_t t = 0; t < fleet->tenant_count(); ++t) {
    CheckpointNext(fleet, tracer, dir, run);
  }
  ScopedSpan span(tracer, "persist.restore");
  run->Check(copy->RestoreTenants(dir.string()));
}

RunResult RunFleet(const Workload& w, const Streams& streams, Tracer* tracer,
                   const fs::path& tmp) {
  RunResult run;
  const size_t window = w.config.window;
  const size_t stride = w.config.stride;
  const size_t tenants = w.config.tenants;
  std::vector<int64_t> closed(tenants, 0);
  const fs::path snapshots = tmp / "snapshots";
  const fs::path checkpoints = tmp / "checkpoints";

  if (w.checkpointed) {
    // Untimed prelude: fill every window, release once, snapshot every
    // tenant. The timed setup restores from these snapshots.
    fs::create_directories(snapshots);
    fs::create_directories(checkpoints);
    Tracer off(false);
    Result<EngineFleet> prelude = EngineFleet::Create(w.config);
    if (!run.Check(prelude.status())) return run;
    IngestRange(&*prelude, &off, streams, 0, window, &closed, &run);
    prelude->Pump();
    for (size_t t = 0; t < tenants; ++t) {
      CheckpointNext(&*prelude, &off, snapshots, &run);
    }
  }

  const int64_t setup_start = NowNs();
  const int setup_span = tracer->Begin("setup");
  Result<EngineFleet> fleet = [&] {
    ScopedSpan span(tracer, "fleet.create");
    return EngineFleet::Create(w.config);
  }();
  if (!run.Check(fleet.status())) return run;
  if (w.checkpointed) {
    ScopedSpan span(tracer, "persist.restore");
    if (!run.Check(fleet->RestoreTenants(snapshots.string()))) return run;
  } else {
    IngestRange(&*fleet, tracer, streams, 0, window, &closed, &run);
    ScopedSpan span(tracer, "fleet.pump");
    fleet->Pump();
  }
  tracer->End(setup_span);
  run.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

  std::vector<uint64_t> counts(tenants);
  for (uint64_t t = 0; t < tenants; ++t) counts[t] = fleet->ReleaseCount(t);
  const uint64_t expected = counts[0] + w.releases;
  run.attempted += tenants * w.releases;  // the releases the loop must emit

  size_t pos = window;
  int64_t release_id = 0;
  const int64_t loop_start = NowNs();
  int64_t mark = loop_start;
  for (size_t k = 1; k <= w.releases; ++k) {
    {
      ScopedSpan round(tracer, "loop.round", static_cast<int64_t>(k));
      IngestRange(&*fleet, tracer, streams, pos, pos + stride, &closed, &run);
      pos += stride;
      const int pump_span = tracer->Begin("fleet.pump");
      const int64_t pump_start = NowNs();
      const size_t emitted = fleet->Pump();
      const int64_t pump_end = NowNs();
      tracer->Arg(pump_span, "releases", static_cast<double>(emitted));
      tracer->End(pump_span);
      // The emitting Pump is the one across which ReleaseCount grew.
      for (uint64_t t = 0; t < tenants; ++t) {
        const uint64_t count = fleet->ReleaseCount(t);
        if (count == counts[t]) continue;
        counts[t] = count;
        run.latencies_ms.push_back(Ms(pump_end - closed[t]));
        tracer->Async("fleet.release", closed[t], pump_end, release_id++,
                      "wait_ns", static_cast<double>(pump_start - closed[t]));
      }
      if (w.checkpointed) CheckpointNext(&*fleet, tracer, checkpoints, &run);
    }
    const int64_t now = NowNs();
    run.iteration_ms.push_back(Ms(now - mark));
    mark = now;
  }
  run.loop_s = static_cast<double>(mark - loop_start) / 1e9;
  run.records = w.releases * stride * tenants;
  run.releases = run.latencies_ms.size();

  for (uint64_t t = 0; t < tenants; ++t) {
    const uint64_t got = fleet->ReleaseCount(t);
    if (got < expected) run.failed += expected - got;
    Digest digest;
    digest.Update(fleet->ReleaseLog(t));
    run.digests.push_back(digest.Hex());
  }

  if (tracer->on()) ProbeFleet(w, &*fleet, tracer, tmp, &run);
  return run;
}

/// Every tenant replayed alone on a serial engine, releasing at exactly
/// window + k * stride. For a checkpointed workload the digest covers only
/// the releases after the snapshot (the restored fleet's log starts there).
RunResult RunReference(const Workload& w, const Streams& streams,
                       Tracer* tracer) {
  RunResult run;
  const size_t window = w.config.window;
  const size_t stride = w.config.stride;
  const uint64_t logged_after = w.checkpointed ? window : 0;
  int64_t loop_ns = 0;
  for (uint64_t t = 0; t < w.config.tenants; ++t) {
    const std::vector<Transaction>& data = streams[t];
    Digest digest;
    Result<StreamPrivacyEngine> engine =
        StreamPrivacyEngine::Create(window, EngineConfigFor(w, t, true));
    if (!run.Check(engine.status())) return run;
    {
      ScopedSpan setup(tracer, "setup");
      AppendRange(&*engine, tracer, data, 0, window);
      ReleaseStep(&*engine, tracer, t, window, window > logged_after,
                  &digest, &run);
    }
    const int64_t loop_start = NowNs();
    for (size_t pos = window; pos < data.size();) {
      ScopedSpan iteration(tracer, "loop.release",
                           static_cast<int64_t>(run.releases));
      AppendRange(&*engine, tracer, data, pos, pos + stride);
      pos += stride;
      ReleaseStep(&*engine, tracer, t, pos, pos > logged_after, &digest,
                  &run);
      ++run.releases;
    }
    loop_ns += NowNs() - loop_start;
    run.digests.push_back(digest.Hex());
  }
  run.loop_s = static_cast<double>(loop_ns) / 1e9;
  run.records = run.releases * stride;
  return run;
}

// ---------------------------------------------------------------------------
// Per-layer numbers from the spans

struct Sum {
  double ns = 0;
  size_t count = 0;
  double arg = 0;

  void Add(const Span& span, std::string_view key = "") {
    ns += static_cast<double>(span.end - span.start);
    ++count;
    if (!key.empty()) arg += span.Arg(key);
  }
  double MeanMs() const { return count > 0 ? ns / Count() / 1e6 : 0; }
  double MeanArg() const { return count > 0 ? arg / Count() : 0; }
  double Count() const { return static_cast<double>(count); }
};

/// Per-layer metrics. Engine-level spans (engine.append, moment.expand,
/// core.*) count only inside the release loop; loop.* describe the loop as
/// a whole, with the call that feeds records (Append, or Ingest for a
/// fleet) and the call that emits releases (RawOutput + Release, or Pump).
std::map<std::string, double> Summarize(const std::vector<Span>& spans,
                                        bool fleet) {
  Sum append, expand, release, write, ingest, pump, checkpoint, restore;
  Sum loop, covered, wait;
  double index_bytes = 0;
  double dense_bytes = 0;
  std::map<std::string, Sum> by_policy;
  std::map<int, int64_t> last_append_end;  // loop span -> its append's end
  for (const Span& s : spans) {
    const std::string_view name = s.name;
    if (s.async) {
      ++wait.count;
      wait.ns += s.Arg("wait_ns");
      continue;
    }
    const std::string_view parent =
        s.parent >= 0 ? spans[static_cast<size_t>(s.parent)].name : "";
    const bool in_loop = parent == "loop.release" || parent == "loop.round";
    if (name == "loop.release" || name == "loop.round") loop.Add(s);
    if (in_loop) covered.Add(s);
    if (name == "persist.checkpoint") checkpoint.Add(s, "bytes");
    if (name == "persist.restore") restore.Add(s);
    if (name == "stream.index") {
      index_bytes = s.Arg("index_bytes");
      dense_bytes = s.Arg("dense_bytes");
    }
    if (!in_loop) continue;
    if (name == "engine.append") {
      append.Add(s, "records");
      last_append_end[s.parent] = s.end;
    } else if (name == "moment.expand") {
      expand.Add(s, "itemsets");
      wait.ns += static_cast<double>(s.start - last_append_end[s.parent]);
      ++wait.count;
    } else if (name == "core.release") {
      release.Add(s, "fecs");
      by_policy[ReleasePolicyName(
                    static_cast<ReleasePolicyKind>(s.Arg("policy")))]
          .Add(s);
    } else if (name == "core.write_release") {
      write.Add(s, "bytes");
    } else if (name == "fleet.ingest") {
      ingest.Add(s, "records");
    } else if (name == "fleet.pump") {
      pump.Add(s, "releases");
    }
  }

  std::map<std::string, double> out;
  if (append.arg > 0) {
    out["moment.append_us_per_record"] = append.ns / append.arg / 1e3;
    out["moment.expand_ms"] = expand.MeanMs();
    out["moment.frequent_itemsets"] = expand.MeanArg();
    out["core.release_ms"] = release.MeanMs();
    out["core.fec_count"] = release.MeanArg();
    out["core.write_release_us"] = write.MeanMs() * 1e3;
    out["core.release_bytes"] = write.MeanArg();
    for (const auto& [policy, sum] : by_policy) {
      out["policy." + policy + ".release_ms"] = sum.MeanMs();
    }
  }
  if (dense_bytes > 0) {
    out["stream.index_bytes"] = index_bytes;
    out["stream.index_dense_ratio"] = index_bytes / dense_bytes;
  }
  if (loop.count > 0) {
    const Sum& feed = fleet ? ingest : append;
    // One engine emits with RawOutput + Release, one release per call.
    Sum emit = pump;
    if (!fleet) {
      emit = {expand.ns + release.ns, release.count, release.Count()};
    }
    out["loop.feed_ns_per_record"] = feed.arg > 0 ? feed.ns / feed.arg : 0;
    out["loop.emit_ms"] = emit.MeanMs();
    out["loop.releases_per_emit"] = emit.MeanArg();
    out["loop.queue_wait_ms"] = wait.MeanMs();
    out["loop.unattributed_pct"] = 100.0 * (loop.ns - covered.ns) / loop.ns;
  }
  if (checkpoint.count > 0) {
    out["persist.checkpoint_ms"] = checkpoint.MeanMs();
    out["persist.checkpoint_bytes"] = checkpoint.MeanArg();
  }
  if (restore.count > 0) out["persist.restore_ms"] = restore.MeanMs();
  return out;
}

/// Chrome trace events ("X" complete events, microseconds). args carry the
/// span's index, its parent's index, its end and its release id.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::string& process) {
  std::ofstream out(path, std::ios::trunc);
  const int64_t origin = spans.empty() ? 0 : spans.front().start;
  auto us = [&](int64_t ns) {
    return JsonNumber(static_cast<double>(ns - origin) / 1e3);
  };
  out << "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\","
         "\"pid\":0,\"args\":{\"name\":"
      << JsonString(process) << "}}";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << ",\n{\"name\":" << JsonString(s.name)
        << ",\"ph\":\"X\",\"pid\":0,\"tid\":" << (s.async ? 1 : 0)
        << ",\"ts\":" << us(s.start) << ",\"dur\":"
        << JsonNumber(static_cast<double>(s.end - s.start) / 1e3)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"end\":" << us(s.end) << ",\"release\":" << s.release;
    for (size_t a = 0; a < s.nargs; ++a) {
      out << "," << JsonString(s.args[a].first) << ":"
          << JsonNumber(s.args[a].second);
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string HostJson(const Workload& w) {
  const unsigned hw = std::thread::hardware_concurrency();
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const int64_t threads = w.config.threads;
  return "{\"hardware_threads\":" + std::to_string(hw) +
         ",\"compiler\":" + JsonString(compiler) +
         ",\"build_type\":" + JsonString(BFLY_BENCH_BUILD_TYPE) +
         ",\"sanitizers\":" + JsonString(BFLY_BENCH_SANITIZERS) +
         ",\"threads\":" + std::to_string(threads) + ",\"oversubscribed\":" +
         (threads > static_cast<int64_t>(hw) ? "true" : "false") + "}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ResultJson(const Workload& w, const std::string& role,
                       bool traced, const RunResult& run,
                       const std::map<std::string, double>& layers) {
  std::string out = "{\"workload\":" + JsonString(w.name) +
                    ",\"role\":" + JsonString(role) +
                    ",\"traced\":" + (traced ? "true" : "false");
  out += ",\"setup_s\":" + JsonNumber(run.setup_s);
  out += ",\"loop_s\":" + JsonNumber(run.loop_s);
  out += ",\"records\":" + std::to_string(run.records);
  out += ",\"releases\":" + std::to_string(run.releases);
  out += ",\"peak_rss_mb\":" + JsonNumber(PeakRssMb());
  out += ",\"attempted\":" + std::to_string(run.attempted);
  out += ",\"failed\":" + std::to_string(run.failed);
  out += ",\"errors\":" + JsonList(run.errors, JsonString);
  out += ",\"digests\":" + JsonList(run.digests, JsonString);
  out += ",\"latencies_ms\":" + JsonList(run.latencies_ms, JsonNumber);
  out += ",\"iteration_ms\":" + JsonList(run.iteration_ms, JsonNumber);
  out += ",\"layers\":{";
  for (const auto& [name, value] : layers) {
    if (out.back() != '{') out += ',';
    out += JsonString(name);
    out += ':';
    out += JsonNumber(value);
  }
  return out + "},\"host\":" + HostJson(w) + "}";
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const std::string role = flags.GetString("role", "round");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const bool smoke = flags.GetBool("smoke", false);
  const std::string trace_path = flags.GetString("trace", "");
  const fs::path tmp = flags.GetString("tmp", "bfly_bench_tmp");
  if (!flags.ok() || !flags.UnreadFlags().empty()) {
    std::fprintf(stderr, "bfly_bench: bad flags\n");
    return 2;
  }
  std::optional<Workload> workload = MakeWorkload(name, smoke);
  if (!workload || (role != "round" && role != "reference")) {
    std::fprintf(stderr, "bfly_bench: unknown --workload=%s or --role=%s\n",
                 name.c_str(), role.c_str());
    return 2;
  }

  Result<Streams> streams = MakeStreams(*workload, seed);
  if (!streams.ok()) {
    std::fprintf(stderr, "bfly_bench: input generation failed: %s\n",
                 streams.status().ToString().c_str());
    return 1;
  }
  fs::create_directories(tmp);
  Tracer tracer(!trace_path.empty());
  RunResult run;
  if (role == "reference") {
    run = RunReference(*workload, *streams, &tracer);
  } else if (workload->fleet) {
    run = RunFleet(*workload, *streams, &tracer, tmp);
  } else {
    run = RunSolo(*workload, *streams, &tracer, tmp);
  }

  std::map<std::string, double> layers;
  if (tracer.on()) {
    layers = Summarize(tracer.spans(), workload->fleet && role == "round");
    if (!WriteTrace(trace_path, tracer.spans(), name + " " + role)) {
      std::fprintf(stderr, "bfly_bench: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n",
              ResultJson(*workload, role, tracer.on(), run, layers).c_str());
  return run.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace butterfly

int main(int argc, char** argv) { return butterfly::Main(argc, argv); }
