#include "core/butterfly.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>

#include "persist/serializer.h"

namespace butterfly {

namespace {
constexpr uint32_t kSanitizerTag = persist::SectionTag('B', 'F', 'L', 'E');
}  // namespace

namespace {

/// Monotonic now, for the per-stage wall-clock breakdown.
inline std::chrono::steady_clock::time_point StageNow() {
  return std::chrono::steady_clock::now();
}

inline double StageNs(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

/// Order-independent key of a FEC profile vector for the DP memo. Collisions
/// are resolved by exact profile comparison, so the hash only needs to be
/// well-mixed, not perfect.
uint64_t HashProfiles(const std::vector<FecProfile>& profiles) {
  uint64_t h = SplitMix64Mix(0x6275746572666c79ull ^ profiles.size());
  for (const FecProfile& p : profiles) {
    h = SplitMix64Mix(h ^ static_cast<uint64_t>(p.support));
    h = SplitMix64Mix(h ^ static_cast<uint64_t>(p.member_count));
    h = SplitMix64Mix(h ^ std::bit_cast<uint64_t>(p.max_bias));
  }
  return h;
}

}  // namespace

std::vector<FecProfile> BuildFecProfiles(const std::vector<Fec>& fecs,
                                         double epsilon,
                                         double noise_variance) {
  std::vector<FecProfile> profiles;
  profiles.reserve(fecs.size());
  for (const Fec& fec : fecs) {
    profiles.push_back(FecProfile{
        fec.support, fec.size(),
        MaxAdjustableBias(fec.support, epsilon, noise_variance)});
  }
  return profiles;
}

bool ButterflyEngine::TryReuseBiases(const std::vector<FecProfile>& profiles,
                                     std::vector<double>* biases) {
  if (cached_profiles_.size() != profiles.size() || profiles.empty()) {
    return false;
  }
  const Support tolerance = config_.bias_cache_tolerance;
  if (tolerance == 0) {
    // Exact structural match: the cached biases are bit-identical to what a
    // fresh optimization would produce.
    if (!(profiles == cached_profiles_)) return false;
    *biases = cached_biases_;
    return true;
  }
  for (size_t i = 0; i < profiles.size(); ++i) {
    Support drift = profiles[i].support - cached_profiles_[i].support;
    if (drift > tolerance || drift < -tolerance) return false;
  }
  // Clamp the cached biases into the new adjustable range and make sure the
  // estimators are still strictly increasing; otherwise fall back to a fresh
  // optimization.
  std::vector<double> candidate(profiles.size());
  for (size_t i = 0; i < profiles.size(); ++i) {
    candidate[i] = std::clamp(cached_biases_[i], -profiles[i].max_bias,
                              profiles[i].max_bias);
    if (i > 0) {
      double prev = static_cast<double>(profiles[i - 1].support) + candidate[i - 1];
      double cur = static_cast<double>(profiles[i].support) + candidate[i];
      if (cur <= prev) return false;
    }
  }
  *biases = std::move(candidate);
  return true;
}

bool ButterflyEngine::MemoEnabled() const {
  // Only the schemes that run the Algorithm 1 DP gain anything; memoizing
  // the trivial settings would just burn memory.
  return config_.bias_memo_capacity > 0 &&
         (config_.scheme == ButterflyScheme::kOrderPreserving ||
          config_.scheme == ButterflyScheme::kHybrid);
}

bool ButterflyEngine::MemoLookup(const std::vector<FecProfile>& profiles,
                                 std::vector<double>* biases) {
  if (!MemoEnabled() || profiles.empty()) return false;
  auto bucket = bias_memo_.find(HashProfiles(profiles));
  if (bucket != bias_memo_.end()) {
    for (MemoEntry& entry : bucket->second) {
      if (entry.profiles == profiles) {
        entry.last_used = ++bias_memo_clock_;
        *biases = entry.biases;
        ++bias_memo_hits_;
        return true;
      }
    }
  }
  ++bias_memo_misses_;
  return false;
}

void ButterflyEngine::MemoInsert(const std::vector<FecProfile>& profiles,
                                 const std::vector<double>& biases) {
  if (!MemoEnabled() || profiles.empty()) return;
  if (bias_memo_size_ >= config_.bias_memo_capacity) {
    // Evict the least recently used entry; a linear scan is fine at the
    // default capacity and only runs once the memo is full.
    std::unordered_map<uint64_t, std::vector<MemoEntry>>::iterator lru_bucket =
        bias_memo_.end();
    size_t lru_index = 0;
    uint64_t lru_used = UINT64_MAX;
    // bfly-lint: allow(unordered-iteration) last_used clock values are
    // unique, so the scan finds the one true minimum in any visit order;
    // memoized biases are pure functions of the profiles, so eviction
    // choice can never change a released value.
    for (auto it = bias_memo_.begin(); it != bias_memo_.end(); ++it) {
      for (size_t i = 0; i < it->second.size(); ++i) {
        if (it->second[i].last_used < lru_used) {
          lru_used = it->second[i].last_used;
          lru_bucket = it;
          lru_index = i;
        }
      }
    }
    if (lru_bucket != bias_memo_.end()) {
      lru_bucket->second.erase(lru_bucket->second.begin() + lru_index);
      if (lru_bucket->second.empty()) bias_memo_.erase(lru_bucket);
      --bias_memo_size_;
    }
  }
  std::vector<MemoEntry>& chain = bias_memo_[HashProfiles(profiles)];
  chain.push_back(MemoEntry{profiles, biases, ++bias_memo_clock_});
  ++bias_memo_size_;
}

Result<ButterflyEngine> ButterflyEngine::Create(const ButterflyConfig& config) {
  Status status = config.Validate();
  if (!status.ok()) return status;
  return ButterflyEngine(config);
}

ButterflyEngine::ButterflyEngine(const ButterflyConfig& config)
    : config_(config), noise_(config.delta, config.vulnerable_support) {
  assert(config.Validate().ok());
}

std::vector<double> ButterflyEngine::ComputeBiases(
    const std::vector<FecProfile>& profiles) {
  switch (config_.scheme) {
    case ButterflyScheme::kBasic:
      return ZeroBiases(profiles.size());
    case ButterflyScheme::kOrderPreserving:
      return OrderPreservingBiases(profiles, noise_.alpha(),
                                   config_.order_opt, &dp_scratch_);
    case ButterflyScheme::kRatioPreserving:
      return RatioPreservingBiases(profiles);
    case ButterflyScheme::kHybrid: {
      std::vector<double> order = OrderPreservingBiases(
          profiles, noise_.alpha(), config_.order_opt, &dp_scratch_);
      std::vector<double> ratio = RatioPreservingBiases(profiles);
      return HybridBiases(profiles, order, ratio, config_.lambda);
    }
  }
  return ZeroBiases(profiles.size());
}

namespace {
// Domain separator keying the shared per-FEC noise streams apart from the
// per-itemset streams of the basic scheme.
constexpr uint64_t kFecStreamDomain = 0x9e3779b97f4a7c15ull;
}  // namespace

SanitizedOutput ButterflyEngine::Sanitize(const MiningOutput& frequent,
                                          Support window_size,
                                          const FecView* fecs) {
  if (fecs != nullptr) {
    return SanitizeView(*fecs, frequent.size(), window_size);
  }
  const auto start = StageNow();
  std::vector<Fec> local = PartitionIntoFecs(frequent);
  FecView view;
  view.reserve(local.size());
  for (const Fec& fec : local) view.push_back(&fec);
  const double partition_ns = StageNs(start, StageNow());
  SanitizedOutput release = SanitizeView(view, frequent.size(), window_size);
  last_stage_times_.partition_ns += partition_ns;
  return release;
}

void ButterflyEngine::Checkpoint(persist::CheckpointWriter* writer) const {
  writer->Tag(kSanitizerTag);
  writer->U64(epoch_);
  cache_.Checkpoint(writer);
  writer->U64(cached_profiles_.size());
  for (const FecProfile& p : cached_profiles_) {
    writer->I64(p.support);
    writer->U64(p.member_count);
    writer->F64(p.max_bias);
  }
  writer->U64(cached_biases_.size());
  for (double b : cached_biases_) writer->F64(b);
}

Status ButterflyEngine::Restore(persist::CheckpointReader* reader) {
  if (Status s = reader->ExpectTag(kSanitizerTag, "butterfly engine");
      !s.ok()) {
    return s;
  }
  const uint64_t epoch = reader->U64();
  if (!reader->ok()) return reader->status();
  if (Status s = cache_.Restore(reader); !s.ok()) return s;
  const uint64_t profile_count = reader->ReadCount(24, "cached FEC profiles");
  if (!reader->ok()) return reader->status();
  std::vector<FecProfile> profiles(profile_count);
  for (uint64_t i = 0; i < profile_count; ++i) {
    profiles[i].support = reader->I64();
    profiles[i].member_count = reader->U64();
    profiles[i].max_bias = reader->F64();
  }
  const uint64_t bias_count = reader->ReadCount(8, "cached biases");
  if (!reader->ok()) return reader->status();
  if (bias_count != profile_count) {
    return reader->Fail(
        "checkpoint corrupt: cached biases disagree with cached profiles");
  }
  std::vector<double> biases(bias_count);
  for (uint64_t i = 0; i < bias_count; ++i) biases[i] = reader->F64();
  if (!reader->ok()) return reader->status();

  epoch_ = epoch;
  cached_profiles_ = std::move(profiles);
  cached_biases_ = std::move(biases);
  // Reconstructible state is simply reset: the DP memo refills with
  // bit-identical entries as profiles recur, and the diagnostics restart.
  last_biases_were_cached_ = false;
  bias_memo_.clear();
  bias_memo_size_ = 0;
  bias_memo_clock_ = 0;
  bias_memo_hits_ = 0;
  bias_memo_misses_ = 0;
  last_stage_times_ = SanitizeStageTimes{};
  return Status::OK();
}

SanitizedOutput ButterflyEngine::SanitizeView(const FecView& fecs,
                                              size_t total_itemsets,
                                              Support window_size) {
  last_stage_times_ = SanitizeStageTimes{};
  const uint64_t epoch = epoch_++;
  SanitizedOutput release(config_.min_support, window_size);
  if (total_itemsets == 0) {
    if (config_.republish_cache) cache_.NextEpoch();
    release.Seal();
    return release;
  }

  auto stage_start = StageNow();
  std::vector<FecProfile>& profiles = profiles_scratch_;
  profiles.clear();
  profiles.reserve(fecs.size());
  for (const Fec* fec : fecs) {
    profiles.push_back(FecProfile{
        fec->support, fec->size(),
        MaxAdjustableBias(fec->support, config_.epsilon, noise_.variance())});
  }
  auto stage_end = StageNow();
  last_stage_times_.partition_ns += StageNs(stage_start, stage_end);

  // Bias stage: previous-window reuse, then the cross-window DP memo, then a
  // fresh optimization. All three produce identical biases for identical
  // profiles (the reuse path only diverges under a nonzero drift tolerance).
  stage_start = stage_end;
  std::vector<double> biases;
  last_biases_were_cached_ = false;
  if (config_.cache_bias_settings && TryReuseBiases(profiles, &biases)) {
    last_biases_were_cached_ = true;
    last_stage_times_.bias_cache_hit = true;
  } else if (MemoLookup(profiles, &biases)) {
    last_biases_were_cached_ = true;
    last_stage_times_.bias_memo_hit = true;
    if (config_.cache_bias_settings) {
      cached_profiles_ = profiles;
      cached_biases_ = biases;
    }
  } else {
    biases = ComputeBiases(profiles);
    MemoInsert(profiles, biases);
    if (config_.cache_bias_settings) {
      cached_profiles_ = profiles;
      cached_biases_ = biases;
    }
  }
  stage_end = StageNow();
  last_stage_times_.bias_ns = StageNs(stage_start, stage_end);

  const bool per_itemset_noise = config_.scheme == ButterflyScheme::kBasic;
  const double variance = noise_.variance();

  // Noise stage: one pass in FEC order. A pinned value is republished as is;
  // a miss draws from its own counter-based stream — keyed on the itemset
  // for the basic scheme, on the FEC support for the optimized ones, so the
  // members of one FEC share a draw — and is pinned at once. Store writes
  // only its own key and released itemsets are unique, so pinning as we go
  // sees the same cache as pinning after every lookup.
  stage_start = stage_end;
  for (size_t i = 0; i < fecs.size(); ++i) {
    const Fec& fec = *fecs[i];
    for (const Itemset& member : fec.members) {
      SanitizedItemset item;
      item.itemset = member;
      item.bias = biases[i];
      item.variance = variance;
      std::optional<RepublishCache::Entry> pinned;
      if (config_.republish_cache) pinned = cache_.Lookup(member, fec.support);
      if (pinned) {
        item.sanitized_support = pinned->sanitized_support;
        item.bias = pinned->bias;
        item.variance = pinned->variance;
      } else {
        CounterRng stream =
            per_itemset_noise
                ? CounterRng(config_.seed, epoch, member.Hash())
                : CounterRng(config_.seed ^ kFecStreamDomain, epoch,
                             static_cast<uint64_t>(fec.support));
        item.sanitized_support = fec.support + noise_.Sample(item.bias, &stream);
        if (config_.republish_cache) {
          cache_.Store(member,
                       RepublishCache::Entry{fec.support, item.sanitized_support,
                                             item.bias, item.variance});
        }
      }
      release.Add(std::move(item));
    }
  }
  assert(release.size() == total_itemsets);
  stage_end = StageNow();
  last_stage_times_.noise_ns = StageNs(stage_start, stage_end);

  if (config_.republish_cache) cache_.NextEpoch();
  release.Seal();
  last_stage_times_.emit_ns = StageNs(stage_end, StageNow());
  return release;
}

}  // namespace butterfly
