#include "core/butterfly.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>

#include "persist/serializer.h"

namespace butterfly {

namespace {
constexpr uint32_t kSanitizerTag = persist::SectionTag('B', 'F', 'L', 'E');
}  // namespace

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
  // One DP scratch per thread, not per engine: a fleet's engines release on
  // its pool's threads, so that many scratches serve every tenant.
  thread_local BiasDpScratch dp_scratch;
  switch (config_.scheme) {
    case ButterflyScheme::kBasic:
      return ZeroBiases(profiles.size());
    case ButterflyScheme::kOrderPreserving:
      return OrderPreservingBiases(profiles, noise_.alpha(),
                                   config_.order_opt, &dp_scratch);
    case ButterflyScheme::kRatioPreserving:
      return RatioPreservingBiases(profiles);
    case ButterflyScheme::kHybrid: {
      std::vector<double> order = OrderPreservingBiases(
          profiles, noise_.alpha(), config_.order_opt, &dp_scratch);
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

void ButterflyEngine::Checkpoint(persist::CheckpointWriter* writer) const {
  writer->Tag(kSanitizerTag);
  writer->U64(epoch_);
  cache_.Checkpoint(writer);
}

Status ButterflyEngine::Restore(persist::CheckpointReader* reader) {
  if (Status s = reader->ExpectTag(kSanitizerTag, "butterfly engine");
      !s.ok()) {
    return s;
  }
  const uint64_t epoch = reader->U64();
  if (!reader->ok()) return reader->status();
  if (Status s = cache_.Restore(reader); !s.ok()) return s;
  epoch_ = epoch;
  return Status::OK();
}

SanitizedOutput ButterflyEngine::Sanitize(const MiningOutput& frequent,
                                          Support window_size,
                                          StageSpans* spans) {
  StageClock clock(spans);
  const uint64_t epoch = epoch_++;
  SanitizedOutput release(config_.min_support, window_size);
  if (frequent.empty()) {
    if (config_.republish_cache) cache_.NextEpoch();
    release.Seal();
    clock.Lap(Stage::kEmit);
    return release;
  }

  std::vector<FecProfile>& profiles = profiles_scratch_;
  profiles.clear();
  for (const Fec& fec : PartitionIntoFecs(frequent)) {
    profiles.push_back(FecProfile{
        fec.support, fec.member_count,
        MaxAdjustableBias(fec.support, config_.epsilon, noise_.variance())});
  }
  clock.Lap(Stage::kPartition);

  const std::vector<double> biases = ComputeBiases(profiles);
  clock.Lap(Stage::kBias);

  const bool per_itemset_noise = config_.scheme == ButterflyScheme::kBasic;
  const double variance = noise_.variance();

  // Support -> FEC lookup spanning the FECs' support range: at most H
  // entries, since a window's supports lie in [C, H].
  const Support lowest = profiles.front().support;
  std::vector<uint32_t> fec_of(
      static_cast<size_t>(profiles.back().support - lowest) + 1);
  for (size_t i = 0; i < profiles.size(); ++i) {
    fec_of[static_cast<size_t>(profiles[i].support - lowest)] =
        static_cast<uint32_t>(i);
  }
  std::vector<std::optional<Support>> fec_draw(profiles.size());

  // Noise stage: one pass in the input's order. A pinned value is
  // republished as is; a miss draws from its own counter-based stream —
  // keyed on the itemset for the basic scheme, and for the optimized ones
  // on the FEC support with the FEC's bias, so the FEC draws once, on its
  // first miss, and its members share the value — and is pinned at once.
  // Store writes only its own key and released itemsets are unique, so
  // pinning as we go sees the same cache as pinning after every lookup.
  for (const FrequentItemset& f : frequent.itemsets()) {
    const size_t fec = fec_of[static_cast<size_t>(f.support - lowest)];
    assert(profiles[fec].support == f.support);
    SanitizedItemset item;
    item.itemset = f.itemset;
    item.bias = biases[fec];
    item.variance = variance;
    std::optional<RepublishCache::Entry> pinned;
    if (config_.republish_cache) pinned = cache_.Lookup(f.itemset, f.support);
    if (pinned) {
      item.sanitized_support = pinned->sanitized_support;
      item.bias = pinned->bias;
      item.variance = pinned->variance;
    } else {
      if (per_itemset_noise) {
        CounterRng stream(config_.seed, epoch, f.itemset.Hash());
        item.sanitized_support = f.support + noise_.Sample(item.bias, &stream);
      } else {
        if (!fec_draw[fec]) {
          CounterRng stream(config_.seed ^ kFecStreamDomain, epoch,
                            static_cast<uint64_t>(f.support));
          fec_draw[fec] = f.support + noise_.Sample(item.bias, &stream);
        }
        item.sanitized_support = *fec_draw[fec];
      }
      if (config_.republish_cache) {
        cache_.Store(f.itemset,
                     RepublishCache::Entry{f.support, item.sanitized_support,
                                           item.bias, item.variance});
      }
    }
    release.Add(std::move(item));
  }
  clock.Lap(Stage::kNoise);

  if (config_.republish_cache) cache_.NextEpoch();
  release.Seal();
  clock.Lap(Stage::kEmit);
  return release;
}

}  // namespace butterfly
