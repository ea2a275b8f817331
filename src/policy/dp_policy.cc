#include "policy/dp_policy.h"

#include <chrono>
#include <utility>

#include "persist/serializer.h"

namespace butterfly {

namespace {

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

DpPolicyBase::DpPolicyBase(const ButterflyConfig& config, uint32_t section_tag)
    : seed_(config.seed),
      epsilon_(config.policy_epsilon),
      top_k_(config.policy_top_k),
      min_support_(config.min_support),
      section_tag_(section_tag) {}

SanitizedOutput DpPolicyBase::Release(const MiningOutput& frequent,
                                      const WindowContext& ctx,
                                      PolicyStats* stats) {
  std::vector<DpItem> items;
  items.reserve(frequent.size());
  for (const FrequentItemset& f : frequent.itemsets()) {
    items.push_back({&f.itemset, f.support});
  }
  const uint64_t release_epoch = epoch_;
  SanitizedOutput out(min_support_, ctx.window_size);
  const double start_ns = NowNs();
  ReleaseItems(items, ctx, &out);
  out.Seal();
  const double mechanism_ns = NowNs() - start_ns;

  const double spent = EpsilonSpent();
  cumulative_epsilon_ = Accumulate(cumulative_epsilon_, spent);
  ++epoch_;

  if (stats != nullptr) {
    stats->epoch = release_epoch;
    stats->noise_ns = mechanism_ns;
    stats->epsilon_spent = spent;
    stats->epsilon_cumulative = cumulative_epsilon_;
  }
  return out;
}

void DpPolicyBase::Checkpoint(persist::CheckpointWriter* writer) const {
  writer->Tag(section_tag_);
  writer->U64(epoch_);
  writer->F64(cumulative_epsilon_);
}

Status DpPolicyBase::Restore(persist::CheckpointReader* reader) {
  Status tag = reader->ExpectTag(section_tag_, "dp release policy");
  if (!tag.ok()) return tag;
  uint64_t epoch = reader->U64();
  double cumulative = reader->F64();
  if (!reader->ok()) return reader->status();
  epoch_ = epoch;
  cumulative_epsilon_ = cumulative;
  return Status::OK();
}

}  // namespace butterfly
