/// \file butterfly_policy.h
/// \brief The reference ReleasePolicy: the paper's Butterfly pipeline,
/// wrapped unchanged. Routing through this adapter is pure indirection — the
/// released bytes are identical to calling ButterflyEngine directly, which
/// is exactly what the policy conformance suite pins.

#ifndef BUTTERFLY_POLICY_BUTTERFLY_POLICY_H_
#define BUTTERFLY_POLICY_BUTTERFLY_POLICY_H_

#include "core/butterfly.h"
#include "policy/release_policy.h"

namespace butterfly {

class ButterflyReleasePolicy final : public ReleasePolicy {
 public:
  explicit ButterflyReleasePolicy(const ButterflyConfig& config)
      : engine_(config) {}

  ReleasePolicyKind kind() const override {
    return ReleasePolicyKind::kButterfly;
  }

  SanitizedOutput Release(const MiningOutput& frequent,
                          const WindowContext& ctx,
                          ReleaseStats* stats) override;

  uint64_t epoch() const override { return engine_.epoch(); }

  /// Delegates to ButterflyEngine's BFLE section — the on-disk framing is
  /// byte-identical to the pre-policy layout.
  void Checkpoint(persist::CheckpointWriter* writer) const override {
    engine_.Checkpoint(writer);
  }
  Status Restore(persist::CheckpointReader* reader) override {
    return engine_.Restore(reader);
  }

  /// The wrapped engine, for Butterfly-specific consumers (interval attack
  /// envelopes, audits, bias benchmarks). StreamPrivacyEngine::sanitizer()
  /// checks the policy kind before handing this out.
  ButterflyEngine& engine() { return engine_; }
  const ButterflyEngine& engine() const { return engine_; }

 private:
  ButterflyEngine engine_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_POLICY_BUTTERFLY_POLICY_H_
