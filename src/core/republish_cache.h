/// \file republish_cache.h
/// \brief Defense against averaging over consecutive releases (Prior
/// Knowledge 2, §V-C.2 of the paper).
///
/// Independent re-perturbation of an unchanged support would let an
/// adversary average consecutive releases and shrink the noise by the law of
/// large numbers. The cache therefore pins each itemset's sanitized value:
/// as long as its true support stays the same from window to window, the
/// very same sanitized support is republished, so repeated observation adds
/// zero information. A changed true support invalidates the entry and a
/// fresh draw is made.

#ifndef BUTTERFLY_CORE_REPUBLISH_CACHE_H_
#define BUTTERFLY_CORE_REPUBLISH_CACHE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/itemset.h"
#include "common/status.h"
#include "common/types.h"

namespace butterfly {

namespace persist {
class CheckpointWriter;
class CheckpointReader;
}  // namespace persist

class RepublishCache {
 public:
  struct Entry {
    Support true_support = 0;
    Support sanitized_support = 0;
    double bias = 0;
    double variance = 0;
  };

  /// \param max_idle_epochs entries unseen for this many windows are pruned.
  explicit RepublishCache(uint64_t max_idle_epochs = 4)
      : max_idle_epochs_(max_idle_epochs) {}

  /// The pinned sanitized value for \p itemset, if its true support still
  /// equals \p true_support. Marks the entry as seen this epoch. Not
  /// thread-safe: the cache belongs to one engine, whose release runs on one
  /// thread.
  std::optional<Entry> Lookup(const Itemset& itemset, Support true_support);

  /// Pins a fresh sanitized value.
  void Store(const Itemset& itemset, const Entry& entry);

  /// Advances the window epoch and prunes long-unseen entries.
  void NextEpoch();

  /// Drops every pinned value (audit-driven redraw support).
  void Clear() { entries_.clear(); }

  size_t size() const { return entries_.size(); }

  /// Serializes every pinned entry (sorted by itemset for deterministic
  /// bytes) plus the epoch clock. The cache is ESSENTIAL checkpoint state:
  /// losing a pin re-perturbs an unchanged support after restart, which is
  /// exactly the averaging leak (Prior Knowledge 2) the cache defends
  /// against. The idle budget is a construction constant and is not
  /// written.
  void Checkpoint(persist::CheckpointWriter* writer) const;

  /// Restores from a checkpoint section, replacing the current contents.
  /// The cache keeps its own idle budget.
  Status Restore(persist::CheckpointReader* reader);

 private:
  struct Slot {
    Entry entry;
    uint64_t last_seen = 0;
  };

  uint64_t max_idle_epochs_;
  uint64_t epoch_ = 0;
  std::unordered_map<Itemset, Slot, ItemsetHash> entries_;
};

}  // namespace butterfly

#endif  // BUTTERFLY_CORE_REPUBLISH_CACHE_H_
