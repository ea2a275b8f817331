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
///
/// The pins are one run sorted by itemset, which a release's lookups, in
/// canonical order, walk forward; keys new in an epoch collect in a second
/// sorted run that NextEpoch merges in after it drops idle entries.

#ifndef BUTTERFLY_CORE_REPUBLISH_CACHE_H_
#define BUTTERFLY_CORE_REPUBLISH_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

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
  void Clear() {
    run_.clear();
    fresh_.clear();
  }

  size_t size() const { return run_.size() + fresh_.size(); }

  /// Serializes every pinned entry (sorted by itemset for deterministic
  /// bytes) plus the epoch clock. The cache is ESSENTIAL checkpoint state:
  /// losing a pin re-perturbs an unchanged support after restart, which is
  /// exactly the averaging leak (Prior Knowledge 2) the cache defends
  /// against. The idle budget is a construction constant and is not
  /// written.
  void Checkpoint(persist::CheckpointWriter* writer) const;

  /// Restores from a checkpoint section, replacing the current contents.
  /// Entries may come in any order; a duplicate itemset is rejected. The
  /// cache keeps its own idle budget.
  Status Restore(persist::CheckpointReader* reader);

 private:
  struct Slot {
    Itemset itemset;
    Entry entry;
    uint64_t last_seen = 0;
  };

  /// The slot pinning \p itemset, or null. Leaves cursor_ where the run's
  /// search for it ended.
  Slot* Find(const Itemset& itemset);

  uint64_t max_idle_epochs_;
  uint64_t epoch_ = 0;
  std::vector<Slot> run_;    ///< sorted by itemset, duplicate-free
  std::vector<Slot> fresh_;  ///< keys stored this epoch and not in run_, sorted
  size_t cursor_ = 0;  ///< where Find's last search ended; only a hint
};

}  // namespace butterfly

#endif  // BUTTERFLY_CORE_REPUBLISH_CACHE_H_
