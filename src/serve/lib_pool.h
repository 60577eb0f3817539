// The accmosd model-library pool: loaded, compiled, ready-to-run models
// kept resident between requests (docs/SERVICE.md, "Pool semantics").
//
// An entry owns everything a request would otherwise rebuild per process —
// the parsed model, its optimized FlatModel, and a warm SpecEvaluator
// whose one AccMoSEngine holds the dlopen'd library. A repeat request for
// the same (options, model text) identity therefore skips generation,
// compilation AND dlopen entirely, whatever test case it carries: the
// stimulus is run data, not part of the library. The regression handles are
// CompilerDriver::compilerInvocations() and ModelLib::loadCount(), both
// required unchanged across a warm hit by tests/test_serve.cpp.
//
// Eviction is LRU under a byte budget: entries are charged their resident
// footprint (model text + generated source + on-disk artifact size, via
// SpecEvaluator::residentBytes; the artifact is sized once, when its
// engine is built), and when the pool exceeds its budget the
// least-recently-used idle entry is dropped. Entries serving an in-flight
// request (users > 0) are never evicted — a lease pins its entry. An
// evicted model transparently reloads on next use (a miss), and the
// content-addressed compile cache makes that reload cheap: the compiler
// is not re-invoked, only the dlopen is repaid.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/flat_model.h"
#include "ir/model.h"
#include "opt/stats.h"
#include "sim/campaign.h"
#include "sim/options.h"

namespace accmos::serve {

// Snapshot for `accmos client stats` and eviction decisions.
struct PoolStats {
  uint64_t entries = 0;
  uint64_t residentBytes = 0;
  uint64_t byteBudget = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

// One resident model. Constructed from the model XML text a client shipped
// plus the request's options. Its identity is that text and the options'
// wire-canonical form with the worker count normalized out — the worker
// count never changes observations, so one entry serves requests with any
// workers value: each passes its own to evaluate(). Any number of requests
// may use one entry at once; its evaluator is re-entrant.
class PoolEntry {
 public:
  PoolEntry(std::string modelText, const SimOptions& opt);

  PoolEntry(const PoolEntry&) = delete;
  PoolEntry& operator=(const PoolEntry&) = delete;

  // The optimized model the evaluator runs.
  const FlatModel& optimizedModel() const { return optimized_; }
  const OptStats& optStats() const { return optStats_; }
  SpecEvaluator& evaluator() { return *evaluator_; }

  // Resident footprint charged against the pool budget.
  size_t residentBytes() const;

 private:
  // The canonical options (worker count normalized out) the identity uses.
  static std::string canonicalOptions(const SimOptions& opt);

  // The entry's identity, byte for byte; the text is held only here.
  std::string options_;
  std::string modelText_;
  std::unique_ptr<Model> model_;  // the optimized model's actors point here
  FlatModel optimized_;
  OptStats optStats_;
  std::unique_ptr<SpecEvaluator> evaluator_;

  friend class ModelLibPool;
  uint64_t lastUse_ = 0;  // pool LRU tick, guarded by the pool mutex
  uint32_t users_ = 0;    // in-flight leases, guarded by the pool mutex
};

class ModelLibPool;

// RAII lease: pins the entry against eviction for the request's lifetime.
class PoolLease {
 public:
  PoolLease() = default;
  PoolLease(PoolLease&& other) noexcept;
  PoolLease& operator=(PoolLease&& other) noexcept;
  ~PoolLease();

  PoolEntry* operator->() const { return entry_.get(); }
  PoolEntry& operator*() const { return *entry_; }
  explicit operator bool() const { return entry_ != nullptr; }

  // Was this lease served from a resident entry (no model rebuild)?
  bool poolHit() const { return hit_; }

 private:
  friend class ModelLibPool;
  PoolLease(ModelLibPool* pool, std::shared_ptr<PoolEntry> entry, bool hit)
      : pool_(pool), entry_(std::move(entry)), hit_(hit) {}

  ModelLibPool* pool_ = nullptr;
  std::shared_ptr<PoolEntry> entry_;
  bool hit_ = false;
};

class ModelLibPool {
 public:
  explicit ModelLibPool(uint64_t byteBudget);

  // Returns a lease on the resident entry for (modelText, opt), building
  // it on a miss. An entry serves a request only when both halves of its
  // identity equal the request's byte for byte, so two models never share
  // one, whatever their texts. Construction (parse + flatten + optimize) happens under
  // the pool lock; engine compilation does NOT happen here — the
  // AccMoSEngine builds lazily inside the request, off the pool lock.
  // Throws whatever the model pipeline throws (ModelError and friends) on
  // a bad model.
  PoolLease acquire(const std::string& modelText, const SimOptions& opt);

  PoolStats stats() const;

 private:
  friend class PoolLease;
  void release(const std::shared_ptr<PoolEntry>& entry);

  // Drop LRU idle entries until the pool fits its budget (caller holds
  // mutex_). Entries with users > 0 are skipped; `keep` is never evicted
  // (the entry just acquired may alone exceed the budget — it still has
  // to serve its request).
  void evictToBudgetLocked(const PoolEntry* keep);

  mutable std::mutex mutex_;
  // Found by a scan, as eviction already walks every entry: a text of
  // another length costs one size comparison.
  std::vector<std::shared_ptr<PoolEntry>> entries_;
  uint64_t byteBudget_ = 0;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace accmos::serve
