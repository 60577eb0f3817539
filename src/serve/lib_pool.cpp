#include "serve/lib_pool.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "actors/spec.h"
#include "graph/flatten.h"
#include "opt/pipeline.h"
#include "parser/model_io.h"
#include "serve/protocol.h"
#include "sim/failure.h"

namespace accmos::serve {

std::string PoolEntry::canonicalOptions(const SimOptions& opt) {
  // The wire-canonical JSON covers exactly the knobs that can change what
  // an entry computes; the worker count is scheduling, never observations.
  SimOptions normalized = opt;
  normalized.campaign.workers = 0;
  return toJson(normalized).write();
}

PoolEntry::PoolEntry(std::string modelText, const SimOptions& opt)
    : options_(canonicalOptions(opt)), modelText_(std::move(modelText)) {
  // A model that does not parse, flatten or validate is a load failure, so
  // the client exits 4 on it as the local CLI does. It is validated before
  // the optimizer runs, as the CLI's Simulator does: a pass could fold an
  // invalid actor away.
  try {
    LoadedModel loaded = loadModelFromString(modelText_);
    model_ = std::move(loaded.model);
    const FlatModel flat = flatten(*model_, Registry::instance());
    validateFlatModel(flat);
    optimized_ = optimizeModel(flat, opt, &optStats_);
  } catch (const ModelError& e) {
    throw ModelLoadError(e.what());
  }
  evaluator_ = std::make_unique<SpecEvaluator>(optimized_, opt);
}

size_t PoolEntry::residentBytes() const {
  return modelText_.size() + evaluator_->residentBytes();
}

PoolLease::PoolLease(PoolLease&& other) noexcept
    : pool_(other.pool_), entry_(std::move(other.entry_)), hit_(other.hit_) {
  other.pool_ = nullptr;
  other.entry_.reset();
}

PoolLease& PoolLease::operator=(PoolLease&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr && entry_ != nullptr) pool_->release(entry_);
    pool_ = other.pool_;
    entry_ = std::move(other.entry_);
    hit_ = other.hit_;
    other.pool_ = nullptr;
    other.entry_.reset();
  }
  return *this;
}

PoolLease::~PoolLease() {
  if (pool_ != nullptr && entry_ != nullptr) pool_->release(entry_);
}

ModelLibPool::ModelLibPool(uint64_t byteBudget) : byteBudget_(byteBudget) {}

PoolLease ModelLibPool::acquire(const std::string& modelText,
                                const SimOptions& opt) {
  const std::string options = PoolEntry::canonicalOptions(opt);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::find_if(entries_.begin(), entries_.end(), [&](const auto& e) {
    return e->modelText_ == modelText && e->options_ == options;
  });
  const bool hit = it != entries_.end();
  std::shared_ptr<PoolEntry> entry;
  if (hit) {
    ++hits_;
    entry = *it;
  } else {
    ++misses_;
    entry = std::make_shared<PoolEntry>(modelText, opt);
    entries_.push_back(entry);
  }
  entry->lastUse_ = ++tick_;
  ++entry->users_;
  evictToBudgetLocked(entry.get());
  return PoolLease(this, std::move(entry), hit);
}

void ModelLibPool::release(const std::shared_ptr<PoolEntry>& entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry->users_ > 0) --entry->users_;
  // The entry's footprint grows during its first request (the engine
  // compiles and loads lazily), so re-check the budget on the way out.
  evictToBudgetLocked(nullptr);
}

void ModelLibPool::evictToBudgetLocked(const PoolEntry* keep) {
  if (byteBudget_ == 0) return;  // 0 = unbounded
  for (;;) {
    uint64_t resident = 0;
    for (const auto& e : entries_) resident += e->residentBytes();
    if (resident <= byteBudget_) return;
    // LRU idle victim.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if ((*it)->users_ > 0 || it->get() == keep) continue;
      if (victim == entries_.end() || (*it)->lastUse_ < (*victim)->lastUse_) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything pinned; over budget
    entries_.erase(victim);
    ++evictions_;
  }
}

PoolStats ModelLibPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PoolStats s;
  s.entries = entries_.size();
  for (const auto& e : entries_) s.residentBytes += e->residentBytes();
  s.byteBudget = byteBudget_;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  return s;
}

}  // namespace accmos::serve
