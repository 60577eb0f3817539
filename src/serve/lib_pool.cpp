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

namespace {

uint64_t fnv1a64(const std::string& data, uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex16(uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

}  // namespace

PoolEntry::PoolEntry(std::string modelText, const SimOptions& opt)
    : modelText_(std::move(modelText)) {
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

std::string ModelLibPool::key(const std::string& modelText,
                              const SimOptions& opt) {
  // The options travel through their wire-canonical JSON form so the key
  // covers exactly the knobs that can change what an entry computes; the
  // worker count is normalized out (scheduling, never observations — one
  // entry serves any workers value).
  SimOptions normalized = opt;
  normalized.campaign.workers = 0;
  uint64_t h = fnv1a64(toJson(normalized).write());
  h = fnv1a64(modelText, h);
  return hex16(h);
}

PoolLease ModelLibPool::acquire(const std::string& modelText,
                                const SimOptions& opt) {
  const std::string k = key(modelText, opt);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(k);
  bool hit = it != entries_.end();
  if (hit) {
    ++hits_;
  } else {
    ++misses_;
    auto entry = std::make_shared<PoolEntry>(modelText, opt);
    it = entries_.emplace(k, std::move(entry)).first;
  }
  it->second->lastUse_ = ++tick_;
  ++it->second->users_;
  evictToBudgetLocked(it->second.get());
  return PoolLease(this, it->second, hit);
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
    for (const auto& [k, e] : entries_) resident += e->residentBytes();
    if (resident <= byteBudget_) return;
    // LRU idle victim.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second->users_ > 0 || it->second.get() == keep) continue;
      if (victim == entries_.end() ||
          it->second->lastUse_ < victim->second->lastUse_) {
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
  for (const auto& [k, e] : entries_) s.residentBytes += e->residentBytes();
  s.byteBudget = byteBudget_;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  return s;
}

}  // namespace accmos::serve
