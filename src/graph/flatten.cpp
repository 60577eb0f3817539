#include "graph/flatten.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace accmos {
namespace {

bool isSubsystemType(const Actor& a) {
  return a.type() == "Subsystem" || a.type() == "EnabledSubsystem";
}

bool isEnabledSubsystem(const Actor& a) {
  return a.type() == "EnabledSubsystem";
}

// Identifies one actor inside one system instance. Every System object is a
// unique instance (no block libraries), so pointers are stable keys.
struct PortRef {
  const System* system = nullptr;
  const Actor* actor = nullptr;
  int port = 1;  // 1-based

  bool operator<(const PortRef& o) const {
    return std::tie(system, actor, port) < std::tie(o.system, o.actor, o.port);
  }
};

class Flattener {
 public:
  Flattener(const Model& model, const ActorCatalog& catalog)
      : model_(model), catalog_(catalog) {
    out_.modelName = model.name();
  }

  FlatModel run() {
    indexSystem(model_.root(), nullptr, nullptr);
    collectDataStores();
    instantiate(model_.root(), model_.name(), false);
    resolveAllInputs();
    collectRootPorts();
    scheduleActors();
    return std::move(out_);
  }

 private:
  struct SystemCtx {
    const System* parentSystem = nullptr;  // system containing `owner`
    const Actor* owner = nullptr;          // subsystem actor owning this system
  };

  // ---- indexing -------------------------------------------------------

  void indexSystem(const System& sys, const System* parent,
                   const Actor* owner) {
    ctx_[&sys] = SystemCtx{parent, owner};
    for (const auto& a : sys.actors()) {
      if (a->isSubsystem()) {
        if (!isSubsystemType(*a)) {
          throw ModelError("actor '" + a->name() +
                           "' has a nested system but type '" + a->type() +
                           "'");
        }
        indexSystem(*a->subsystem(), &sys, a.get());
      } else if (isSubsystemType(*a)) {
        throw ModelError("subsystem actor '" + a->name() +
                         "' has no nested system");
      }
    }
  }

  void collectDataStores() {
    collectStoresIn(model_.root());
  }

  void collectStoresIn(const System& sys) {
    for (const auto& a : sys.actors()) {
      if (a->type() == "DataStoreMemory") {
        DataStoreInfo info;
        info.name = a->params().getString("store", a->name());
        info.type = a->dtype();
        info.width = a->width();
        info.initial = a->params().getDouble("initial", 0.0);
        for (const auto& existing : out_.dataStores) {
          if (existing.name == info.name) {
            throw ModelError("duplicate data store '" + info.name + "'");
          }
        }
        out_.dataStores.push_back(std::move(info));
      }
      if (a->isSubsystem()) collectStoresIn(*a->subsystem());
    }
  }

  int storeIndex(const Actor& a) const {
    std::string name = a.params().getString("store");
    if (name.empty()) {
      throw ModelError("actor '" + a.name() + "' needs a 'store' parameter");
    }
    for (size_t k = 0; k < out_.dataStores.size(); ++k) {
      if (out_.dataStores[k].name == name) return static_cast<int>(k);
    }
    throw ModelError("actor '" + a.name() + "' references unknown data store '" +
                     name + "'");
  }

  // ---- instantiation --------------------------------------------------

  bool isProxyPort(const System& sys, const Actor& a) const {
    // Inport/Outport inside a nested system are wiring proxies; at the root
    // they are the model's real I/O actors.
    if (a.type() != "Inport" && a.type() != "Outport") return false;
    return ctx_.at(&sys).owner != nullptr;
  }

  void instantiate(const System& sys, const std::string& pathPrefix,
                   bool inEnabled) {
    for (const auto& a : sys.actors()) {
      if (a->isSubsystem()) {
        bool subEnabled = inEnabled;
        if (isEnabledSubsystem(*a)) {
          if (inEnabled) {
            throw ModelError("nested enabled subsystems are not supported ('" +
                             a->name() + "')");
          }
          // The enable signal is resolved after all outputs exist.
          pendingEnables_.push_back(a.get());
          subEnabled = true;
        }
        instantiate(*a->subsystem(), pathPrefix + "_" + a->name(), subEnabled);
        continue;
      }
      if (isProxyPort(sys, *a)) continue;

      FlatActor fa;
      fa.id = static_cast<int>(out_.actors.size());
      fa.path = pathPrefix + "_" + a->name();
      fa.src = a.get();
      fa.delayClass = catalog_.isDelayClass(*a);
      if (a->type() == "DataStoreRead" || a->type() == "DataStoreWrite" ||
          a->type() == "DataStoreMemory") {
        fa.dataStore = storeIndex(*a);
      }
      auto layout = catalog_.ports(*a);
      fa.inputs.assign(static_cast<size_t>(layout.numInputs), -1);
      for (int p = 0; p < layout.numOutputs; ++p) {
        SignalInfo sig;
        sig.type = catalog_.outputType(*a, p);
        sig.width = catalog_.outputWidth(*a, p);
        sig.producerActor = fa.id;
        sig.producerPort = p;
        sig.name = fa.path + ":" + std::to_string(p + 1);
        fa.outputs.push_back(static_cast<int>(out_.signals.size()));
        out_.signals.push_back(std::move(sig));
      }
      flatByActor_[a.get()] = fa.id;
      systemOf_[a.get()] = &sys;
      out_.actors.push_back(std::move(fa));
    }
  }

  // ---- signal resolution ----------------------------------------------

  // Finds the line driving (toActor, toPort) in `sys`; errors on 0 or >1.
  const Line& drivingLine(const System& sys, const std::string& toActor,
                          int toPort) const {
    const Line* found = nullptr;
    for (const auto& l : sys.lines()) {
      if (l.toActor == toActor && l.toPort == toPort) {
        if (found != nullptr) {
          throw ModelError("input port " + std::to_string(toPort) +
                           " of actor '" + toActor + "' in system '" +
                           sys.name() + "' is driven by multiple lines");
        }
        found = &l;
      }
    }
    if (found == nullptr) {
      throw ModelError("input port " + std::to_string(toPort) + " of actor '" +
                       toActor + "' in system '" + sys.name() +
                       "' is unconnected");
    }
    return *found;
  }

  // Resolves the signal produced at (sys, actorName, outPort), tracing
  // through subsystem boundaries and Inport/Outport proxies.
  int resolveOutput(const System& sys, const std::string& actorName,
                    int outPort) {
    PortRefKey key{&sys, actorName, outPort};
    auto memo = resolved_.find(key);
    if (memo != resolved_.end()) {
      if (memo->second == kInProgress) {
        throw ModelError("cyclic port wiring through '" + actorName + "'");
      }
      return memo->second;
    }
    resolved_[key] = kInProgress;
    int sig = resolveOutputUncached(sys, actorName, outPort);
    resolved_[key] = sig;
    return sig;
  }

  int resolveOutputUncached(const System& sys, const std::string& actorName,
                            int outPort) {
    const Actor* a = sys.findActor(actorName);
    if (a == nullptr) {
      throw ModelError("line references unknown actor '" + actorName +
                       "' in system '" + sys.name() + "'");
    }
    if (a->isSubsystem()) {
      // Output comes from the inner Outport proxy with port == outPort.
      const Actor* proxy = findPortProxy(*a->subsystem(), "Outport", outPort);
      if (proxy == nullptr) {
        throw ModelError("subsystem '" + a->name() + "' has no Outport " +
                         std::to_string(outPort));
      }
      const Line& l = drivingLine(*a->subsystem(), proxy->name(), 1);
      return resolveOutput(*a->subsystem(), l.fromActor, l.fromPort);
    }
    if (isProxyPort(sys, *a)) {
      if (a->type() == "Outport") {
        throw ModelError("Outport proxy '" + a->name() +
                         "' used as a signal source");
      }
      // Inner Inport k aliases input port k of the owning subsystem actor.
      int portIdx = a->intParam("port", 1, 1, kMaxDimParam);
      const SystemCtx& c = ctx_.at(&sys);
      const Line& l = drivingLine(*c.parentSystem, c.owner->name(), portIdx);
      return resolveOutput(*c.parentSystem, l.fromActor, l.fromPort);
    }
    // Concrete actor.
    int flatId = flatByActor_.at(a);
    const FlatActor& fa = out_.actors[static_cast<size_t>(flatId)];
    if (outPort < 1 || outPort > static_cast<int>(fa.outputs.size())) {
      throw ModelError("actor '" + fa.path + "' has no output port " +
                       std::to_string(outPort));
    }
    return fa.outputs[static_cast<size_t>(outPort - 1)];
  }

  static const Actor* findPortProxy(const System& sys, const std::string& type,
                                    int portIdx) {
    const Actor* found = nullptr;
    for (const auto& a : sys.actors()) {
      if (a->type() == type && a->params().getInt("port", 1) == portIdx) {
        if (found != nullptr) {
          throw ModelError("duplicate " + type + " index " +
                           std::to_string(portIdx) + " in system '" +
                           sys.name() + "'");
        }
        found = a.get();
      }
    }
    return found;
  }

  // Every line must target an existing actor and a valid input port;
  // silently dropped wiring is a modeling error.
  void checkLines(const System& sys) {
    for (const auto& l : sys.lines()) {
      const Actor* to = sys.findActor(l.toActor);
      if (to == nullptr) {
        throw ModelError("line targets unknown actor '" + l.toActor +
                         "' in system '" + sys.name() + "'");
      }
      int maxPort;
      if (to->isSubsystem()) {
        maxPort = 0;
        for (const auto& a : to->subsystem()->actors()) {
          if (a->type() == "Inport") {
            maxPort = std::max(
                maxPort, a->intParam("port", 1, 1, kMaxDimParam));
          }
        }
        if (isEnabledSubsystem(*to)) ++maxPort;
      } else if (isProxyPort(sys, *to) || to->type() == "Outport") {
        maxPort = 1;
      } else {
        maxPort = catalog_.ports(*to).numInputs;
      }
      if (l.toPort < 1 || l.toPort > maxPort) {
        throw ModelError("line targets nonexistent input port " +
                         std::to_string(l.toPort) + " of actor '" +
                         l.toActor + "' in system '" + sys.name() + "'");
      }
    }
    for (const auto& a : sys.actors()) {
      if (a->isSubsystem()) checkLines(*a->subsystem());
    }
  }

  void resolveAllInputs() {
    checkLines(model_.root());
    for (auto& fa : out_.actors) {
      const System& sys = *systemOf_.at(fa.src);
      for (size_t p = 0; p < fa.inputs.size(); ++p) {
        const Line& l = drivingLine(sys, fa.src->name(), static_cast<int>(p) + 1);
        fa.inputs[p] = resolveOutput(sys, l.fromActor, l.fromPort);
      }
    }
    // Enabled subsystems: resolve enable ports, then assign the enable
    // signal to every flat actor instantiated inside.
    for (const Actor* sub : pendingEnables_) {
      const System& inner = *sub->subsystem();
      const System& parent = *ctx_.at(&inner).parentSystem;
      int enablePort = enablePortIndex(*sub);
      const Line& l = drivingLine(parent, sub->name(), enablePort);
      int enableSig = resolveOutput(parent, l.fromActor, l.fromPort);
      assignEnable(inner, enableSig);
    }
  }

  // The enable port is numbered after all data Inports of the subsystem.
  int enablePortIndex(const Actor& sub) const {
    int maxPort = 0;
    for (const auto& a : sub.subsystem()->actors()) {
      if (a->type() == "Inport") {
        maxPort = std::max(maxPort,
                           a->intParam("port", 1, 1, kMaxDimParam));
      }
    }
    return maxPort + 1;
  }

  void assignEnable(const System& sys, int enableSig) {
    for (const auto& a : sys.actors()) {
      if (a->isSubsystem()) {
        assignEnable(*a->subsystem(), enableSig);
        continue;
      }
      auto it = flatByActor_.find(a.get());
      if (it != flatByActor_.end()) {
        out_.actors[static_cast<size_t>(it->second)].enableSignal = enableSig;
      }
    }
  }

  // ---- root ports -----------------------------------------------------

  void collectRootPorts() {
    std::map<int, int> ins;
    std::map<int, int> outs;
    for (const auto& fa : out_.actors) {
      const System& sys = *systemOf_.at(fa.src);
      if (ctx_.at(&sys).owner != nullptr) continue;
      int portIdx = fa.src->intParam("port", 1, 1, kMaxDimParam);
      if (fa.type() == "Inport") {
        if (!ins.emplace(portIdx, fa.id).second) {
          throw ModelError("duplicate root Inport index " +
                           std::to_string(portIdx));
        }
      } else if (fa.type() == "Outport") {
        if (!outs.emplace(portIdx, fa.id).second) {
          throw ModelError("duplicate root Outport index " +
                           std::to_string(portIdx));
        }
      }
    }
    for (const auto& [idx, id] : ins) out_.rootInports.push_back(id);
    for (const auto& [idx, id] : outs) out_.rootOutports.push_back(id);
  }

  // ---- scheduling -----------------------------------------------------

  void scheduleActors() {
    const size_t n = out_.actors.size();
    std::vector<std::vector<int>> succ(n);
    std::vector<int> indeg(n, 0);

    auto addEdge = [&](int from, int to) {
      if (from == to) return;
      succ[static_cast<size_t>(from)].push_back(to);
      ++indeg[static_cast<size_t>(to)];
    };

    for (const auto& fa : out_.actors) {
      if (!fa.delayClass) {
        for (int sig : fa.inputs) {
          addEdge(out_.signals[static_cast<size_t>(sig)].producerActor, fa.id);
        }
      }
      if (fa.enableSignal >= 0) {
        addEdge(out_.signals[static_cast<size_t>(fa.enableSignal)].producerActor,
                fa.id);
      }
    }

    // Kahn's algorithm with deterministic id-ordered selection.
    std::set<int> ready;
    for (size_t k = 0; k < n; ++k) {
      if (indeg[k] == 0) ready.insert(static_cast<int>(k));
    }
    while (!ready.empty()) {
      int id = *ready.begin();
      ready.erase(ready.begin());
      out_.schedule.push_back(id);
      for (int s : succ[static_cast<size_t>(id)]) {
        if (--indeg[static_cast<size_t>(s)] == 0) ready.insert(s);
      }
    }
    if (out_.schedule.size() != n) {
      std::ostringstream os;
      os << "algebraic loop detected involving:";
      for (size_t k = 0; k < n; ++k) {
        if (indeg[k] > 0) os << " '" << out_.actors[k].path << "'";
      }
      os << " (insert a UnitDelay/Memory actor to break the loop)";
      throw ModelError(os.str());
    }
  }

  // ---- state ----------------------------------------------------------

  struct PortRefKey {
    const System* system;
    std::string actor;
    int port;
    bool operator<(const PortRefKey& o) const {
      return std::tie(system, actor, port) <
             std::tie(o.system, o.actor, o.port);
    }
  };
  static constexpr int kInProgress = -2;

  const Model& model_;
  const ActorCatalog& catalog_;
  FlatModel out_;
  std::map<const System*, SystemCtx> ctx_;
  std::map<const Actor*, int> flatByActor_;
  std::map<const Actor*, const System*> systemOf_;
  std::map<PortRefKey, int> resolved_;
  std::vector<const Actor*> pendingEnables_;
};

}  // namespace

const FlatActor* FlatModel::findByPath(const std::string& path) const {
  for (const auto& fa : actors) {
    if (fa.path == path) return &fa;
  }
  return nullptr;
}

FlatModel flatten(const Model& model, const ActorCatalog& catalog) {
  return Flattener(model, catalog).run();
}

}  // namespace accmos
