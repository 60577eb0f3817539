#include "actors/spec.h"

#include <cctype>

#include "actors/common.h"

namespace accmos {

std::string sanitizeIdent(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) != 0) {
    out.insert(out.begin(), 'm');
  }
  return out;
}

std::string dataStoreSymbol(int index, const std::string& name) {
  return "ds" + std::to_string(index) + "_" + sanitizeIdent(name);
}

void ActorSpec::validate(const FlatModel& fm, const FlatActor& fa) const {
  // Default structural check: element-wise actors need every input to be
  // either scalar (broadcast) or exactly the output width.
  if (fa.outputs.empty()) return;
  int w = fm.signal(fa.outputs[0]).width;
  for (size_t p = 0; p < fa.inputs.size(); ++p) {
    int iw = fm.signal(fa.inputs[p]).width;
    if (iw != 1 && iw != w) {
      throw ModelError("actor '" + fa.path + "': input " +
                       std::to_string(p + 1) + " width " + std::to_string(iw) +
                       " incompatible with output width " + std::to_string(w));
    }
  }
}

// ---------------------------------------------------------------------------
// EmitContext helpers.
// ---------------------------------------------------------------------------

std::string EmitContext::inElem(int port, const std::string& idx,
                                DataType domain) const {
  DataType t = inType(port);
  // Scalar inputs broadcast over vector outputs.
  std::string elem = in(port) + "[" +
                     (inWidth(port) == 1 ? std::string("0") : idx) + "]";
  if (isFloatType(domain)) return "(double)" + elem;
  // Integer domain: exact for every C++ integer type.
  if (isFloatType(t)) return "(__int128)accmos_f2i(" + elem + ")";
  return "(__int128)" + elem;
}

std::string foldStmt(DataType t, const std::string& dst,
                     const std::string& expr, bool sat,
                     const std::string& flagVar, const std::string& precVar) {
  const std::string ct(dataTypeCpp(t));
  std::string s = "{ accmos_res _w = accmos_fold<" + ct + ">(" + expr + ", " +
                  (sat ? "1" : "0") + "); " + dst + " = (" + ct + ")_w.value;";
  if (!flagVar.empty()) s += " " + flagVar + " |= _w.wrapped;";
  if (!precVar.empty()) s += " " + precVar + " |= _w.prec;";
  return s + " }";
}

std::string EmitContext::storeOutStmt(const std::string& idx,
                                      const std::string& expr,
                                      const std::string& wrapFlagVar,
                                      const std::string& precFlagVar,
                                      int port) const {
  DataType t = outType(port);
  std::string elem = out(port) + "[" + idx + "]";
  if (t == DataType::F64) {
    return elem + " = (" + expr + ");";
  }
  if (t == DataType::F32) {
    std::string s = "{ double _v = (" + expr + "); " + elem + " = (float)_v;";
    if (!precFlagVar.empty()) {
      s += " if (accmos_isfinite(_v) && (double)" + elem + " != _v) " +
           precFlagVar + " = 1;";
    }
    return s + " }";
  }
  // Integer/bool output: `expr` is an exact __int128 or a double, and the
  // core's accmos_fold overloads take either.
  return foldStmt(t, elem, expr, false, wrapFlagVar, precFlagVar);
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

Registry::Registry() {
  registerSourceActors(specs_);
  registerSinkActors(specs_);
  registerMathActors(specs_);
  registerLogicActors(specs_);
  registerRoutingActors(specs_);
  registerDiscreteActors(specs_);
  registerDiscontinuityActors(specs_);
  registerLookupActors(specs_);
  registerConversionActors(specs_);
  registerContinuousActors(specs_);
}

const Registry& Registry::instance() {
  static const Registry reg;
  return reg;
}

const ActorSpec* Registry::lookup(const std::string& type) const {
  for (const auto& s : specs_) {
    if (s->type() == type) return s.get();
  }
  return nullptr;
}

const ActorSpec* Registry::find(const std::string& type) const {
  return lookup(type);
}

const ActorSpec& Registry::get(const std::string& type) const {
  const ActorSpec* s = lookup(type);
  if (s == nullptr) throw ModelError("unknown actor type '" + type + "'");
  return *s;
}

ActorCatalog::PortLayout Registry::ports(const Actor& actor) const {
  return get(actor.type()).ports(actor);
}

bool Registry::isDelayClass(const Actor& actor) const {
  return get(actor.type()).isDelayClass(actor);
}

DataType Registry::outputType(const Actor& actor, int port) const {
  return get(actor.type()).outputType(actor, port);
}

int Registry::outputWidth(const Actor& actor, int port) const {
  return get(actor.type()).outputWidth(actor, port);
}

// ---------------------------------------------------------------------------
// Plan adaptors.
// ---------------------------------------------------------------------------

CovTraits covTraitsFor(const FlatActor& fa) {
  const ActorSpec& spec = Registry::instance().get(fa);
  CovTraits t;
  t.countsForActorCoverage = spec.countsForActorCoverage(*fa.src);
  t.decisionOutcomes = spec.decisionOutcomes(*fa.src);
  t.numConditions = spec.numConditions(*fa.src);
  t.mcdc = spec.isCombinationCondition(*fa.src);
  return t;
}

std::vector<DiagKind> diagKindsFor(const FlatModel& fm, const FlatActor& fa) {
  return Registry::instance().get(fa).diagnostics(fm, fa);
}

void validateFlatModel(const FlatModel& fm) {
  for (const auto& fa : fm.actors) {
    const ActorSpec& spec = Registry::instance().get(fa);
    if (saturating(fa) && !spec.canSaturate()) {
      throw ModelError("actor '" + fa.path + "': type " + fa.type() +
                       " cannot saturate on overflow (only Sum, Product, "
                       "DataTypeConversion and DiscreteIntegrator can); "
                       "remove its saturate parameter");
    }
    spec.validate(fm, fa);
  }
}

}  // namespace accmos
