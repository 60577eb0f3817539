#include "ir/model.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace accmos {

void ParamMap::set(const std::string& key, std::string value) {
  map_[key] = std::move(value);
}

void ParamMap::setDouble(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  map_[key] = os.str();
}

void ParamMap::setInt(const std::string& key, int64_t value) {
  map_[key] = std::to_string(value);
}

bool ParamMap::has(const std::string& key) const {
  return map_.find(key) != map_.end();
}

std::string ParamMap::getString(const std::string& key,
                                const std::string& def) const {
  auto it = map_.find(key);
  return it == map_.end() ? def : it->second;
}

double ParamMap::getDouble(const std::string& key, double def) const {
  auto it = map_.find(key);
  if (it == map_.end()) return def;
  return std::strtod(it->second.c_str(), nullptr);
}

int64_t ParamMap::getInt(const std::string& key, int64_t def) const {
  auto it = map_.find(key);
  if (it == map_.end()) return def;
  const std::string& v = it->second;
  // strtoll alone would skip leading blanks and stop at trailing junk.
  const size_t first = !v.empty() && (v[0] == '-' || v[0] == '+') ? 1 : 0;
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v.c_str(), &end, 10);
  if (first >= v.size() ||
      std::isdigit(static_cast<unsigned char>(v[first])) == 0 ||
      *end != '\0' || errno == ERANGE) {
    throw ModelError("parameter '" + key + "': '" + v +
                     "' is not an integer in the 64-bit range");
  }
  return n;
}

bool ParamMap::getBool(const std::string& key, bool def) const {
  auto it = map_.find(key);
  if (it == map_.end()) return def;
  const std::string& v = it->second;
  return v == "1" || v == "true" || v == "on" || v == "yes";
}

std::vector<double> ParamMap::getDoubleList(const std::string& key) const {
  std::vector<double> out;
  auto it = map_.find(key);
  if (it == map_.end()) return out;
  std::istringstream is(it->second);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    if (tok.empty()) continue;
    out.push_back(std::strtod(tok.c_str(), nullptr));
  }
  return out;
}

DataType Actor::dtype() const {
  const std::string s = params_.getString("dtype", "f64");
  auto t = dataTypeFromName(s);
  if (!t) throw ModelError("actor '" + name_ + "': unknown dtype '" + s + "'");
  return *t;
}

void Actor::setDtype(DataType t) {
  params_.set("dtype", std::string(dataTypeName(t)));
}

int Actor::width() const { return intParam("width", 1, 1, kMaxDimParam); }

int Actor::intParam(const std::string& key, int def, int lo, int hi) const {
  int64_t v = def;
  try {
    v = params_.getInt(key, def);
  } catch (const ModelError& e) {
    throw ModelError("actor '" + name_ + "': " + e.what());
  }
  if (v < lo || v > hi) {
    throw ModelError("actor '" + name_ + "': parameter '" + key +
                     "' must be in " + std::to_string(lo) + ".." +
                     std::to_string(hi) + ", not " + std::to_string(v));
  }
  return static_cast<int>(v);
}

void Actor::setWidth(int w) { params_.setInt("width", w); }

System& Actor::makeSubsystem() {
  if (!subsystem_) subsystem_ = std::make_unique<System>(name_);
  return *subsystem_;
}

Actor& System::addActor(const std::string& name, const std::string& type) {
  if (findActor(name) != nullptr) {
    throw ModelError("system '" + name_ + "': duplicate actor '" + name + "'");
  }
  actors_.push_back(std::make_unique<Actor>(name, type));
  return *actors_.back();
}

Actor* System::findActor(const std::string& name) {
  for (auto& a : actors_) {
    if (a->name() == name) return a.get();
  }
  return nullptr;
}

const Actor* System::findActor(const std::string& name) const {
  for (const auto& a : actors_) {
    if (a->name() == name) return a.get();
  }
  return nullptr;
}

void System::connect(const std::string& fromActor, int fromPort,
                     const std::string& toActor, int toPort) {
  lines_.push_back(Line{fromActor, fromPort, toActor, toPort});
}

void System::connect(const std::string& fromActor, const std::string& toActor,
                     int toPort) {
  connect(fromActor, 1, toActor, toPort);
}

int Model::countActors() const {
  int actors = 0;
  int subsystems = 0;
  countIn(*root_, &actors, &subsystems);
  return actors;
}

int Model::countSubsystems() const {
  int actors = 0;
  int subsystems = 0;
  countIn(*root_, &actors, &subsystems);
  return subsystems;
}

void Model::countIn(const System& sys, int* actors, int* subsystems) {
  for (const auto& a : sys.actors()) {
    ++*actors;
    if (a->isSubsystem()) {
      ++*subsystems;
      countIn(*a->subsystem(), actors, subsystems);
    }
  }
}

}  // namespace accmos
