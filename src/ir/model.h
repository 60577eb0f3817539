// Structural model IR: actors, parameters, systems (subsystem nesting) and
// lines (signal relationships).
//
// Mirrors the two-part layout of a Simulink model file the paper describes
// in §3.1: actors carry only their own information (name, type, operator,
// port counts, parameters); lines separately record the data-flow
// relationships between ports.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/datatype.h"

namespace accmos {

class System;

// A parse/build-time error in a model (unknown type, bad wiring, ...).
class ModelError : public std::runtime_error {
 public:
  explicit ModelError(const std::string& what) : std::runtime_error(what) {}
};

// String-keyed actor parameters with typed getters. Simulink stores block
// parameters as strings; we keep that representation and parse on demand.
class ParamMap {
 public:
  void set(const std::string& key, std::string value);
  void setDouble(const std::string& key, double value);
  void setInt(const std::string& key, int64_t value);

  bool has(const std::string& key) const;
  std::string getString(const std::string& key,
                        const std::string& def = "") const;
  double getDouble(const std::string& key, double def = 0.0) const;
  // Throws ModelError naming `key` unless the whole value is a decimal
  // integer that fits int64_t.
  int64_t getInt(const std::string& key, int64_t def = 0) const;
  bool getBool(const std::string& key, bool def = false) const;
  // Comma/space separated list of doubles, e.g. lookup table data.
  std::vector<double> getDoubleList(const std::string& key) const;

  const std::map<std::string, std::string>& raw() const { return map_; }

 private:
  std::map<std::string, std::string> map_;
};

// Upper bound on count- and size-like integer parameters (port counts and
// indices, widths, taps): far above any real model, and small enough that
// the product of two of them stays inside int.
inline constexpr int kMaxDimParam = 1 << 15;

// One block instance. Subsystem-type actors own a nested System.
class Actor {
 public:
  Actor(std::string name, std::string type)
      : name_(std::move(name)), type_(std::move(type)) {}

  const std::string& name() const { return name_; }
  const std::string& type() const { return type_; }

  ParamMap& params() { return params_; }
  const ParamMap& params() const { return params_; }

  // Declared output data type (the type this actor produces). Defaults to
  // f64, Simulink's default signal type.
  DataType dtype() const;
  void setDtype(DataType t);

  // Declared signal width (vector length) of the outputs, 1..kMaxDimParam.
  int width() const;
  void setWidth(int w);

  // An int parameter that must lie in [lo, hi]: port counts, widths,
  // lengths, bit counts. Throws ModelError naming this actor and `key`
  // when the value is malformed or out of range.
  int intParam(const std::string& key, int def, int lo, int hi) const;

  // Nested system for Subsystem / EnabledSubsystem actors.
  System* subsystem() { return subsystem_.get(); }
  const System* subsystem() const { return subsystem_.get(); }
  System& makeSubsystem();
  bool isSubsystem() const { return subsystem_ != nullptr; }

 private:
  std::string name_;
  std::string type_;
  ParamMap params_;
  std::unique_ptr<System> subsystem_;
};

// A connection from one actor's output port to another actor's input port.
// Ports are 1-based, matching Simulink's numbering and the model file format.
struct Line {
  std::string fromActor;
  int fromPort = 1;
  std::string toActor;
  int toPort = 1;
};

// A flat container of actors and lines; subsystems nest further Systems.
class System {
 public:
  explicit System(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // Adds an actor; name must be unique within this system.
  Actor& addActor(const std::string& name, const std::string& type);
  Actor* findActor(const std::string& name);
  const Actor* findActor(const std::string& name) const;

  void connect(const std::string& fromActor, int fromPort,
               const std::string& toActor, int toPort);
  // Convenience: output port 1 -> input port `toPort`.
  void connect(const std::string& fromActor, const std::string& toActor,
               int toPort = 1);

  const std::vector<std::unique_ptr<Actor>>& actors() const { return actors_; }
  const std::vector<Line>& lines() const { return lines_; }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<Line> lines_;
};

class Model {
 public:
  explicit Model(std::string name)
      : name_(std::move(name)), root_(std::make_unique<System>("root")) {}

  const std::string& name() const { return name_; }
  System& root() { return *root_; }
  const System& root() const { return *root_; }

  // Total actor count including all nested subsystems (subsystem actors
  // themselves are counted, matching Table 1's #Actor accounting).
  int countActors() const;
  // Total number of subsystem actors at any depth.
  int countSubsystems() const;

 private:
  static void countIn(const System& sys, int* actors, int* subsystems);

  std::string name_;
  std::unique_ptr<System> root_;
};

}  // namespace accmos
