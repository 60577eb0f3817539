// Shared helpers for the reproduction benches.
//
// Scaling: the paper simulates 50 million steps per model; that is hours of
// interpreter time. All engines are linear in steps, so the benches default
// to ACCMOS_BENCH_STEPS = 100000 and report per-step-normalized ratios —
// the quantity the paper's Table 2 speedups measure. Set the environment
// variable higher to approach the paper's absolute scale.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_models/suite.h"
#include "sim/simulator.h"

namespace accmos::bench {

inline uint64_t envSteps(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return def;
  return std::strtoull(v, nullptr, 10);
}

inline double envDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return def;
  return std::strtod(v, nullptr);
}

inline uint64_t benchSteps() { return envSteps("ACCMOS_BENCH_STEPS", 100000); }

// Coverage windows: paper uses 5s/15s/60s; default scale 1/20.
inline double covScale() { return envDouble("ACCMOS_COV_SCALE", 0.05); }

inline SimOptions engineOptions(Engine e, uint64_t steps) {
  SimOptions opt;
  opt.engine = e;
  opt.maxSteps = steps;
  if (e == Engine::SSEac || e == Engine::SSErac) {
    // The fast modes cannot diagnose or collect coverage (paper §2).
    opt.coverage = false;
    opt.diagnosis = false;
  }
  return opt;
}

inline void hr(int width = 100) {
  for (int k = 0; k < width; ++k) std::putchar('-');
  std::putchar('\n');
}

// ---- machine-readable reporting -------------------------------------------
//
// Every bench also writes BENCH_<name>.json — a flat list of row objects —
// so CI can archive results and trend them across commits. The directory is
// $ACCMOS_BENCH_JSON_DIR (default: the working directory).

inline std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

class JsonRow {
 public:
  JsonRow& str(const std::string& key, const std::string& value) {
    return add(key, std::string("\"").append(jsonEscape(value)).append("\""));
  }
  JsonRow& num(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return add(key, buf);
  }
  JsonRow& count(const std::string& key, uint64_t value) {
    return add(key, std::to_string(value));
  }
  JsonRow& flag(const std::string& key, bool value) {
    return add(key, value ? "true" : "false");
  }

  std::string render() const {
    std::string out = "{";
    for (size_t k = 0; k < fields_.size(); ++k) {
      if (k > 0) out += ", ";
      out += fields_[k];
    }
    return out + "}";
  }

 private:
  JsonRow& add(const std::string& key, const std::string& rendered) {
    fields_.push_back(std::string("\"")
                          .append(jsonEscape(key))
                          .append("\": ")
                          .append(rendered));
    return *this;
  }
  std::vector<std::string> fields_;
};

class JsonReporter {
 public:
  explicit JsonReporter(std::string benchName)
      : name_(std::move(benchName)) {}

  JsonRow& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  std::string path() const {
    const char* dir = std::getenv("ACCMOS_BENCH_JSON_DIR");
    std::string base = (dir != nullptr && dir[0] != '\0') ? dir : ".";
    return base + "/BENCH_" + name_ + ".json";
  }

  // Returns false (after a warning) when the file cannot be written; the
  // bench's stdout report is unaffected.
  bool write() const {
    std::ofstream out(path());
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", path().c_str());
      return false;
    }
    out << "{\n  \"bench\": \"" << jsonEscape(name_) << "\",\n  \"rows\": [\n";
    for (size_t k = 0; k < rows_.size(); ++k) {
      out << "    " << rows_[k].render() << (k + 1 < rows_.size() ? "," : "")
          << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s (%zu row(s))\n", path().c_str(), rows_.size());
    return true;
  }

 private:
  std::string name_;
  std::vector<JsonRow> rows_;
};

}  // namespace accmos::bench
