#include "sim/testcase.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace accmos {
namespace {

// Shortest representation that parses back to the same double (%.17g is
// always exact; try the shorter forms first for readable files).
std::string fmtExact(double v) {
  char buf[40];
  for (int prec = 9; prec <= 17; prec += 4) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Bitwise, not ==: +0.0 and -0.0 must compare unequal.
bool sameBits(const double* a, const double* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool samePort(const PortStimulus& a, const PortStimulus& b) {
  return sameBits(&a.min, &b.min, 1) && sameBits(&a.max, &b.max, 1) &&
         a.sequence.size() == b.sequence.size() &&
         sameBits(a.sequence.data(), b.sequence.data(), a.sequence.size());
}

}  // namespace

void PortStimulus::validate(const std::string& what) const {
  if (sequence.empty()) {
    if (std::isnan(min) || std::isnan(max) || std::isinf(min) ||
        std::isinf(max)) {
      throw ModelError(what + ": range bounds must be finite (got [" +
                       fmtExact(min) + ", " + fmtExact(max) + "))");
    }
    if (min > max) {
      throw ModelError(what + ": range min " + fmtExact(min) +
                       " exceeds max " + fmtExact(max));
    }
  } else {
    for (size_t k = 0; k < sequence.size(); ++k) {
      if (!std::isfinite(sequence[k])) {
        throw ModelError(what + ": sequence element " + std::to_string(k) +
                         " is not finite");
      }
    }
  }
}

void TestCaseSpec::validate() const {
  for (size_t k = 0; k < ports.size(); ++k) {
    ports[k].validate("test-case port " + std::to_string(k + 1));
  }
  defaultPort.validate("test-case default port");
}

TestCaseSpec TestCaseSpec::fromCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ModelError("cannot open test-case CSV '" + path + "'");
  TestCaseSpec spec;
  std::string line;
  size_t columns = 0;
  size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string cell;
    size_t col = 0;
    while (std::getline(ls, cell, ',')) {
      if (col >= spec.ports.size()) spec.ports.emplace_back();
      spec.ports[col].sequence.push_back(std::strtod(cell.c_str(), nullptr));
      ++col;
    }
    if (columns == 0) columns = col;
    if (col != columns) {
      throw ModelError("test-case CSV '" + path + "' line " +
                       std::to_string(lineNo) + " has " +
                       std::to_string(col) + " column(s), expected " +
                       std::to_string(columns));
    }
  }
  if (spec.ports.empty()) {
    throw ModelError("test-case CSV '" + path + "' contains no data");
  }
  spec.validate();
  return spec;
}

std::string TestCaseSpec::toCsvString() const {
  if (ports.empty()) {
    throw ModelError("test-case CSV export needs at least one port");
  }
  size_t rows = 0;
  for (size_t k = 0; k < ports.size(); ++k) {
    if (ports[k].sequence.empty()) {
      throw ModelError("test-case CSV export: port " + std::to_string(k + 1) +
                       " has no explicit sequence (seeded ranges cannot be "
                       "written as CSV)");
    }
    if (k == 0) rows = ports[k].sequence.size();
    if (ports[k].sequence.size() != rows) {
      throw ModelError("test-case CSV export: port " + std::to_string(k + 1) +
                       " has " + std::to_string(ports[k].sequence.size()) +
                       " value(s), expected " + std::to_string(rows));
    }
  }
  std::ostringstream os;
  os << "# accmos test case: " << ports.size() << " port(s) x " << rows
     << " step(s)\n";
  for (size_t r = 0; r < rows; ++r) {
    for (size_t k = 0; k < ports.size(); ++k) {
      if (k > 0) os << ",";
      os << fmtExact(ports[k].sequence[r]);
    }
    os << "\n";
  }
  return os.str();
}

void TestCaseSpec::toCsv(const std::string& path) const {
  std::string body = toCsvString();
  std::ofstream out(path);
  if (!out) throw ModelError("cannot write test-case CSV '" + path + "'");
  out << body;
}

std::string TestCaseSpec::shapeKey() const {
  std::ostringstream os;
  auto port = [&os](const PortStimulus& p) {
    if (p.sequence.empty()) {
      os << "r " << fmtExact(p.min) << " " << fmtExact(p.max);
    } else {
      os << "s";
      for (double v : p.sequence) os << " " << fmtExact(v);
    }
    os << "\n";
  };
  os << "default ";
  port(defaultPort);
  for (size_t k = 0; k < ports.size(); ++k) {
    os << "port " << k << " ";
    port(ports[k]);
  }
  return os.str();
}

bool TestCaseSpec::sameShapeAs(const TestCaseSpec& other) const {
  if (ports.size() != other.ports.size() ||
      !samePort(defaultPort, other.defaultPort)) {
    return false;
  }
  for (size_t k = 0; k < ports.size(); ++k) {
    if (!samePort(ports[k], other.ports[k])) return false;
  }
  return true;
}

StimulusStream::StimulusStream(const TestCaseSpec& spec, const FlatModel& fm) {
  spec.validate();
  for (size_t k = 0; k < fm.rootInports.size(); ++k) {
    PortState ps;
    ps.signalId = fm.actor(fm.rootInports[k]).outputs[0];
    ps.stim = spec.port(static_cast<int>(k));
    ps.rng = SplitMix64(portSeed(spec.seed, static_cast<int>(k)));
    ports_.push_back(std::move(ps));
  }
}

void StimulusStream::fill(uint64_t step, std::vector<Value>& signals) {
  for (auto& ps : ports_) {
    Value& sig = signals[static_cast<size_t>(ps.signalId)];
    for (int i = 0; i < sig.width(); ++i) {
      double v;
      if (!ps.stim.sequence.empty()) {
        v = ps.stim.sequence[static_cast<size_t>(
            step % ps.stim.sequence.size())];
      } else {
        v = ps.rng.nextUniform(ps.stim.min, ps.stim.max);
      }
      sig.store(i, v);
    }
  }
}

}  // namespace accmos
