#include "gen/corpus.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ir/arith.h"

namespace accmos::gen {
namespace {

void writePort(std::ostringstream& os, const std::string& head,
               const PortStimulus& p) {
  os << head;
  if (p.sequence.empty()) {
    os << " range " << fmtExact(p.min) << " " << fmtExact(p.max);
  } else {
    os << " seq";
    for (double v : p.sequence) os << " " << fmtExact(v);
  }
  os << "\n";
}

PortStimulus parsePort(std::istringstream& ls, const std::string& context) {
  PortStimulus p;
  std::string kind;
  ls >> kind;
  if (kind == "range") {
    if (!(ls >> p.min >> p.max)) {
      throw ModelError(context + ": malformed range");
    }
  } else if (kind == "seq") {
    double v;
    while (ls >> v) p.sequence.push_back(v);
    if (p.sequence.empty()) {
      throw ModelError(context + ": empty sequence");
    }
  } else {
    throw ModelError(context + ": unknown stimulus kind '" + kind + "'");
  }
  return p;
}

}  // namespace

std::string specToText(const TestCaseSpec& spec) {
  std::ostringstream os;
  os << "# accmos test-case spec\n";
  os << "seed " << spec.seed << "\n";
  writePort(os, "default", spec.defaultPort);
  for (size_t k = 0; k < spec.ports.size(); ++k) {
    writePort(os, "port " + std::to_string(k), spec.ports[k]);
  }
  return os.str();
}

TestCaseSpec specFromText(const std::string& text) {
  TestCaseSpec spec;
  std::istringstream in(text);
  std::string line;
  size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    std::string context = "test-case spec line " + std::to_string(lineNo);
    if (key == "seed") {
      if (!(ls >> spec.seed)) throw ModelError(context + ": malformed seed");
    } else if (key == "default") {
      spec.defaultPort = parsePort(ls, context);
    } else if (key == "port") {
      size_t idx = 0;
      if (!(ls >> idx)) throw ModelError(context + ": malformed port index");
      while (spec.ports.size() <= idx) spec.ports.push_back(spec.defaultPort);
      spec.ports[idx] = parsePort(ls, context);
    } else {
      throw ModelError(context + ": unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

uint64_t corpusFingerprint(const Corpus& corpus) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& e : corpus.entries()) {
    mix(specToText(e.spec));
    mix(e.mutation);
    mix(std::to_string(e.parent == kNoParent ? ~uint64_t{0} : e.parent));
    mix(std::to_string(e.iteration));
  }
  return h;
}

TestCaseSpec materializeSpec(const TestCaseSpec& spec, size_t numPorts,
                             uint64_t steps) {
  if (steps == 0) {
    throw ModelError("cannot materialize a test case over zero steps");
  }
  spec.validate();
  TestCaseSpec out;
  out.seed = spec.seed;
  out.ports.resize(std::max<size_t>(numPorts, 1));
  for (size_t k = 0; k < out.ports.size(); ++k) {
    const PortStimulus& src = spec.port(static_cast<int>(k));
    PortStimulus& dst = out.ports[k];
    if (!src.sequence.empty()) {
      dst.sequence.reserve(steps);
      for (uint64_t s = 0; s < steps; ++s) {
        dst.sequence.push_back(src.sequence[s % src.sequence.size()]);
      }
    } else {
      SplitMix64 rng(portSeed(spec.seed, static_cast<int>(k)));
      dst.sequence.reserve(steps);
      for (uint64_t s = 0; s < steps; ++s) {
        dst.sequence.push_back(rng.nextUniform(src.min, src.max));
      }
    }
  }
  return out;
}

void writeCorpusDir(const Corpus& corpus, const std::string& dir,
                    size_t numPorts, uint64_t steps, bool scalarPorts) {
  std::filesystem::create_directories(dir);
  std::ofstream manifest(dir + "/MANIFEST.tsv");
  if (!manifest) {
    throw ModelError("cannot write corpus manifest under '" + dir + "'");
  }
  manifest << "id\tparent\tmutation\titeration\tnew_bits\tnew_diag_kinds\t"
              "seed\tfiles\n";
  for (const auto& e : corpus.entries()) {
    char name[32];
    std::snprintf(name, sizeof(name), "entry_%04zu", e.id);
    std::string base = dir + "/" + name;
    {
      std::ofstream f(base + ".spec");
      if (!f) throw ModelError("cannot write '" + base + ".spec'");
      f << specToText(e.spec);
    }
    std::string files = std::string(name) + ".spec";
    if (scalarPorts) {
      materializeSpec(e.spec, numPorts, steps).toCsv(base + ".csv");
      files += std::string(",") + name + ".csv";
    }
    manifest << e.id << "\t"
             << (e.parent == kNoParent ? std::string("-")
                                       : std::to_string(e.parent))
             << "\t" << e.mutation << "\t" << e.iteration << "\t" << e.newBits
             << "\t" << e.newDiagKinds << "\t" << e.spec.seed << "\t" << files
             << "\n";
  }
}

}  // namespace accmos::gen
