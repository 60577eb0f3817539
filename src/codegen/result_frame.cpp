#include "codegen/result_frame.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace accmos {
namespace {

constexpr uint32_t kFrameMagic = 0x46524D41u;  // "AMRF" read little-endian

std::array<uint64_t, 10> geometry(const AccmosModelInfo& i) {
  return {i.covLen[0],  i.covLen[1],    i.covLen[2],  i.covLen[3],
          i.numActors,  i.numDiagKinds, i.numCustom,  i.numCollect,
          i.collectValsLen, i.outValsLen};
}

// The fixed-size head of a frame; the arrays follow it.
struct FrameHeader {
  uint32_t magic;
  uint32_t version;
  std::array<uint64_t, 10> geometry;
  uint64_t stepsExecuted;
  uint32_t stoppedEarly;
  uint32_t timedOut;
  uint64_t execNs;
  uint64_t diagCount;
  uint64_t customCount;
};
static_assert(sizeof(FrameHeader) == 128, "the frame header has no padding");

}  // namespace

RunBuffers::RunBuffers(const AccmosModelInfo& geometry)
    : info(geometry),
      diags(info.numActors * info.numDiagKinds),
      customs(info.numCustom),
      collectCounts(info.numCollect),
      collectVals(info.collectValsLen),
      outVals(info.outValsLen) {
  std::memset(&res, 0, sizeof(res));
  res.structSize = static_cast<uint32_t>(sizeof(AccmosRunResult));
  res.abiVersion = ACCMOS_ABI_VERSION;
  for (int m = 0; m < 4; ++m) {
    cov[m].resize(info.covLen[m]);
    res.cov[m] = cov[m].data();
    res.covLen[m] = cov[m].size();
  }
  res.diags = diags.data();
  res.diagCap = diags.size();
  res.customs = customs.data();
  res.customCap = customs.size();
  res.collectCounts = collectCounts.data();
  res.numCollect = collectCounts.size();
  res.collectVals = collectVals.data();
  res.collectValsLen = collectVals.size();
  res.outVals = outVals.data();
  res.outValsLen = outVals.size();
}

bool sameGeometry(const AccmosModelInfo& a, const AccmosModelInfo& b) {
  return geometry(a) == geometry(b);
}

std::string encodeResultFrame(const RunBuffers& buf) {
  const AccmosRunResult& r = buf.res;
  const FrameHeader h{kFrameMagic,    ACCMOS_ABI_VERSION, geometry(buf.info),
                      r.stepsExecuted, r.stoppedEarly,     r.timedOut,
                      r.execNs,        r.diagCount,        r.customCount};
  std::string out(reinterpret_cast<const char*>(&h), sizeof(h));
  // A record count beyond its buffer travels in the header but is never
  // read past the buffer; the decoder rejects such a frame.
  auto append = [&out](const auto& v, uint64_t n) {
    out.append(reinterpret_cast<const char*>(v.data()),
               std::min<uint64_t>(n, v.size()) * sizeof(v[0]));
  };
  append(buf.diags, r.diagCount);
  append(buf.customs, r.customCount);
  append(buf.collectCounts, buf.collectCounts.size());
  append(buf.collectVals, buf.collectVals.size());
  append(buf.outVals, buf.outVals.size());
  for (const auto& c : buf.cov) append(c, c.size());
  return out;
}

std::string decodeResultFrame(std::string_view frame, RunBuffers& out) {
  FrameHeader h;
  if (frame.size() < sizeof(h)) {
    return "truncated header: " + std::to_string(frame.size()) + " of " +
           std::to_string(sizeof(h)) + " bytes";
  }
  std::memcpy(&h, frame.data(), sizeof(h));
  if (h.magic != kFrameMagic) return "bad magic number";
  if (h.version != ACCMOS_ABI_VERSION) {
    return "version " + std::to_string(h.version) + ", host expects " +
           std::to_string(ACCMOS_ABI_VERSION);
  }
  if (h.geometry != geometry(out.info)) {
    return "geometry does not match the host's instrumentation plans";
  }
  if (h.diagCount > out.diags.size() || h.customCount > out.customs.size()) {
    return "record counts (" + std::to_string(h.diagCount) + " diagnostic, " +
           std::to_string(h.customCount) + " custom) exceed the geometry";
  }
  size_t expected = sizeof(h) + h.diagCount * sizeof(AccmosDiagRec) +
                    h.customCount * sizeof(AccmosCustomRec) +
                    (out.collectCounts.size() + out.collectVals.size() +
                     out.outVals.size()) * sizeof(uint64_t);
  for (const auto& c : out.cov) expected += c.size();
  if (frame.size() < expected) {
    return "truncated: " + std::to_string(frame.size()) + " of " +
           std::to_string(expected) + " bytes";
  }
  if (frame.size() > expected) {
    return std::to_string(frame.size() - expected) + " trailing bytes";
  }

  AccmosRunResult& r = out.res;
  r.stepsExecuted = h.stepsExecuted;
  r.stoppedEarly = h.stoppedEarly;
  r.timedOut = h.timedOut;
  r.execNs = h.execNs;
  r.diagCount = h.diagCount;
  r.customCount = h.customCount;
  const char* p = frame.data() + sizeof(h);
  auto take = [&p](auto& v, size_t n) {
    if (n == 0) return;  // v.data() may be null
    std::memcpy(v.data(), p, n * sizeof(v[0]));
    p += n * sizeof(v[0]);
  };
  take(out.diags, h.diagCount);
  take(out.customs, h.customCount);
  take(out.collectCounts, out.collectCounts.size());
  take(out.collectVals, out.collectVals.size());
  take(out.outVals, out.outVals.size());
  for (auto& c : out.cov) take(c, c.size());
  return {};
}

}  // namespace accmos
