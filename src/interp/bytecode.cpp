// Lowering and execution for the compiled fast-mode engines (see
// interp/compiled.h). One typed kernel per actor shape; all arithmetic goes
// through the shared wrap-exact core so outputs match the interpreter and
// AccMoS-generated code bit-for-bit.
#include "interp/compiled.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "actors/common.h"
#include "actors/lut.h"
#include "actors/spec.h"

namespace accmos {
namespace {

struct SigRef {
  int off = 0;
  int width = 1;
  DataType type = DataType::F64;
  bool isF = true;
};

struct Rt {
  std::vector<double> f;
  std::vector<int64_t> iv;
  uint64_t step = 0;
  bool stop = false;
};

struct Op;
using KernelFn = void (*)(const Op&, Rt&);

struct Op {
  KernelFn fn = nullptr;
  int actorId = -1;
  std::vector<SigRef> in;
  std::vector<SigRef> out;
  SigRef state;
  bool hasState = false;
  SigRef enable;
  bool hasEnable = false;
  bool real = true;                  // compute domain
  bool sat = false;                  // saturate-on-overflow arithmetic
  std::vector<double> dp;            // double params
  std::vector<int64_t> ip;           // int params
  std::vector<double> t1, t2, t3;    // tables / coefficient lists
  double (*ufn)(double) = nullptr;   // unary real function
  double (*bfn)(double, double) = nullptr;  // binary real function
};

// ---- element access ---------------------------------------------------------

inline int srcIdx(const SigRef& r, int i) {
  return r.off + (r.width == 1 ? 0 : i);
}

inline double rdD(const Rt& rt, const SigRef& r, int i) {
  int k = srcIdx(r, i);
  if (r.isF) return rt.f[static_cast<size_t>(k)];
  if (r.type == DataType::U64) {
    return static_cast<double>(
        static_cast<uint64_t>(rt.iv[static_cast<size_t>(k)]));
  }
  if (isUnsignedInt(r.type)) {
    return static_cast<double>(
        static_cast<uint64_t>(rt.iv[static_cast<size_t>(k)]));
  }
  return static_cast<double>(rt.iv[static_cast<size_t>(k)]);
}

inline int64_t rdI(const Rt& rt, const SigRef& r, int i) {
  int k = srcIdx(r, i);
  if (r.isF) return f2i(rt.f[static_cast<size_t>(k)]);
  return rt.iv[static_cast<size_t>(k)];
}

inline bool rdB(const Rt& rt, const SigRef& r, int i) {
  int k = srcIdx(r, i);
  if (r.isF) return rt.f[static_cast<size_t>(k)] != 0.0;
  return rt.iv[static_cast<size_t>(k)] != 0;
}

inline void wrReal(Rt& rt, const SigRef& r, int i, double v) {
  if (r.isF) {
    rt.f[static_cast<size_t>(r.off + i)] =
        r.type == DataType::F32 ? static_cast<double>(static_cast<float>(v))
                                : v;
  } else {
    rt.iv[static_cast<size_t>(r.off + i)] = storeDoubleAsInt(r.type, v).value;
  }
}

inline void wrInt(Rt& rt, const SigRef& r, int i, Int128 acc) {
  rt.iv[static_cast<size_t>(r.off + i)] = wrapStore(r.type, acc).value;
}

inline void copyElem(Rt& rt, const SigRef& dst, int di, const SigRef& src,
                     int si) {
  if (dst.isF) {
    rt.f[static_cast<size_t>(dst.off + di)] =
        rt.f[static_cast<size_t>(src.off + si)];
  } else {
    rt.iv[static_cast<size_t>(dst.off + di)] =
        rt.iv[static_cast<size_t>(src.off + si)];
  }
}

// ---- kernels ----------------------------------------------------------------

void kConst(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    if (o.isF) {
      rt.f[static_cast<size_t>(o.off + i)] = op.dp[static_cast<size_t>(i)];
    } else {
      rt.iv[static_cast<size_t>(o.off + i)] = op.ip[static_cast<size_t>(i)];
    }
  }
}

void kUnaryReal(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    wrReal(rt, o, i, op.ufn(rdD(rt, op.in[0], i)));
  }
}

void kBinaryReal(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    wrReal(rt, o, i, op.bfn(rdD(rt, op.in[0], i), rdD(rt, op.in[1], i)));
  }
}

inline int64_t foldK(DataType t, Int128 acc, bool sat) {
  return sat ? satStore(t, acc).value : wrapStore(t, acc).value;
}

void kSum(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  size_t n = op.in.size();
  if (op.real) {
    for (int i = 0; i < o.width; ++i) {
      double acc = 0.0;
      for (size_t p = 0; p < n; ++p) {
        double v = rdD(rt, op.in[p], i);
        acc = op.ip[p] > 0 ? acc + v : acc - v;
      }
      wrReal(rt, o, i, acc);
    }
  } else {
    for (int i = 0; i < o.width; ++i) {
      int64_t acc = 0;
      for (size_t p = 0; p < n; ++p) {
        Int128 wide = static_cast<Int128>(acc);
        int64_t v = rdI(rt, op.in[p], i);
        wide = op.ip[p] > 0 ? wide + v : wide - v;
        acc = foldK(o.type, wide, op.sat);
      }
      rt.iv[static_cast<size_t>(o.off + i)] = acc;
    }
  }
}

void kProduct(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  size_t n = op.in.size();
  if (op.real) {
    for (int i = 0; i < o.width; ++i) {
      double acc = 1.0;
      for (size_t p = 0; p < n; ++p) {
        double v = rdD(rt, op.in[p], i);
        acc = op.ip[p] > 0 ? acc * v : acc / v;
      }
      wrReal(rt, o, i, acc);
    }
  } else {
    for (int i = 0; i < o.width; ++i) {
      int64_t acc = 1;
      for (size_t p = 0; p < n; ++p) {
        int64_t v = rdI(rt, op.in[p], i);
        if (op.ip[p] > 0) {
          acc = foldK(o.type, static_cast<Int128>(acc) * v, op.sat);
        } else if (v == 0) {
          acc = 0;
        } else {
          acc = foldK(o.type, static_cast<Int128>(acc) / v, op.sat);
        }
      }
      rt.iv[static_cast<size_t>(o.off + i)] = acc;
    }
  }
}

void kGain(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  if (op.real) {
    for (int i = 0; i < o.width; ++i) {
      wrReal(rt, o, i, rdD(rt, op.in[0], i) * op.dp[0]);
    }
  } else {
    for (int i = 0; i < o.width; ++i) {
      wrInt(rt, o, i, static_cast<Int128>(rdI(rt, op.in[0], i)) * op.ip[0]);
    }
  }
}

void kBias(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  if (op.real) {
    for (int i = 0; i < o.width; ++i) {
      wrReal(rt, o, i, rdD(rt, op.in[0], i) + op.dp[0]);
    }
  } else {
    for (int i = 0; i < o.width; ++i) {
      wrInt(rt, o, i, static_cast<Int128>(rdI(rt, op.in[0], i)) + op.ip[0]);
    }
  }
}

void kAbs(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  if (op.real) {
    for (int i = 0; i < o.width; ++i) {
      wrReal(rt, o, i, std::fabs(rdD(rt, op.in[0], i)));
    }
  } else {
    for (int i = 0; i < o.width; ++i) {
      Int128 v = static_cast<Int128>(rdI(rt, op.in[0], i));
      wrInt(rt, o, i, v < 0 ? -v : v);
    }
  }
}

void kSign(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    double v = rdD(rt, op.in[0], i);
    wrReal(rt, o, i, v < 0.0 ? -1.0 : (v == 0.0 ? 0.0 : 1.0));
  }
}

void kNeg(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  if (op.real) {
    for (int i = 0; i < o.width; ++i) wrReal(rt, o, i, -rdD(rt, op.in[0], i));
  } else {
    for (int i = 0; i < o.width; ++i) {
      wrInt(rt, o, i, -static_cast<Int128>(rdI(rt, op.in[0], i)));
    }
  }
}

void kMinMax(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  bool isMin = op.ip[0] != 0;
  for (int i = 0; i < o.width; ++i) {
    double best = rdD(rt, op.in[0], i);
    for (size_t p = 1; p < op.in.size(); ++p) {
      double v = rdD(rt, op.in[p], i);
      if (isMin ? v < best : v > best) best = v;
    }
    wrReal(rt, o, i, best);
  }
}

void kPoly(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    double x = rdD(rt, op.in[0], i);
    double acc = op.dp[0];
    for (size_t k = 1; k < op.dp.size(); ++k) acc = acc * x + op.dp[k];
    wrReal(rt, o, i, acc);
  }
}

void kDot(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  int w = op.in[0].width;
  if (op.real) {
    double acc = 0.0;
    for (int i = 0; i < w; ++i) {
      acc += rdD(rt, op.in[0], i) * rdD(rt, op.in[1], i);
    }
    wrReal(rt, o, 0, acc);
  } else {
    int64_t acc = 0;
    for (int i = 0; i < w; ++i) {
      int64_t prod = wrapStore(o.type, static_cast<Int128>(rdI(rt, op.in[0], i)) *
                                           rdI(rt, op.in[1], i))
                         .value;
      acc = wrapStore(o.type, static_cast<Int128>(acc) + prod).value;
    }
    rt.iv[static_cast<size_t>(o.off)] = acc;
  }
}

void kSumElem(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  int w = op.in[0].width;
  if (op.real) {
    double acc = 0.0;
    for (int i = 0; i < w; ++i) acc += rdD(rt, op.in[0], i);
    wrReal(rt, o, 0, acc);
  } else {
    int64_t acc = 0;
    for (int i = 0; i < w; ++i) {
      acc = wrapStore(o.type, static_cast<Int128>(acc) + rdI(rt, op.in[0], i))
                .value;
    }
    rt.iv[static_cast<size_t>(o.off)] = acc;
  }
}

void kProdElem(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  int w = op.in[0].width;
  if (op.real) {
    double acc = 1.0;
    for (int i = 0; i < w; ++i) acc *= rdD(rt, op.in[0], i);
    wrReal(rt, o, 0, acc);
  } else {
    int64_t acc = 1;
    for (int i = 0; i < w; ++i) {
      acc = wrapStore(o.type, static_cast<Int128>(acc) * rdI(rt, op.in[0], i))
                .value;
    }
    rt.iv[static_cast<size_t>(o.off)] = acc;
  }
}

template <typename T>
inline bool relApply(int opIdx, T a, T b) {
  switch (opIdx) {
    case 0: return a == b;
    case 1: return a != b;
    case 2: return a < b;
    case 3: return a <= b;
    case 4: return a > b;
    default: return a >= b;
  }
}

void kRel(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  int opIdx = static_cast<int>(op.ip[0]);
  bool real = op.ip[1] != 0;
  for (int i = 0; i < o.width; ++i) {
    bool r = real ? relApply(opIdx, rdD(rt, op.in[0], i), rdD(rt, op.in[1], i))
                  : relApply(opIdx, rdI(rt, op.in[0], i), rdI(rt, op.in[1], i));
    rt.iv[static_cast<size_t>(o.off + i)] = r ? 1 : 0;
  }
}

void kCmpConst(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  int opIdx = static_cast<int>(op.ip[0]);
  for (int i = 0; i < o.width; ++i) {
    bool r = relApply(opIdx, rdD(rt, op.in[0], i), op.dp[0]);
    rt.iv[static_cast<size_t>(o.off + i)] = r ? 1 : 0;
  }
}

void kLogic(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  int kind = static_cast<int>(op.ip[0]);  // 0 AND 1 OR 2 NAND 3 NOR 4 XOR 5 NXOR 6 NOT
  size_t n = op.in.size();
  for (int i = 0; i < o.width; ++i) {
    bool r;
    if (kind == 6) {
      r = !rdB(rt, op.in[0], i);
    } else if (kind == 0 || kind == 2) {
      r = true;
      for (size_t p = 0; p < n; ++p) r = r && rdB(rt, op.in[p], i);
      if (kind == 2) r = !r;
    } else if (kind == 1 || kind == 3) {
      r = false;
      for (size_t p = 0; p < n; ++p) r = r || rdB(rt, op.in[p], i);
      if (kind == 3) r = !r;
    } else {
      r = false;
      for (size_t p = 0; p < n; ++p) r = r != rdB(rt, op.in[p], i);
      if (kind == 5) r = !r;
    }
    rt.iv[static_cast<size_t>(o.off + i)] = r ? 1 : 0;
  }
}

void kBitwise(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  int kind = static_cast<int>(op.ip[0]);  // 0 AND 1 OR 2 XOR 3 NOT
  for (int i = 0; i < o.width; ++i) {
    uint64_t acc = static_cast<uint64_t>(rdI(rt, op.in[0], i));
    if (kind == 3) {
      acc = ~acc;
    } else {
      for (size_t p = 1; p < op.in.size(); ++p) {
        uint64_t v = static_cast<uint64_t>(rdI(rt, op.in[p], i));
        if (kind == 0) acc &= v;
        else if (kind == 1) acc |= v;
        else acc ^= v;
      }
    }
    wrInt(rt, o, i, static_cast<Int128>(static_cast<int64_t>(acc)));
  }
}

void kShift(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  bool left = op.ip[0] != 0;
  int bits = static_cast<int>(op.ip[1]);
  for (int i = 0; i < o.width; ++i) {
    int64_t v = rdI(rt, op.in[0], i);
    if (left) {
      wrInt(rt, o, i, static_cast<Int128>(v) << bits);
    } else {
      rt.iv[static_cast<size_t>(o.off + i)] =
          wrapStore(o.type, static_cast<Int128>(v >> bits)).value;
    }
  }
}

void kSwitch(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  double c = rdD(rt, op.in[1], 0);
  int crit = static_cast<int>(op.ip[0]);  // 0 ">0", 1 "~=0", 2 ">="
  bool sel = crit == 0 ? c > 0.0 : (crit == 1 ? c != 0.0 : c >= op.dp[0]);
  const SigRef& src = sel ? op.in[0] : op.in[2];
  for (int i = 0; i < o.width; ++i) {
    copyElem(rt, o, i, src, src.width == 1 ? 0 : i);
  }
}

void kMpSwitch(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  int n = static_cast<int>(op.in.size()) - 1;
  int64_t c = rdI(rt, op.in[0], 0);
  if (c < 1) c = 1;
  if (c > n) c = n;
  const SigRef& src = op.in[static_cast<size_t>(c)];
  for (int i = 0; i < o.width; ++i) {
    copyElem(rt, o, i, src, src.width == 1 ? 0 : i);
  }
}

void kMux(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  int pos = 0;
  for (const auto& in : op.in) {
    for (int i = 0; i < in.width; ++i, ++pos) copyElem(rt, o, pos, in, i);
  }
}

void kDemux(const Op& op, Rt& rt) {
  int pos = 0;
  for (const auto& out : op.out) {
    for (int i = 0; i < out.width; ++i, ++pos) {
      copyElem(rt, out, i, op.in[0], pos);
    }
  }
}

void kSelector(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (size_t k = 0; k < op.ip.size(); ++k) {
    copyElem(rt, o, static_cast<int>(k), op.in[0],
             static_cast<int>(op.ip[k]) - 1);
  }
}

void kIndexVector(const Op& op, Rt& rt) {
  int64_t idx = rdI(rt, op.in[0], 0);
  int w = op.in[1].width;
  if (idx < 1) idx = 1;
  if (idx > w) idx = w;
  copyElem(rt, op.out[0], 0, op.in[1], static_cast<int>(idx) - 1);
}

void kCopyStateToOut(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) copyElem(rt, o, i, op.state, i);
}

void kLatchInToState(const Op& op, Rt& rt) {
  for (int i = 0; i < op.state.width; ++i) {
    copyElem(rt, op.state, i, op.in[0], op.in[0].width == 1 ? 0 : i);
  }
}

void kDelayUpdate(const Op& op, Rt& rt) {
  int w = static_cast<int>(op.ip[0]);
  int n = static_cast<int>(op.ip[1]);
  for (int k = 0; k + w < w * n; ++k) copyElem(rt, op.state, k, op.state, k + w);
  for (int i = 0; i < w; ++i) {
    copyElem(rt, op.state, w * (n - 1) + i, op.in[0],
             op.in[0].width == 1 ? 0 : i);
  }
}

void kTappedUpdate(const Op& op, Rt& rt) {
  int n = op.state.width;
  for (int k = 0; k + 1 < n; ++k) copyElem(rt, op.state, k, op.state, k + 1);
  copyElem(rt, op.state, n - 1, op.in[0], 0);
}

void kIntegratorUpdate(const Op& op, Rt& rt) {
  if (op.real) {
    for (int i = 0; i < op.state.width; ++i) {
      double v = rdD(rt, op.state, i) + op.dp[0] * rdD(rt, op.in[0], i);
      wrReal(rt, op.state, i, v);
    }
  } else {
    for (int i = 0; i < op.state.width; ++i) {
      Int128 acc = static_cast<Int128>(rt.iv[static_cast<size_t>(op.state.off + i)]) +
                   static_cast<Int128>(op.ip[0]) * rdI(rt, op.in[0], i);
      rt.iv[static_cast<size_t>(op.state.off + i)] =
          foldK(op.state.type, acc, op.sat);
    }
  }
}

// Continuous integrator update (Euler / Adams-Bashforth); state layout
// [y(w) | u1(w) | u2(w) | n(1)]. The eval phase is kCopyStateToOut.
void kContIntegratorUpdate(const Op& op, Rt& rt) {
  int w = op.out[0].width;
  int order = static_cast<int>(op.ip[0]);
  double h = op.dp[0];
  auto st = [&](int k) -> double& {
    return rt.f[static_cast<size_t>(op.state.off + k)];
  };
  int n = static_cast<int>(st(3 * w));
  for (int i = 0; i < w; ++i) {
    double u = rdD(rt, op.in[0], i);
    double u1 = st(w + i);
    double u2 = st(2 * w + i);
    double dy;
    if (order == 1 || n == 0) {
      dy = h * u;
    } else if (order == 2 || n == 1) {
      dy = h * (3.0 * u - u1) / 2.0;
    } else {
      dy = h * (23.0 * u - 16.0 * u1 + 5.0 * u2) / 12.0;
    }
    st(i) += dy;
    st(2 * w + i) = u1;
    st(w + i) = u;
  }
  if (n < 2) st(3 * w) = static_cast<double>(n + 1);
}

void kContIntegratorOut(const Op& op, Rt& rt) {
  // y occupies the first w state slots; the full state is wider.
  for (int i = 0; i < op.out[0].width; ++i) {
    rt.f[static_cast<size_t>(op.out[0].off + i)] =
        rt.f[static_cast<size_t>(op.state.off + i)];
  }
}

void kDerivative(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    wrReal(rt, o, i,
           rdD(rt, op.in[0], i) - rt.f[static_cast<size_t>(op.state.off + i)]);
  }
}

void kDerivativeUpdate(const Op& op, Rt& rt) {
  for (int i = 0; i < op.state.width; ++i) {
    rt.f[static_cast<size_t>(op.state.off + i)] = rdD(rt, op.in[0], i);
  }
}

double filterY(const Op& op, const Rt& rt) {
  int nb = static_cast<int>(op.t1.size()) - 1;
  int na = static_cast<int>(op.t2.size()) - 1;
  double u = rdD(rt, op.in[0], 0);
  double y = op.t1[0] * u;
  for (int k = 0; k < nb; ++k) {
    y += op.t1[static_cast<size_t>(k + 1)] *
         rt.f[static_cast<size_t>(op.state.off + k)];
  }
  for (int k = 0; k < na; ++k) {
    y -= op.t2[static_cast<size_t>(k + 1)] *
         rt.f[static_cast<size_t>(op.state.off + nb + k)];
  }
  return y;
}

void kFilter(const Op& op, Rt& rt) { wrReal(rt, op.out[0], 0, filterY(op, rt)); }

void kFilterUpdate(const Op& op, Rt& rt) {
  int nb = static_cast<int>(op.t1.size()) - 1;
  int na = static_cast<int>(op.t2.size()) - 1;
  double u = rdD(rt, op.in[0], 0);
  double y = filterY(op, rt);
  auto st = [&](int k) -> double& {
    return rt.f[static_cast<size_t>(op.state.off + k)];
  };
  for (int k = nb - 1; k > 0; --k) st(k) = st(k - 1);
  if (nb > 0) st(0) = u;
  for (int k = na - 1; k > 0; --k) st(nb + k) = st(nb + k - 1);
  if (na > 0) st(nb) = y;
}

void kZoh(const Op& op, Rt& rt) {
  uint64_t n = static_cast<uint64_t>(op.ip[0]);
  if (rt.step % n == 0) {
    for (int i = 0; i < op.state.width; ++i) {
      copyElem(rt, op.state, i, op.in[0], op.in[0].width == 1 ? 0 : i);
    }
  }
  for (int i = 0; i < op.out[0].width; ++i) {
    copyElem(rt, op.out[0], i, op.state, i);
  }
}

void kSaturation(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    double v = rdD(rt, op.in[0], i);
    wrReal(rt, o, i, v < op.dp[0] ? op.dp[0] : (v > op.dp[1] ? op.dp[1] : v));
  }
}

void kSaturationDyn(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    double v = rdD(rt, op.in[0], i);
    double lo = rdD(rt, op.in[1], i);
    double hi = rdD(rt, op.in[2], i);
    wrReal(rt, o, i, v < lo ? lo : (v > hi ? hi : v));
  }
}

void kDeadZone(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    double v = rdD(rt, op.in[0], i);
    wrReal(rt, o, i,
           v < op.dp[0] ? v - op.dp[0] : (v > op.dp[1] ? v - op.dp[1] : 0.0));
  }
}

void kRelay(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    double v = rdD(rt, op.in[0], i);
    int64_t& st = rt.iv[static_cast<size_t>(op.state.off + i)];
    if (v >= op.dp[0]) st = 1;
    else if (v <= op.dp[1]) st = 0;
    wrReal(rt, o, i, st != 0 ? op.dp[2] : op.dp[3]);
  }
}

void kQuantizer(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    double v = rdD(rt, op.in[0], i);
    wrReal(rt, o, i, op.dp[0] * std::nearbyint(v / op.dp[0]));
  }
}

void kRateLimiter(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    double v = rdD(rt, op.in[0], i);
    double& prev = rt.f[static_cast<size_t>(op.state.off + i)];
    double delta = v - prev;
    double r = delta > op.dp[0] ? prev + op.dp[0]
               : delta < op.dp[1] ? prev + op.dp[1]
                                  : v;
    prev = r;
    wrReal(rt, o, i, r);
  }
}

void kWrapToZero(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    double v = rdD(rt, op.in[0], i);
    wrReal(rt, o, i, v > op.dp[0] ? 0.0 : v);
  }
}

void kLut1(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  bool nearest = op.ip[0] != 0;
  for (int i = 0; i < o.width; ++i) {
    int outcome = 1;
    wrReal(rt, o, i,
           accmosLut1(op.t1, op.t2, rdD(rt, op.in[0], i), nearest, outcome));
  }
}

void kLut2(const Op& op, Rt& rt) {
  bool clipped = false;
  wrReal(rt, op.out[0], 0,
         accmosLut2(op.t1, op.t2, op.t3, rdD(rt, op.in[0], 0),
                    rdD(rt, op.in[1], 0), clipped));
}

void kConvert(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  const SigRef& in = op.in[0];
  for (int i = 0; i < o.width; ++i) {
    if (in.isF) {
      if (op.sat && !o.isF) {
        rt.iv[static_cast<size_t>(o.off + i)] =
            storeDoubleAsIntSat(o.type, rdD(rt, in, i)).value;
      } else {
        wrReal(rt, o, i, rdD(rt, in, i));
      }
    } else if (o.isF) {
      double d = rdD(rt, in, i);
      rt.f[static_cast<size_t>(o.off + i)] =
          o.type == DataType::F32 ? static_cast<double>(static_cast<float>(d))
                                  : d;
    } else if (op.sat) {
      rt.iv[static_cast<size_t>(o.off + i)] =
          satStore(o.type, static_cast<Int128>(rdI(rt, in, i))).value;
    } else {
      wrInt(rt, o, i, static_cast<Int128>(rdI(rt, in, i)));
    }
  }
}

void kAssertion(const Op& op, Rt& rt) {
  if (op.ip[0] == 0) return;  // no stopOnFail: fast modes cannot diagnose
  for (int i = 0; i < op.in[0].width; ++i) {
    if (!rdB(rt, op.in[0], i)) {
      rt.stop = true;
      return;
    }
  }
}

void kStopSim(const Op& op, Rt& rt) {
  for (int i = 0; i < op.in[0].width; ++i) {
    if (rdB(rt, op.in[0], i)) {
      rt.stop = true;
      return;
    }
  }
}

void kDataStoreRead(const Op& op, Rt& rt) {
  for (int i = 0; i < op.out[0].width; ++i) {
    copyElem(rt, op.out[0], i, op.state, i);
  }
}

void kDataStoreWrite(const Op& op, Rt& rt) {
  for (int i = 0; i < op.state.width; ++i) {
    copyElem(rt, op.state, i, op.in[0], op.in[0].width == 1 ? 0 : i);
  }
}

// ---- sources ---------------------------------------------------------------

void kStep(const Op& op, Rt& rt) {
  double v = static_cast<double>(rt.step) >= op.dp[0] ? op.dp[2] : op.dp[1];
  for (int i = 0; i < op.out[0].width; ++i) wrReal(rt, op.out[0], i, v);
}

void kRamp(const Op& op, Rt& rt) {
  double t = static_cast<double>(rt.step);
  double v = op.dp[2];
  if (t >= op.dp[0]) v += op.dp[1] * (t - op.dp[0]);
  for (int i = 0; i < op.out[0].width; ++i) wrReal(rt, op.out[0], i, v);
}

void kSine(const Op& op, Rt& rt) {
  double t = static_cast<double>(rt.step);
  double v = op.dp[0] * std::sin(2.0 * M_PI * op.dp[1] * t + op.dp[2]) + op.dp[3];
  for (int i = 0; i < op.out[0].width; ++i) wrReal(rt, op.out[0], i, v);
}

void kPulse(const Op& op, Rt& rt) {
  int64_t period = op.ip[0];
  int64_t on = op.ip[1];
  double v = static_cast<int64_t>(rt.step % static_cast<uint64_t>(period)) < on
                 ? op.dp[0]
                 : 0.0;
  for (int i = 0; i < op.out[0].width; ++i) wrReal(rt, op.out[0], i, v);
}

void kClock(const Op& op, Rt& rt) {
  double t = static_cast<double>(rt.step);
  for (int i = 0; i < op.out[0].width; ++i) wrReal(rt, op.out[0], i, t);
}

void kCounter(const Op& op, Rt& rt) {
  Int128 v = static_cast<int64_t>(rt.step % static_cast<uint64_t>(op.ip[0]));
  for (int i = 0; i < op.out[0].width; ++i) wrInt(rt, op.out[0], i, v);
}

void kRandom(const Op& op, Rt& rt) {
  SplitMix64 rng(static_cast<uint64_t>(rt.iv[static_cast<size_t>(op.state.off)]));
  for (int i = 0; i < op.out[0].width; ++i) {
    wrReal(rt, op.out[0], i, rng.nextUniform(op.dp[0], op.dp[1]));
  }
  rt.iv[static_cast<size_t>(op.state.off)] = static_cast<int64_t>(rng.state);
}

void kGround(const Op& op, Rt& rt) {
  const SigRef& o = op.out[0];
  for (int i = 0; i < o.width; ++i) {
    if (o.isF) rt.f[static_cast<size_t>(o.off + i)] = 0.0;
    else rt.iv[static_cast<size_t>(o.off + i)] = 0;
  }
}

// Unary real function table (Math / Trigonometry / Rounding / Sqrt).
double fExp(double a) { return std::exp(a); }
double fLog(double a) { return std::log(a); }
double fLog10(double a) { return std::log10(a); }
double fSqrt(double a) { return std::sqrt(a); }
double fSquare(double a) { return a * a; }
double fRecip(double a) { return 1.0 / a; }
double fSin(double a) { return std::sin(a); }
double fCos(double a) { return std::cos(a); }
double fTan(double a) { return std::tan(a); }
double fAsin(double a) { return std::asin(a); }
double fAcos(double a) { return std::acos(a); }
double fAtan(double a) { return std::atan(a); }
double fSinh(double a) { return std::sinh(a); }
double fCosh(double a) { return std::cosh(a); }
double fTanh(double a) { return std::tanh(a); }
double fFloor(double a) { return std::floor(a); }
double fCeil(double a) { return std::ceil(a); }
double fTrunc(double a) { return std::trunc(a); }
double fRound(double a) { return std::nearbyint(a); }
double fPow(double a, double b) { return std::pow(a, b); }
double fHypot(double a, double b) { return std::hypot(a, b); }
double fAtan2(double a, double b) { return std::atan2(a, b); }
double fRem(double a, double b) { return std::fmod(a, b); }
double fModFloor(double a, double b) {
  double m = std::fmod(a, b);
  if (m != 0.0 && ((m < 0.0) != (b < 0.0))) m += b;
  return m;
}

// The Accelerator-mode engine service: an opaque per-operation callback
// simulating the block-level synchronization with the Simulink process.
__attribute__((noinline)) void engineService(volatile uint64_t* counter) {
  *counter += 1;
  asm volatile("" ::: "memory");
}

}  // namespace

// ---------------------------------------------------------------------------
// Lowering.
// ---------------------------------------------------------------------------

struct CompiledProgram::Impl {
  const FlatModel* fm;
  CompiledMode mode;
  std::vector<SigRef> sigRefs;    // per signal id
  std::vector<SigRef> stateRefs;  // per actor id (valid if stateValid)
  std::vector<bool> stateValid;
  std::vector<SigRef> storeRefs;  // per data store
  std::vector<Op> evalOps;
  std::vector<Op> updateOps;
  int fSlots = 0;
  int iSlots = 0;
  volatile uint64_t serviceCalls = 0;

  // Initial values for states/stores (applied at run()).
  struct InitItem {
    SigRef ref;
    std::vector<double> vals;
  };
  std::vector<InitItem> inits;
};

namespace {

int relOpIdx(const std::string& o) {
  if (o == "==") return 0;
  if (o == "!=" || o == "~=") return 1;
  if (o == "<") return 2;
  if (o == "<=") return 3;
  if (o == ">") return 4;
  return 5;
}

SigRef allocRef(CompiledProgram::Impl& im, DataType t, int width) {
  SigRef r;
  r.type = t;
  r.width = width;
  r.isF = isFloatType(t);
  if (r.isF) {
    r.off = im.fSlots;
    im.fSlots += width;
  } else {
    r.off = im.iSlots;
    im.iSlots += width;
  }
  return r;
}

// Builds the eval/update ops for one actor; returns false when the actor
// needs no runtime op (Inport/Outport/Scope/...).
void lowerActor(CompiledProgram::Impl& im, const FlatActor& fa) {
  const FlatModel& fm = *im.fm;
  const Actor& a = *fa.src;
  const std::string& ty = fa.type();

  Op op;
  op.actorId = fa.id;
  for (int sig : fa.inputs) op.in.push_back(im.sigRefs[static_cast<size_t>(sig)]);
  for (int sig : fa.outputs) {
    op.out.push_back(im.sigRefs[static_cast<size_t>(sig)]);
  }
  if (fa.enableSignal >= 0) {
    op.enable = im.sigRefs[static_cast<size_t>(fa.enableSignal)];
    op.hasEnable = true;
  }
  if (im.stateValid[static_cast<size_t>(fa.id)]) {
    op.state = im.stateRefs[static_cast<size_t>(fa.id)];
    op.hasState = true;
  }
  if (!fa.outputs.empty()) {
    op.real = isFloatType(fm.signal(fa.outputs[0]).type);
  }

  Op upd = op;  // shares refs; fn decides

  auto pushEval = [&](KernelFn fn) {
    op.fn = fn;
    im.evalOps.push_back(op);
  };
  auto pushUpdate = [&](KernelFn fn) {
    upd.fn = fn;
    im.updateOps.push_back(upd);
  };

  if (ty == "Inport" || ty == "Outport" || ty == "Terminator" ||
      ty == "Scope" || ty == "Display" || ty == "DataStoreMemory") {
    return;
  }
  if (ty == "Ground") { pushEval(kGround); return; }
  if (ty == "Constant") {
    std::vector<double> vals = a.params().getDoubleList("value");
    if (vals.empty()) vals.push_back(a.params().getDouble("value", 0.0));
    vals.resize(static_cast<size_t>(op.out[0].width), vals.back());
    for (double v : vals) {
      if (op.real) {
        op.dp.push_back(op.out[0].type == DataType::F32
                            ? static_cast<double>(static_cast<float>(v))
                            : v);
      } else {
        op.ip.push_back(storeDoubleAsInt(op.out[0].type, v).value);
      }
    }
    pushEval(kConst);
    return;
  }
  if (ty == "Step") {
    op.dp = {a.params().getDouble("stepTime", 1.0),
             a.params().getDouble("before", 0.0),
             a.params().getDouble("after", 1.0)};
    pushEval(kStep);
    return;
  }
  if (ty == "Ramp") {
    op.dp = {a.params().getDouble("start", 0.0),
             a.params().getDouble("slope", 1.0),
             a.params().getDouble("initial", 0.0)};
    pushEval(kRamp);
    return;
  }
  if (ty == "SineWave") {
    op.dp = {a.params().getDouble("amplitude", 1.0),
             a.params().getDouble("freq", 0.01),
             a.params().getDouble("phase", 0.0),
             a.params().getDouble("bias", 0.0)};
    pushEval(kSine);
    return;
  }
  if (ty == "PulseGenerator") {
    int64_t period = std::max<int64_t>(1, a.params().getInt("period", 10));
    double duty = a.params().getDouble("duty", 0.5);
    int64_t on = static_cast<int64_t>(
        std::nearbyint(duty * static_cast<double>(period)));
    on = std::clamp<int64_t>(on, 0, period);
    op.ip = {period, on};
    op.dp = {a.params().getDouble("amplitude", 1.0)};
    pushEval(kPulse);
    return;
  }
  if (ty == "Clock") { pushEval(kClock); return; }
  if (ty == "Counter") {
    op.ip = {std::max<int64_t>(1, a.params().getInt("max", 256))};
    pushEval(kCounter);
    return;
  }
  if (ty == "RandomNumber") {
    op.dp = {a.params().getDouble("min", 0.0), a.params().getDouble("max", 1.0)};
    pushEval(kRandom);
    return;
  }
  if (ty == "Sum") {
    for (char c : parseOps(a, "++", "+-")) op.ip.push_back(c == '+' ? 1 : -1);
    op.sat = a.params().getBool("saturate", false);
    pushEval(kSum);
    return;
  }
  if (ty == "Product") {
    for (char c : parseOps(a, "**", "*/")) op.ip.push_back(c == '*' ? 1 : -1);
    op.sat = a.params().getBool("saturate", false);
    pushEval(kProduct);
    return;
  }
  if (ty == "Gain") {
    double g = a.params().getDouble("gain", 1.0);
    op.dp = {g};
    op.ip = {f2i(g)};
    pushEval(kGain);
    return;
  }
  if (ty == "Bias") {
    double b = a.params().getDouble("bias", 0.0);
    op.dp = {b};
    op.ip = {f2i(b)};
    pushEval(kBias);
    return;
  }
  if (ty == "Abs") { pushEval(kAbs); return; }
  if (ty == "Sign") { pushEval(kSign); return; }
  if (ty == "UnaryMinus") { pushEval(kNeg); return; }
  if (ty == "Sqrt") { op.ufn = fSqrt; pushEval(kUnaryReal); return; }
  if (ty == "Math") {
    std::string o = a.params().getString("op", "exp");
    if (o == "exp") op.ufn = fExp;
    else if (o == "log") op.ufn = fLog;
    else if (o == "log10") op.ufn = fLog10;
    else if (o == "sqrt") op.ufn = fSqrt;
    else if (o == "square") op.ufn = fSquare;
    else if (o == "reciprocal") op.ufn = fRecip;
    else if (o == "pow") op.bfn = fPow;
    else if (o == "hypot") op.bfn = fHypot;
    else if (o == "mod") op.bfn = fModFloor;
    else if (o == "rem") op.bfn = fRem;
    pushEval(op.ufn != nullptr ? kUnaryReal : kBinaryReal);
    return;
  }
  if (ty == "Trigonometry") {
    std::string o = a.params().getString("op", "sin");
    if (o == "sin") op.ufn = fSin;
    else if (o == "cos") op.ufn = fCos;
    else if (o == "tan") op.ufn = fTan;
    else if (o == "asin") op.ufn = fAsin;
    else if (o == "acos") op.ufn = fAcos;
    else if (o == "atan") op.ufn = fAtan;
    else if (o == "sinh") op.ufn = fSinh;
    else if (o == "cosh") op.ufn = fCosh;
    else if (o == "tanh") op.ufn = fTanh;
    else if (o == "atan2") op.bfn = fAtan2;
    pushEval(op.ufn != nullptr ? kUnaryReal : kBinaryReal);
    return;
  }
  if (ty == "MinMax") {
    op.ip = {a.params().getString("op", "max") == "min" ? 1 : 0};
    pushEval(kMinMax);
    return;
  }
  if (ty == "Rounding") {
    std::string o = a.params().getString("op", "round");
    op.ufn = o == "floor" ? fFloor : o == "ceil" ? fCeil : o == "fix" ? fTrunc
                                                                      : fRound;
    pushEval(kUnaryReal);
    return;
  }
  if (ty == "Polynomial") {
    op.dp = a.params().getDoubleList("coeffs");
    if (op.dp.empty()) op.dp.push_back(0.0);
    pushEval(kPoly);
    return;
  }
  if (ty == "DotProduct") { pushEval(kDot); return; }
  if (ty == "SumOfElements") { pushEval(kSumElem); return; }
  if (ty == "ProductOfElements") { pushEval(kProdElem); return; }
  if (ty == "RelationalOperator") {
    op.ip = {relOpIdx(a.params().getString("op", "<")),
             isFloatType(op.in[0].type) || isFloatType(op.in[1].type) ? 1 : 0};
    pushEval(kRel);
    return;
  }
  if (ty == "CompareToConstant") {
    op.ip = {relOpIdx(a.params().getString("op", ">"))};
    op.dp = {a.params().getDouble("value", 0.0)};
    pushEval(kCmpConst);
    return;
  }
  if (ty == "CompareToZero") {
    op.ip = {relOpIdx(a.params().getString("op", ">"))};
    op.dp = {0.0};
    pushEval(kCmpConst);
    return;
  }
  if (ty == "LogicalOperator") {
    std::string o = a.params().getString("op", "AND");
    int kind = o == "AND" ? 0 : o == "OR" ? 1 : o == "NAND" ? 2
               : o == "NOR" ? 3 : o == "XOR" ? 4 : o == "NXOR" ? 5 : 6;
    op.ip = {kind};
    pushEval(kLogic);
    return;
  }
  if (ty == "BitwiseOperator") {
    std::string o = a.params().getString("op", "AND");
    op.ip = {o == "AND" ? 0 : o == "OR" ? 1 : o == "XOR" ? 2 : 3};
    pushEval(kBitwise);
    return;
  }
  if (ty == "ShiftArithmetic") {
    op.ip = {a.params().getString("direction", "left") == "left" ? 1 : 0,
             a.params().getInt("bits", 1)};
    pushEval(kShift);
    return;
  }
  if (ty == "Switch") {
    std::string crit = a.params().getString("criteria", ">0");
    op.ip = {crit == ">0" ? 0 : crit == "~=0" ? 1 : 2};
    op.dp = {a.params().getDouble("threshold", 0.0)};
    pushEval(kSwitch);
    return;
  }
  if (ty == "MultiportSwitch") { pushEval(kMpSwitch); return; }
  if (ty == "Mux") { pushEval(kMux); return; }
  if (ty == "Demux") { pushEval(kDemux); return; }
  if (ty == "Selector") {
    for (double d : a.params().getDoubleList("indices")) {
      op.ip.push_back(static_cast<int64_t>(d));
    }
    pushEval(kSelector);
    return;
  }
  if (ty == "IndexVector") { pushEval(kIndexVector); return; }
  if (ty == "UnitDelay" || ty == "Memory") {
    pushEval(kCopyStateToOut);
    pushUpdate(kLatchInToState);
    return;
  }
  if (ty == "Delay") {
    int w = op.out[0].width;
    int n = a.intParam("length", 1, 0, kMaxDimParam);
    pushEval(kCopyStateToOut);
    upd.ip = {w, n};
    pushUpdate(kDelayUpdate);
    return;
  }
  if (ty == "TappedDelay") {
    pushEval(kCopyStateToOut);
    pushUpdate(kTappedUpdate);
    return;
  }
  if (ty == "DiscreteIntegrator") {
    double k = a.params().getDouble("gain", 1.0);
    pushEval(kCopyStateToOut);
    upd.dp = {k};
    upd.ip = {f2i(k)};
    upd.sat = a.params().getBool("saturate", false);
    pushUpdate(kIntegratorUpdate);
    return;
  }
  if (ty == "ContinuousIntegrator") {
    std::string m = a.params().getString("method", "euler");
    pushEval(kContIntegratorOut);
    upd.ip = {m == "euler" ? 1 : m == "ab2" ? 2 : 3};
    upd.dp = {a.params().getDouble("h", 0.01)};
    pushUpdate(kContIntegratorUpdate);
    return;
  }
  if (ty == "DiscreteDerivative") {
    pushEval(kDerivative);
    pushUpdate(kDerivativeUpdate);
    return;
  }
  if (ty == "DiscreteFilter") {
    std::vector<double> b = a.params().getDoubleList("num");
    std::vector<double> den = a.params().getDoubleList("den");
    if (b.empty()) b = {1.0};
    if (den.empty()) den = {1.0};
    op.t1 = b;
    op.t2 = den;
    upd.t1 = b;
    upd.t2 = den;
    pushEval(kFilter);
    pushUpdate(kFilterUpdate);
    return;
  }
  if (ty == "ZeroOrderHold") {
    op.ip = {std::max<int64_t>(1, a.params().getInt("sample", 1))};
    pushEval(kZoh);
    return;
  }
  if (ty == "DataStoreRead" || ty == "DataStoreWrite") {
    op.state = im.storeRefs[static_cast<size_t>(fa.dataStore)];
    op.hasState = true;
    pushEval(ty == "DataStoreRead" ? kDataStoreRead : kDataStoreWrite);
    return;
  }
  if (ty == "Saturation") {
    op.dp = {a.params().getDouble("min", -1.0), a.params().getDouble("max", 1.0)};
    pushEval(kSaturation);
    return;
  }
  if (ty == "SaturationDynamic") { pushEval(kSaturationDyn); return; }
  if (ty == "DeadZone") {
    op.dp = {a.params().getDouble("start", -0.5), a.params().getDouble("end", 0.5)};
    pushEval(kDeadZone);
    return;
  }
  if (ty == "Relay") {
    op.dp = {a.params().getDouble("onPoint", 1.0),
             a.params().getDouble("offPoint", -1.0),
             a.params().getDouble("onValue", 1.0),
             a.params().getDouble("offValue", 0.0)};
    pushEval(kRelay);
    return;
  }
  if (ty == "Quantizer") {
    op.dp = {a.params().getDouble("interval", 0.5)};
    pushEval(kQuantizer);
    return;
  }
  if (ty == "RateLimiter") {
    op.dp = {a.params().getDouble("rising", 1.0),
             a.params().getDouble("falling", -1.0)};
    pushEval(kRateLimiter);
    return;
  }
  if (ty == "WrapToZero") {
    op.dp = {a.params().getDouble("threshold", 255.0)};
    pushEval(kWrapToZero);
    return;
  }
  if (ty == "Lookup1D") {
    op.t1 = a.params().getDoubleList("x");
    op.t2 = a.params().getDoubleList("y");
    op.ip = {a.params().getString("method", "interp") == "nearest" ? 1 : 0};
    pushEval(kLut1);
    return;
  }
  if (ty == "Lookup2D") {
    op.t1 = a.params().getDoubleList("x");
    op.t2 = a.params().getDoubleList("y");
    op.t3 = a.params().getDoubleList("z");
    pushEval(kLut2);
    return;
  }
  if (ty == "DataTypeConversion") {
    op.sat = a.params().getBool("saturate", false);
    pushEval(kConvert);
    return;
  }
  if (ty == "Assertion") {
    op.ip = {a.params().getBool("stopOnFail", false) ? 1 : 0};
    pushEval(kAssertion);
    return;
  }
  if (ty == "StopSimulation") { pushEval(kStopSim); return; }

  throw ModelError("fast-mode lowering: unsupported actor type '" + ty + "'");
}

}  // namespace

CompiledProgram::CompiledProgram(const FlatModel& fm, CompiledMode mode)
    : impl_(std::make_unique<Impl>()) {
  validateFlatModel(fm);
  Impl& im = *impl_;
  im.fm = &fm;
  im.mode = mode;

  im.sigRefs.resize(fm.signals.size());
  for (size_t k = 0; k < fm.signals.size(); ++k) {
    im.sigRefs[k] = allocRef(im, fm.signals[k].type, fm.signals[k].width);
  }
  const Registry& reg = Registry::instance();
  im.stateRefs.resize(fm.actors.size());
  im.stateValid.assign(fm.actors.size(), false);
  for (const auto& fa : fm.actors) {
    auto st = reg.get(fa).state(fm, fa);
    if (st) {
      SigRef ref = allocRef(im, st->type, st->width);
      im.stateRefs[static_cast<size_t>(fa.id)] = ref;
      im.stateValid[static_cast<size_t>(fa.id)] = true;
      Impl::InitItem item;
      item.ref = ref;
      for (int i = 0; i < st->width; ++i) {
        item.vals.push_back(
            st->initial.empty()
                ? 0.0
                : st->initial[std::min(st->initial.size() - 1,
                                       static_cast<size_t>(i))]);
      }
      im.inits.push_back(std::move(item));
    }
  }
  for (const auto& ds : fm.dataStores) {
    SigRef ref = allocRef(im, ds.type, ds.width);
    im.storeRefs.push_back(ref);
    Impl::InitItem item;
    item.ref = ref;
    item.vals.assign(static_cast<size_t>(ds.width), ds.initial);
    im.inits.push_back(std::move(item));
  }

  for (int id : fm.schedule) {
    lowerActor(im, fm.actors[static_cast<size_t>(id)]);
  }
}

CompiledProgram::~CompiledProgram() = default;

uint64_t CompiledProgram::serviceCalls() const { return impl_->serviceCalls; }

SimulationResult CompiledProgram::run(const SimOptions& opt,
                                      const TestCaseSpec& tests) {
  Impl& im = *impl_;
  const FlatModel& fm = *im.fm;
  Rt rt;
  rt.f.assign(static_cast<size_t>(im.fSlots), 0.0);
  rt.iv.assign(static_cast<size_t>(im.iSlots), 0);
  for (const auto& init : im.inits) {
    for (int i = 0; i < init.ref.width; ++i) {
      wrReal(rt, init.ref, i, init.vals[static_cast<size_t>(i)]);
    }
  }

  // Stimulus streams mirror StimulusStream.
  struct PortState {
    SigRef ref;
    PortStimulus stim;
    SplitMix64 rng{0};
  };
  std::vector<PortState> portStates;
  for (size_t k = 0; k < fm.rootInports.size(); ++k) {
    PortState ps;
    ps.ref = im.sigRefs[static_cast<size_t>(
        fm.actor(fm.rootInports[k]).outputs[0])];
    ps.stim = tests.port(static_cast<int>(k));
    ps.rng = SplitMix64(portSeed(tests.seed, static_cast<int>(k)));
    portStates.push_back(std::move(ps));
  }

  // Host mirrors (the data transfer with the Simulink process).
  std::vector<double> hostF;
  std::vector<int64_t> hostI;
  std::vector<double> hostIo;
  const bool accel = im.mode == CompiledMode::Accelerator;
  if (accel) {
    hostF.resize(rt.f.size());
    hostI.resize(rt.iv.size());
  } else {
    size_t ioSlots = 0;
    for (int id : fm.rootInports) {
      ioSlots += static_cast<size_t>(
          fm.signal(fm.actor(id).outputs[0]).width);
    }
    for (int id : fm.rootOutports) {
      ioSlots += static_cast<size_t>(fm.signal(fm.actor(id).inputs[0]).width);
    }
    hostIo.resize(std::max<size_t>(1, ioSlots));
  }

  SimulationResult result;
  auto start = std::chrono::steady_clock::now();
  uint64_t step = 0;
  for (; step < opt.maxSteps; ++step) {
    rt.step = step;
    for (auto& ps : portStates) {
      for (int i = 0; i < ps.ref.width; ++i) {
        double v = !ps.stim.sequence.empty()
                       ? ps.stim.sequence[static_cast<size_t>(
                             step % ps.stim.sequence.size())]
                       : ps.rng.nextUniform(ps.stim.min, ps.stim.max);
        wrReal(rt, ps.ref, i, v);
      }
    }
    if (accel) {
      // Block-level synchronization with the host (the paper's "frequent
      // synchronization with Simulink and data transfer requirements"):
      // every operation hands its outputs back to the engine mirror and
      // goes through an engine-service callback.
      auto syncOp = [&](const Op& op) {
        for (const SigRef& o : op.out) {
          if (o.isF) {
            std::memcpy(hostF.data() + o.off, rt.f.data() + o.off,
                        static_cast<size_t>(o.width) * sizeof(double));
          } else {
            std::memcpy(hostI.data() + o.off, rt.iv.data() + o.off,
                        static_cast<size_t>(o.width) * sizeof(int64_t));
          }
        }
        engineService(&im.serviceCalls);
      };
      for (const Op& op : im.evalOps) {
        if (op.hasEnable && !rdB(rt, op.enable, 0)) continue;
        op.fn(op, rt);
        syncOp(op);
      }
      for (const Op& op : im.updateOps) {
        if (op.hasEnable && !rdB(rt, op.enable, 0)) continue;
        op.fn(op, rt);
        syncOp(op);
      }
    } else {
      for (const Op& op : im.evalOps) {
        if (op.hasEnable && !rdB(rt, op.enable, 0)) continue;
        op.fn(op, rt);
      }
      for (const Op& op : im.updateOps) {
        if (op.hasEnable && !rdB(rt, op.enable, 0)) continue;
        op.fn(op, rt);
      }
      // Root-I/O-only synchronization.
      size_t pos = 0;
      for (int id : fm.rootInports) {
        const SigRef& r =
            im.sigRefs[static_cast<size_t>(fm.actor(id).outputs[0])];
        for (int i = 0; i < r.width; ++i) hostIo[pos++] = rdD(rt, r, i);
      }
      for (int id : fm.rootOutports) {
        const SigRef& r =
            im.sigRefs[static_cast<size_t>(fm.actor(id).inputs[0])];
        for (int i = 0; i < r.width; ++i) hostIo[pos++] = rdD(rt, r, i);
      }
    }
    if (rt.stop) {
      ++step;
      result.stoppedEarly = true;
      break;
    }
    if (opt.timeBudgetSec > 0.0 && (step & 1023) == 1023 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                .count() >= opt.timeBudgetSec) {
      ++step;
      break;
    }
  }
  result.execSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.stepsExecuted = step;

  for (int id : fm.rootOutports) {
    const FlatActor& fa = fm.actor(id);
    const SigRef& r = im.sigRefs[static_cast<size_t>(fa.inputs[0])];
    Value v(r.type, r.width);
    for (int i = 0; i < r.width; ++i) {
      if (r.isF) {
        v.setF(i, rt.f[static_cast<size_t>(r.off + i)]);
      } else {
        v.setI(i, rt.iv[static_cast<size_t>(r.off + i)]);
      }
    }
    result.finalOutputs.push_back(std::move(v));
  }
  return result;
}

SimulationResult runCompiled(const FlatModel& fm, CompiledMode mode,
                             const SimOptions& opt,
                             const TestCaseSpec& tests) {
  CompiledProgram prog(fm, mode);
  return prog.run(opt, tests);
}

}  // namespace accmos
