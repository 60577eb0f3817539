#include "codegen/model_lib.h"

#include <dlfcn.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <cstring>

#include "codegen/fault.h"

namespace accmos {

// The v1 negotiation depends on batchLanes being the first byte past the
// 88-byte v1 layout; this pins the constant to the real struct.
static_assert(offsetof(AccmosModelInfo, batchLanes) == ACCMOS_ABI_INFO_SIZE_V1,
              "ACCMOS_ABI_INFO_SIZE_V1 must equal the v1 AccmosModelInfo size");

namespace {

bool dlopenForcedToFail() { return faultPlanFromEnv().dlopenFail; }

std::string dlerrorText() {
  const char* e = ::dlerror();
  return e != nullptr ? e : "unknown dlopen error";
}

std::atomic<long> g_loadCount{0};

}  // namespace

long ModelLib::loadCount() {
  return g_loadCount.load(std::memory_order_relaxed);
}

ModelLib::ModelLib(const std::string& path) : path_(path) {
  auto t0 = std::chrono::steady_clock::now();
  if (dlopenForcedToFail()) {
    throw CompileError("dlopen of generated model library " + path +
                       " disabled by fault injection (ACCMOS_FAULT=" +
                       "dlopen-fail / ACCMOS_DLOPEN_FAIL)");
  }
  handle_ = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle_ == nullptr) {
    throw CompileError("dlopen of generated model library failed: " +
                       dlerrorText());
  }
  auto* infoFn = reinterpret_cast<AccmosModelInfoFn>(
      ::dlsym(handle_, ACCMOS_SYM_MODEL_INFO));
  run_ = reinterpret_cast<AccmosRunFn>(::dlsym(handle_, ACCMOS_SYM_RUN));
  if (infoFn == nullptr || run_ == nullptr) {
    std::string err = dlerrorText();
    ::dlclose(handle_);
    handle_ = nullptr;
    throw CompileError("generated model library " + path +
                       " is missing an ABI entry point: " + err);
  }
  // Version negotiation: query with the host's struct size first. A v1
  // library checks structSize against its own 88-byte AccmosModelInfo and
  // rejects the larger v2 size with EARG — retry with the v1 size, which
  // fills only the first 88 bytes and leaves batchLanes at the zero we
  // memset.
  std::memset(&info_, 0, sizeof(info_));
  info_.structSize = static_cast<uint32_t>(sizeof(AccmosModelInfo));
  int rc = infoFn(&info_);
  if (rc == ACCMOS_ABI_EARG) {
    static_assert(sizeof(AccmosModelInfo) > ACCMOS_ABI_INFO_SIZE_V1,
                  "v2 info struct must extend the v1 layout");
    std::memset(&info_, 0, sizeof(info_));
    info_.structSize = ACCMOS_ABI_INFO_SIZE_V1;
    rc = infoFn(&info_);
    if (rc == ACCMOS_ABI_OK && info_.abiVersion != 1u) rc = ACCMOS_ABI_EVERSION;
  }
  if (rc != ACCMOS_ABI_OK ||
      (info_.abiVersion != ACCMOS_ABI_VERSION && info_.abiVersion != 1u)) {
    uint32_t gotVersion = info_.abiVersion;
    ::dlclose(handle_);
    handle_ = nullptr;
    throw CompileError(
        "generated model library " + path + " reports incompatible ABI (rc=" +
        std::to_string(rc) + ", version=" + std::to_string(gotVersion) +
        ", host expects " + std::to_string(ACCMOS_ABI_VERSION) + " or 1)");
  }
  auto t1 = std::chrono::steady_clock::now();
  loadSeconds_ = std::chrono::duration<double>(t1 - t0).count();
  g_loadCount.fetch_add(1, std::memory_order_relaxed);
}

ModelLib::~ModelLib() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

}  // namespace accmos
