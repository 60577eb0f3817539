// The text every generated simulation program begins with: the runtime
// preamble (<stdint.h>, <time.h>, the declarations of the C functions
// emitted code calls, and the finiteness, clock, pause and value-packing
// helpers only generated code needs), then the runtime core, then the run
// ABI.
#pragma once

#include <string_view>

namespace accmos {

std::string_view runtimePreamble();

// The exact text of src/ir/arith_core.h (embedded at build time): the one
// definition of folding, real-to-int stores, quotients, lookups and the
// stimulus stream, which the host compiles through ir/arith.h.
std::string_view runtimeCoreText();

// The exact text of src/codegen/run_abi.h (embedded at build time), pasted
// into generated sources after the preamble so the shared-library entry
// points are compiled against the same ABI structs the host uses.
std::string_view runAbiText();

}  // namespace accmos
