// Process-wide cooperative interrupt flag (SIGINT/SIGTERM → finish the
// current unit of work, flush partial results, exit with a documented
// code instead of dying mid-campaign — docs/ROBUSTNESS.md).
//
// The flag is deliberately global and async-signal-safe to raise: the CLI
// and the accmosd daemon install handlers that call requestInterrupt(),
// and long-running loops (campaign spec claims, the daemon accept loop)
// poll interruptRequested() at their natural boundaries. Because campaign
// workers claim specs from a monotonic counter and always complete a
// claimed spec, the set of finished specs at interrupt time is a prefix —
// which is what makes a partial merge well-defined (sim/campaign.h).
#pragma once

namespace accmos {

// Raise the flag. Async-signal-safe (a relaxed atomic store).
void requestInterrupt();

// Has anyone raised it since the last clear?
bool interruptRequested();

// Lower the flag (test isolation; a fresh CLI run never needs it).
void clearInterrupt();

}  // namespace accmos
