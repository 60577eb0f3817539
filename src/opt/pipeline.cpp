#include "opt/pipeline.h"

#include "actors/spec.h"
#include "opt/passes.h"

namespace accmos {

FlatModel optimizeModel(const FlatModel& fm, const SimOptions& opt,
                        OptStats* stats) {
  FlatModel out = fm;
  OptStats st;
  st.actorsBefore = static_cast<int>(out.actors.size());
  st.signalsBefore = static_cast<int>(out.signals.size());

  // Pass order: folding first (it propagates transitively in schedule
  // order), then identity bypasses (which may orphan their actors), then
  // liveness + compaction to sweep everything unobservable away. One round
  // suffices — identity bypasses create no new constants.
  opt::constantFold(out, opt, st);
  opt::simplifyIdentities(out, opt, st);
  std::vector<char> live = opt::liveActors(out, opt);
  opt::compactModel(out, live, st);

  st.actorsAfter = static_cast<int>(out.actors.size());
  st.signalsAfter = static_cast<int>(out.signals.size());

  // Safety net: the optimized model must satisfy every structural invariant
  // the engines rely on.
  validateFlatModel(out);

  if (stats != nullptr) *stats = st;
  return out;
}

}  // namespace accmos
