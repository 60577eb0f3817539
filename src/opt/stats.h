// Per-pass statistics of the model optimization pipeline (src/opt). Kept
// dependency-free so SimulationResult/CampaignResult can embed it without
// pulling the pass implementations into every consumer.
#pragma once

#include <string>

namespace accmos {

struct OptStats {
  int actorsBefore = 0;
  int actorsAfter = 0;
  int signalsBefore = 0;
  int signalsAfter = 0;

  int actorsFolded = 0;        // replaced by synthesized Constant actors
  int identitiesBypassed = 0;  // consumers rewired around identity actors
  int actorsEliminated = 0;    // removed as dead (with their signals)
  int signalsEliminated = 0;
  int stateUpdatesHoisted = 0;  // delay-class actors moved to schedule front

  std::string summary() const {
    return "folded " + std::to_string(actorsFolded) + ", bypassed " +
           std::to_string(identitiesBypassed) + ", eliminated " +
           std::to_string(actorsEliminated) + " actor(s) / " +
           std::to_string(signalsEliminated) + " signal(s), hoisted " +
           std::to_string(stateUpdatesHoisted) + " state update(s) (" +
           std::to_string(actorsBefore) + " -> " +
           std::to_string(actorsAfter) + " actors)";
  }
};

}  // namespace accmos
