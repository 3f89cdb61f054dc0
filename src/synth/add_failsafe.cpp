#include "synth/add_failsafe.hpp"

#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "verify/detection_predicate.hpp"

namespace dcft {

FailsafeSynthesis add_failsafe(const Program& p, const SafetySpec& safety) {
    const obs::Span span("synth/failsafe");
    if (obs::progress_enabled()) obs::progress_phase("synth/failsafe");
    obs::count("synth/failsafe/syntheses");
    obs::count("synth/failsafe/detection_predicates", p.num_actions());
    Program out(p.space_ptr(), p.vars(), "failsafe(" + p.name() + ")");
    std::vector<Predicate> predicates;
    predicates.reserve(p.num_actions());
    for (const auto& ac : p.actions()) {
        Predicate wdp = weakest_detection_predicate(p.space(), ac, safety);
        out.add_action(ac.restricted(wdp));
        predicates.push_back(std::move(wdp));
    }
    return FailsafeSynthesis{std::move(out), std::move(predicates)};
}

}  // namespace dcft
