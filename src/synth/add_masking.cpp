#include "synth/add_masking.hpp"

#include "obs/progress.hpp"
#include "obs/telemetry.hpp"

namespace dcft {

MaskingSynthesis add_masking(const Program& p, const FaultClass& f,
                             const SafetySpec& safety,
                             const Predicate& invariant,
                             std::vector<std::string> writable) {
    const obs::Span span("synth/masking");
    if (obs::progress_enabled()) obs::progress_phase("synth/masking");
    obs::count("synth/masking/syntheses");
    FailsafeSynthesis fs = add_failsafe(p, safety);

    NonmaskingOptions opts;
    opts.single_step = true;
    opts.freeze_program_outside_invariant = true;
    opts.safety = &safety;
    opts.writable = std::move(writable);
    NonmaskingSynthesis nm = add_nonmasking(fs.program, f, invariant, opts);

    MaskingSynthesis out{nm.program.renamed("masking(" + p.name() + ")"),
                         std::move(nm.corrector),
                         std::move(nm.fault_span),
                         std::move(fs.detection_predicates),
                         nm.complete,
                         std::move(nm.unrecoverable)};
    return out;
}

}  // namespace dcft
