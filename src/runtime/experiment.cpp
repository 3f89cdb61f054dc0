#include "runtime/experiment.hpp"

#include <atomic>
#include <memory>
#include <thread>

#include "common/check.hpp"
#include "obs/progress.hpp"

namespace dcft {
namespace {

/// Runs the slice [begin, end) of the experiment's runs into a local
/// accumulator. One Simulator and one FaultInjector serve the whole slice,
/// so their step tables carry over from run to run; each run reseeds the
/// simulator (base_seed + i) and attaches fresh monitors. No shared mutable
/// state beyond the progress counter: the caller merges the returned slices
/// in slice-index order so pooled sample order never depends on thread
/// completion order.
BatchResult run_slice(const Experiment& ex, std::size_t begin,
                      std::size_t end, std::atomic<std::size_t>& done) {
    std::unique_ptr<Scheduler> scheduler =
        ex.make_scheduler ? ex.make_scheduler()
                          : std::make_unique<RandomScheduler>();
    Simulator sim(*ex.program, *scheduler);
    std::optional<FaultInjector> injector;
    if (ex.faults != nullptr) {
        injector.emplace(*ex.faults, ex.fault_probability, ex.max_faults);
        sim.set_fault_injector(&*injector);
    }
    const bool progress_on = obs::progress_enabled();
    BatchResult local;
    for (std::size_t i = begin; i < end; ++i) {
        if (progress_on)
            obs::progress_items(
                "experiment",
                done.fetch_add(1, std::memory_order_relaxed) + 1, ex.runs);
        sim.rng() = Rng(ex.base_seed + i);
        sim.clear_monitors();
        std::optional<SafetyMonitor> safety;
        if (ex.safety) {
            safety.emplace(*ex.safety);
            sim.add_monitor(&*safety);
        }
        std::optional<DetectorMonitor> detector;
        if (ex.detector) {
            detector.emplace(ex.detector->first, ex.detector->second);
            sim.add_monitor(&*detector);
        }
        std::optional<CorrectorMonitor> corrector;
        if (ex.corrector) {
            corrector.emplace(*ex.corrector);
            sim.add_monitor(&*corrector);
        }

        const RunResult run = sim.run(ex.initial, ex.options);
        ++local.runs;
        if (run.deadlocked) ++local.deadlocked;
        if (run.stopped_early) ++local.stopped_early;
        local.steps.add(static_cast<double>(run.steps));
        local.fault_steps.add(static_cast<double>(run.fault_steps));
        if (safety) {
            local.safety_violations += safety->program_violations();
            if (const auto first = safety->first_violation_step()) {
                ++local.violated_runs;
                local.time_to_violation.add(static_cast<double>(*first));
            }
            local.faults_absorbed.add(
                static_cast<double>(safety->faults_absorbed()));
        }
        if (detector) {
            for (double sample : detector->detection_latency().samples())
                local.detection_latency.add(sample);
        }
        if (corrector) {
            for (double sample :
                 corrector->correction_latency().samples())
                local.correction_latency.add(sample);
            local.availability.add(corrector->availability());
        }
    }
    return local;
}

/// Appends `slice` onto `total`, preserving sample order.
void merge_slice(BatchResult& total, const BatchResult& slice) {
    total.runs += slice.runs;
    total.deadlocked += slice.deadlocked;
    total.stopped_early += slice.stopped_early;
    total.safety_violations += slice.safety_violations;
    total.violated_runs += slice.violated_runs;
    for (double x : slice.steps.samples()) total.steps.add(x);
    for (double x : slice.fault_steps.samples()) total.fault_steps.add(x);
    for (double x : slice.detection_latency.samples())
        total.detection_latency.add(x);
    for (double x : slice.correction_latency.samples())
        total.correction_latency.add(x);
    for (double x : slice.availability.samples())
        total.availability.add(x);
    for (double x : slice.time_to_violation.samples())
        total.time_to_violation.add(x);
    for (double x : slice.faults_absorbed.samples())
        total.faults_absorbed.add(x);
}

}  // namespace

BatchResult run_experiment(const Experiment& ex) {
    DCFT_EXPECTS(ex.program != nullptr, "Experiment requires a program");
    DCFT_EXPECTS(ex.runs > 0, "Experiment requires at least one run");

    unsigned threads = ex.threads == 0
                           ? std::max(1u, std::thread::hardware_concurrency())
                           : ex.threads;
    threads = std::min<unsigned>(
        threads, static_cast<unsigned>(ex.runs));

    std::atomic<std::size_t> done{0};
    if (threads <= 1) return run_slice(ex, 0, ex.runs, done);

    // Contiguous ascending slices, one accumulator per slice. Merging in
    // slice-index order after the join reproduces run order 0..runs-1
    // exactly, so the pooled stats are bit-identical to a 1-thread run.
    const std::size_t chunk = (ex.runs + threads - 1) / threads;
    std::vector<BatchResult> slices;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        const std::size_t begin = t * chunk;
        const std::size_t end = std::min(ex.runs, begin + chunk);
        if (begin >= end) break;
        slices.emplace_back();
    }
    for (std::size_t t = 0; t < slices.size(); ++t) {
        const std::size_t begin = t * chunk;
        const std::size_t end = std::min(ex.runs, begin + chunk);
        pool.emplace_back([&ex, begin, end, &slices, t, &done] {
            slices[t] = run_slice(ex, begin, end, done);
        });
    }
    for (auto& worker : pool) worker.join();

    BatchResult total;
    for (const BatchResult& slice : slices) merge_slice(total, slice);
    return total;
}

}  // namespace dcft
