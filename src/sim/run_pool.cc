#include "sim/run_pool.hh"

#include <map>
#include <memory>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace edge::sim {

RunPool::RunPool(unsigned threads)
    : _threads(threads == 0 ? ThreadPool::defaultThreads() : threads)
{
}

std::vector<RunResult>
RunPool::runAll(const std::vector<RunJob> &jobs)
{
    if (jobs.empty())
        return {};
    for (const RunJob &job : jobs)
        fatal_if(job.program == nullptr, "RunPool: job without a program");

    // One Simulator per distinct program; map preserves a
    // deterministic preparation order (pointer order is fine — it
    // only affects which thread prepares what, never any result).
    std::map<const isa::Program *, std::unique_ptr<Simulator>> sims;
    for (const RunJob &job : jobs) {
        auto &slot = sims[job.program];
        if (!slot)
            slot = std::make_unique<Simulator>(*job.program,
                                               job.config);
    }

    ThreadPool pool(_threads);

    // Phase 1: reference executions, one pool job per program. Each
    // Simulator is touched by exactly one thread here; afterwards its
    // reference state is immutable and safe to share.
    std::vector<Simulator *> to_prepare;
    for (auto &kv : sims)
        to_prepare.push_back(kv.second.get());
    parallelIndex(pool, to_prepare.size(), [&](std::size_t i) {
        to_prepare[i]->prepare();
        return 0;
    });

    // Phase 2: the cells. Each job owns its Processor + StatSet via
    // runShared(); results land in submission order.
    return parallelIndex(pool, jobs.size(), [&](std::size_t i) {
        const RunJob &job = jobs[i];
        const Simulator *sim = sims.at(job.program).get();
        return sim->runShared(job.config, job.maxCycles);
    });
}

std::vector<RunResult>
RunPool::runConfigs(Simulator &sim,
                    const std::vector<core::MachineConfig> &configs,
                    Cycle max_cycles)
{
    if (configs.empty())
        return {};
    sim.prepare();
    ThreadPool pool(_threads);
    return parallelIndex(pool, configs.size(), [&](std::size_t i) {
        return sim.runShared(configs[i], max_cycles);
    });
}

} // namespace edge::sim
