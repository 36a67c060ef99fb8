/**
 * @file
 * google-benchmark microbenchmarks for the substrates: event-queue
 * throughput, cache-array lookups, RNG, network delivery, whole
 * protocol transactions, and model-checker state throughput.
 */

#include <benchmark/benchmark.h>

#include "core/sim_runner.hpp"
#include "mem/cache_array.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "verif/explorer.hpp"
#include "verif/models/flat_closed.hpp"

using namespace neo;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        for (int i = 0; i < 1000; ++i)
            q.schedule(static_cast<Tick>(i % 97), [] {});
        q.run();
        benchmark::DoNotOptimize(q.processedCount());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_CacheArrayFind(benchmark::State &state)
{
    CacheArray<int> cache(CacheGeometry{64 * 1024, 4, 64, 1});
    for (Addr a = 0; a < 512 * 64; a += 64)
        if (cache.hasFreeWay(a))
            cache.allocate(a);
    Random rng(1);
    for (auto _ : state) {
        const Addr a = rng.below(512) * 64;
        benchmark::DoNotOptimize(cache.find(a));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayFind);

void
BM_RandomDraw(benchmark::State &state)
{
    Random rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.below(1000));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomDraw);

void
BM_ProtocolTransaction(benchmark::State &state)
{
    // One full write-ownership migration between two subtrees.
    setQuiet(true);
    EventQueue eventq;
    HierarchySpec spec;
    spec.name = "bm";
    spec.protocol = ProtocolVariant::NeoMESI;
    spec.root.geom = CacheGeometry{64 * 1024, 8, 64, 4};
    for (int i = 0; i < 2; ++i) {
        TreeNodeSpec l2{CacheGeometry{16 * 1024, 4, 64, 2}, {}};
        l2.children.push_back(
            TreeNodeSpec{CacheGeometry{4 * 1024, 2, 64, 1}, {}});
        spec.root.children.push_back(l2);
    }
    System system(spec, eventq);
    unsigned turn = 0;
    for (auto _ : state) {
        bool done = false;
        system.l1(turn % 2).coreRequest(0x1000, true,
                                        [&done] { done = true; });
        eventq.run();
        benchmark::DoNotOptimize(done);
        ++turn;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProtocolTransaction);

void
BM_ModelCheckerThroughput(benchmark::State &state)
{
    using namespace neo::verif;
    for (auto _ : state) {
        ModelShape shape;
        TransitionSystem ts =
            buildClosedModel(3, VerifFeatures::neoMESI(), shape);
        const ExploreResult r =
            explore(ts, ExploreLimits{1'000'000, 30.0}, false, false);
        benchmark::DoNotOptimize(r.statesExplored);
        state.counters["states"] =
            static_cast<double>(r.statesExplored);
    }
}
BENCHMARK(BM_ModelCheckerThroughput)->Unit(benchmark::kMillisecond);

/**
 * States/sec vs worker-thread count on the largest bundled flat
 * closed config (NeoMESI, N=6: ~378k canonical states). The JSON
 * output carries "states" (must be identical across thread counts —
 * the differential guarantee) and the "states_per_sec" rate the bench
 * trajectory tracks for parallel speedup.
 */
void
BM_CheckerParallelScaling(benchmark::State &state)
{
    using namespace neo::verif;
    ModelShape shape;
    const TransitionSystem ts =
        buildClosedModel(6, VerifFeatures::neoMESI(), shape);
    ExploreLimits lim{2'000'000, 120.0};
    lim.threads = static_cast<unsigned>(state.range(0));
    std::uint64_t states = 0;
    double seconds = 0.0;
    for (auto _ : state) {
        const ExploreResult r = explore(ts, lim, false, false);
        states = r.statesExplored;
        seconds += r.seconds;
        benchmark::DoNotOptimize(r.statesExplored);
    }
    state.counters["threads"] = static_cast<double>(lim.threads);
    state.counters["states"] = static_cast<double>(states);
    state.counters["states_per_sec"] =
        seconds > 0.0 ? static_cast<double>(states) *
                            static_cast<double>(state.iterations()) /
                            seconds
                      : 0.0;
}
BENCHMARK(BM_CheckerParallelScaling)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void
BM_FullSimulationSmall(benchmark::State &state)
{
    setQuiet(true);
    for (auto _ : state) {
        HierarchySpec spec =
            twoCoresPerL2Org(ProtocolVariant::NeoMESI);
        WorkloadParams wl = parsecProfile("swaptions");
        RunConfig cfg;
        cfg.opsPerCore = 200;
        cfg.checkCoherence = false;
        const RunResult r = runOnce(spec, wl, cfg);
        benchmark::DoNotOptimize(r.runtime);
    }
    state.SetItemsProcessed(state.iterations() * 200 * 32);
}
BENCHMARK(BM_FullSimulationSmall)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
