/**
 * @file
 * The Section 4 verification study, reproduced at laptop scale.
 *
 * The paper iteratively added features to a baseline MSI tree
 * directory protocol and attempted push-button verification at each
 * step (Cubicle, 2-day / 50 GB bounds; the original methodology
 * exhausted >200 GB on the baseline). We reproduce the shape of those
 * findings with our explicit-state checker and scaled bounds:
 *
 *   - baseline MSI with the ORIGINAL methodology  -> EXCEEDS BOUNDS
 *   - baseline MSI with the MODIFIED methodology  -> VERIFIED
 *   - + inclusive hierarchy / explicit evictions  -> VERIFIED
 *   - + E state (NeoMESI)                         -> VERIFIED
 *   - + O state                                   -> EXCEEDS BOUNDS
 *   - non-blocking directories                    -> UNSUPPORTED
 *     (ordered buffers are beyond the checker's data structures,
 *      exactly as §4.2.2 reports for Cubicle)
 *   - non-sibling forwarding                      -> COMPOSITION FAILS
 *     (prohibited by the theory itself, §4.2.1)
 *
 * Finally the push-button parametric sweep: NeoMESI's closed and open
 * systems converge at a small cutoff, giving the paper's headline —
 * verified for every number of nodes and arity.
 */

#include <cstdio>
#include <string>
#include <thread>

#include "verif/models/flat_closed.hpp"
#include "verif/models/flat_open.hpp"
#include "verif/models/german.hpp"
#include "verif/parametric.hpp"

using namespace neo;
using namespace neo::verif;

namespace
{

// Scaled from the paper's 2-day / 50 GB Cubicle budget.
constexpr std::uint64_t boundStates = 800'000;
constexpr double boundSeconds = 90.0;
constexpr std::size_t matrixN = 4; // leaves per flat system

void
printRow(const std::string &label, const ExploreResult &r)
{
    std::printf("  %-34s %-18s %9llu states  %6.2fs  %6.1f MB\n",
                label.c_str(), verifStatusName(r.status),
                static_cast<unsigned long long>(r.statesExplored),
                r.seconds,
                static_cast<double>(r.memoryBytes) / (1024.0 * 1024.0));
}

ExploreResult
runOpen(const VerifFeatures &f, CompositionMethod m)
{
    ModelShape shape;
    TransitionSystem ts = buildOpenModel(matrixN, f, m, shape);
    return explore(ts, ExploreLimits{boundStates, boundSeconds}, false,
                   false);
}

ExploreResult
runClosed(const VerifFeatures &f)
{
    ModelShape shape;
    TransitionSystem ts = buildClosedModel(matrixN, f, shape);
    return explore(ts, ExploreLimits{boundStates, boundSeconds}, false,
                   false);
}

} // namespace

int
main()
{
    std::printf("==== Section 4: iterative feature/methodology study "
                "====\n");
    std::printf("(flat systems with N=%zu leaves; bounds scaled to "
                "%llu states / %.0fs per check)\n\n",
                matrixN,
                static_cast<unsigned long long>(boundStates),
                boundSeconds);

    // --- §2: why NeoGerman "belies the actual verification
    // scalability" — the toy German protocol is orders of magnitude
    // smaller than a realistic protocol at the same instance size.
    std::printf("[§2] toy vs. realistic protocol state spaces "
                "(N=%zu):\n",
                matrixN);
    {
        ModelShape shape;
        printRow("German (NeoGerman's subprotocol)",
                 explore(buildGermanModel(matrixN, shape),
                         ExploreLimits{boundStates, boundSeconds},
                         false, false));
        printRow("NeoMESI open system",
                 runOpen(VerifFeatures::neoMESI(),
                         CompositionMethod::None));
        const auto gp = verifyParametric(
            germanModelFactory(), 1, 6,
            ExploreLimits{boundStates, boundSeconds});
        std::printf("  German parametric: %s — %s\n\n",
                    verifStatusName(gp.status), gp.detail.c_str());
    }

    // --- 4.1: the original methodology only scales to toy protocols
    // (NeoGerman); on a realistic protocol it exhausts the budget
    // (the paper's >200 GB observation), while the modified
    // (embedded-leaf) methodology handles it.
    std::printf("[4.1] Safe Composition Invariant methodology:\n");
    std::printf(" toy-scale baseline MSI\n");
    printRow("original (alternating product)",
             runOpen(VerifFeatures::baselineMSI(),
                     CompositionMethod::Original));
    printRow("modified (embedded leaf)",
             runOpen(VerifFeatures::baselineMSI(),
                     CompositionMethod::Modified));
    std::printf(" realistic NeoMESI feature set\n");
    printRow("original (alternating product)",
             runOpen(VerifFeatures::neoMESI(),
                     CompositionMethod::Original));
    printRow("modified (embedded leaf)",
             runOpen(VerifFeatures::neoMESI(),
                     CompositionMethod::Modified));

    // --- 4.2: iteratively add features under the modified
    // methodology; report closed safety + open composition.
    std::printf("\n[4.2] Feature ladder under the modified "
                "methodology:\n");
    struct Step
    {
        const char *name;
        VerifFeatures f;
    };
    const Step ladder[] = {
        {"MSI baseline", VerifFeatures::baselineMSI()},
        {"+ inclusive/evictions", VerifFeatures::inclusiveMSI()},
        {"+ E state  (= NeoMESI)", VerifFeatures::neoMESI()},
        {"+ O state", VerifFeatures::withOwned()},
    };
    for (const Step &step : ladder) {
        std::printf(" %s\n", step.name);
        printRow("closed system (Antecedent 1)", runClosed(step.f));
        printRow("open system   (Antecedent 2)",
                 runOpen(step.f, CompositionMethod::Modified));
    }

    std::printf(
        " non-blocking directories\n"
        "  %-34s %-18s (ordered message buffers exceed the checker's\n"
        "  %-34s %-18s  data structures, as with Cubicle, see §4.2.2)\n",
        "", "UNSUPPORTED", "", "");

    // --- 4.2.1: non-sibling forwarding violates the theory.
    std::printf(" non-sibling forwarding (NS-MESI)\n");
    {
        VerifFeatures f = VerifFeatures::neoMESI();
        f.nonSiblingFwd = true;
        ModelShape shape;
        TransitionSystem ts = buildOpenModel(
            matrixN, f, CompositionMethod::Modified, shape);
        const ExploreResult r = explore(
            ts, ExploreLimits{boundStates, boundSeconds}, false, true);
        printRow("open system   (Antecedent 2)", r);
        if (r.status == VerifStatus::InvariantViolated) {
            std::printf("  violated: %s — counterexample (%zu steps), "
                        "last steps:\n",
                        r.violatedInvariant.c_str(), r.trace.size());
            const std::size_t start =
                r.trace.size() > 4 ? r.trace.size() - 4 : 0;
            for (std::size_t i = start; i < r.trace.size(); ++i)
                std::printf("    %zu: %s\n", i, r.trace[i].c_str());
        }
    }

    // --- push-button parametric verification of NeoMESI.
    std::printf("\n[parametric] NeoMESI for ALL tree configurations "
                "(view-abstraction cutoff):\n");
    {
        ExploreLimits lim{8'000'000, 600.0};
        const ParametricResult closed = verifyParametric(
            closedModelFactory(VerifFeatures::neoMESI()), 1, 7, lim);
        std::printf("  closed system: %s; %s\n",
                    verifStatusName(closed.status),
                    closed.detail.c_str());
        const ParametricResult open = verifyParametric(
            openModelFactory(VerifFeatures::neoMESI(),
                             CompositionMethod::Modified),
            1, 7, lim);
        std::printf("  open system:   %s; %s\n",
                    verifStatusName(open.status), open.detail.c_str());
        std::printf(
            "  => By the Neo theory's antecedents (§2.5), NeoMESI is "
            "safe in every tree\n     configuration: any arity at any "
            "node, any depth, balanced or not.\n");

        // The +O protocol's sweep needs instance sizes whose state
        // spaces blow the budget — the §4.2.2 conclusion.
        const ParametricResult owned = verifyParametric(
            openModelFactory(VerifFeatures::withOwned(),
                             CompositionMethod::Modified),
            1, 7, ExploreLimits{boundStates * 4, boundSeconds});
        std::printf("\n  + O state sweep: %s (%s) — the O state "
                    "remains out of reach of the\n    push-button "
                    "bounds, as the paper found.\n",
                    verifStatusName(owned.status),
                    owned.detail.c_str());
    }

    // --- serial vs parallel exploration on the matrix's
    // largest verified instance. The fixpoint state count must be
    // identical for every thread count (the differential guarantee);
    // wall-clock improves with threads on multicore hardware.
    std::printf("\n[parallel] serial vs parallel exploration, NeoMESI "
                "open N=%zu (%u hardware threads):\n",
                matrixN, std::thread::hardware_concurrency());
    {
        ModelShape shape;
        TransitionSystem ts = buildOpenModel(
            matrixN, VerifFeatures::neoMESI(),
            CompositionMethod::Modified, shape);
        ExploreLimits lim{boundStates, boundSeconds};
        const ExploreResult serial = explore(ts, lim, false, false);
        printRow("1 thread (sequential BFS)", serial);
        for (unsigned t : {2u, 4u}) {
            lim.threads = t;
            const ExploreResult par = explore(ts, lim, false, false);
            char label[64];
            std::snprintf(label, sizeof label,
                          "%u threads (speedup %.2fx)%s", t,
                          par.seconds > 0.0
                              ? serial.seconds / par.seconds
                              : 0.0,
                          par.statesExplored == serial.statesExplored
                              ? ""
                              : " STATE-COUNT MISMATCH");
            printRow(label, par);
        }
    }
    return 0;
}
