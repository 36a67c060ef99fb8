/**
 * @file
 * Reproduces the paper's Figures 4, 5 and 6 as live message traces.
 *
 * The scenario in all three figures: caches C1..C4 under intermediate
 * directories C5 (over C1, C2) and C6 (over C3, C4), rooted at C7.
 * C4 holds the block in M; C1 issues a GetS. The three protocols
 * satisfy the request differently:
 *
 *   NeoMESI  (Fig. 4): data relays C4 -> C6 -> C5 -> C1 (sibling hops
 *            only), Unblocks update C5 and C7 with the valid data.
 *   NS-MESI  (Fig. 5): C4 sends the data directly to C1 AND to its
 *            parent C6 — a hop saved, but non-sibling communication
 *            is prohibited by the Neo theory.
 *   NS-MOESI (Fig. 6): C4 moves to O and keeps supplying readers; no
 *            copy to the parent; directories do not block.
 */

#include <cstdio>
#include <map>
#include <string>

#include "core/system.hpp"

using namespace neo;

namespace
{

void
runScenario(ProtocolVariant v)
{
    std::printf("---- %s (the paper's C1 GetS against C4 in M) "
                "----\n",
                protocolName(v));
    EventQueue eventq;
    HierarchySpec spec;
    spec.name = "walkthrough";
    spec.protocol = v;
    spec.root.geom = CacheGeometry{64 * 1024, 8, 64, 4}; // C7
    for (int d = 0; d < 2; ++d) {
        TreeNodeSpec l2{CacheGeometry{16 * 1024, 4, 64, 2}, {}};
        for (int j = 0; j < 2; ++j)
            l2.children.push_back(
                TreeNodeSpec{CacheGeometry{4 * 1024, 2, 64, 1}, {}});
        spec.root.children.push_back(l2);
    }
    System system(spec, eventq);

    // Paper names: l1_0..l1_3 = C1..C4, dir_1 = C5, dir_2 = C6,
    // root_0 = C7.
    const std::map<std::string, std::string> names = {
        {"l1_0", "C1"},   {"l1_1", "C2"},  {"l1_2", "C3"},
        {"l1_3", "C4"},   {"dir_1", "C5"}, {"dir_2", "C6"},
        {"root_0", "C7"},
    };
    const std::map<NodeId, std::string> byId = [&] {
        std::map<NodeId, std::string> m;
        for (std::size_t i = 0; i < system.numDirs(); ++i)
            m[system.dir(i).nodeId()] =
                names.at(system.dir(i).name());
        for (std::size_t i = 0; i < system.numL1s(); ++i)
            m[system.l1(i).nodeId()] = names.at(system.l1(i).name());
        return m;
    }();

    // C4 writes first (silently; no trace yet).
    bool done = false;
    system.l1(3).coreRequest(0x1000, true, [&done] { done = true; });
    eventq.run();
    neo_assert(done, "setup write did not complete");
    std::printf("  setup: C4 now holds the block in %s\n",
                permName(system.l1(3).blockPerm(0x1000)));

    // Trace C1's GetS, numbering the sends like the figures.
    unsigned step = 0;
    system.setTrace([&](const std::string &line) {
        if (line.find("send") == std::string::npos)
            return;
        std::string pretty = line;
        for (const auto &[raw, name] : names) {
            const auto pos = pretty.find(raw + ":");
            if (pos != std::string::npos)
                pretty.replace(pos, raw.size(), name);
        }
        for (const auto &[id, name] : byId) {
            for (const std::string &key :
                 {" src=" + std::to_string(id),
                  " dst=" + std::to_string(id),
                  " target=" + std::to_string(id)}) {
                auto pos = pretty.find(key);
                while (pos != std::string::npos) {
                    const auto eq = pretty.find('=', pos);
                    pretty.replace(eq + 1,
                                   key.size() - (eq - pos) - 1, name);
                    pos = pretty.find(key);
                }
            }
        }
        std::printf("  (%u) %s\n", ++step, pretty.c_str());
    });

    done = false;
    system.l1(0).coreRequest(0x1000, false, [&done] { done = true; });
    eventq.run();
    neo_assert(done, "GetS did not complete");
    system.setTrace(nullptr);

    std::printf("  final: C1=%s C4=%s; checker: %s\n\n",
                permName(system.l1(0).blockPerm(0x1000)),
                permName(system.l1(3).blockPerm(0x1000)),
                system.checker().check().empty() ? "coherent"
                                                 : "VIOLATION");
}

} // namespace

int
main()
{
    setQuiet(true);
    runScenario(ProtocolVariant::NeoMESI);
    runScenario(ProtocolVariant::NSMESI);
    runScenario(ProtocolVariant::NSMOESI);
    std::printf("Compare the message counts and who touches the data: "
                "NeoMESI relays through\nthe tree; NS-MESI saves the "
                "C6 hop; NS-MOESI leaves C4 as the owner in O.\n");
    return 0;
}
