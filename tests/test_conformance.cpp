/**
 * @file
 * Simulator-to-model conformance: the README claims the simulator
 * protocol and the verification models "stay honest with each other".
 * This makes it literal: every message-driven L1 line transition
 * observed during randomized simulation must appear in the allowed
 * transition relation of the verified leaf state machine.
 *
 * The table below IS the leaf state machine of the models
 * (src/verif/models/): if someone extends the simulator's L1 with a
 * transition the verified models do not cover, this test fails and
 * points at the gap.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <sstream>
#include <tuple>

#include "core/system.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"

using namespace neo;
using namespace neo::test;

namespace
{

using Transition = std::tuple<L1State, MsgType, L1State>;

/** The allowed (pre, message, post) relation of the verified leaf
 *  machine, plus the documented NS/non-blocking extensions. */
std::set<Transition>
allowedTransitions(const ProtocolConfig &cfg)
{
    using S = L1State;
    using M = MsgType;
    std::set<Transition> ok = {
        // Data grants.
        {S::IS_D, M::Data, S::S},
        {S::IM_D, M::Data, S::M},
        {S::SM_D, M::Data, S::M},
        // Invalidations.
        {S::S, M::Inv, S::I},
        {S::M, M::Inv, S::I},
        {S::SM_D, M::Inv, S::IM_D},
        {S::SI_A, M::Inv, S::II_A},
        {S::MI_A, M::Inv, S::II_A},
        // Forwards to the owner.
        {S::M, M::FwdGetS, S::S},
        {S::M, M::FwdGetM, S::I},
        {S::MI_A, M::FwdGetS, S::SI_A},
        {S::MI_A, M::FwdGetM, S::II_A},
        // Eviction completions.
        {S::SI_A, M::PutAck, S::I},
        {S::MI_A, M::PutAck, S::I},
        {S::II_A, M::PutAck, S::I},
    };
    if (cfg.exclusiveState) {
        ok.insert({S::IS_D, M::Data, S::E});
        ok.insert({S::E, M::Inv, S::I});
        ok.insert({S::E, M::FwdGetS, cfg.ownedState ? S::O : S::S});
        ok.insert({S::E, M::FwdGetM, S::I});
        ok.insert({S::EI_A, M::Inv, S::II_A});
        ok.insert({S::EI_A, M::FwdGetS,
                   cfg.ownedState ? S::EI_A : S::SI_A});
        ok.insert({S::EI_A, M::FwdGetM, S::II_A});
        ok.insert({S::EI_A, M::PutAck, S::I});
    }
    if (cfg.ownedState) {
        ok.insert({S::M, M::FwdGetS, S::O});
        ok.insert({S::O, M::Inv, S::I});
        ok.insert({S::O, M::FwdGetS, S::O});
        ok.insert({S::O, M::FwdGetM, S::I});
        ok.insert({S::OM_D, M::Data, S::M});
        ok.insert({S::OM_D, M::Inv, S::IM_D});
        ok.insert({S::OI_A, M::Inv, S::II_A});
        ok.insert({S::OI_A, M::FwdGetS, S::OI_A});
        ok.insert({S::OI_A, M::FwdGetM, S::II_A});
        ok.insert({S::OI_A, M::PutAck, S::I});
    }
    if (cfg.nonBlockingDir) {
        // The documented back-to-back races (DESIGN.md deviations).
        ok.insert({S::IS_D, M::Inv, S::IS_D_I});
        ok.insert({S::IS_D_I, M::Data, S::I});
        ok.insert({S::IS_D_I, M::Inv, S::IS_D_I});
        ok.insert({S::IS_D_I, M::FwdGetS, S::IS_D_I});
        ok.insert({S::IS_D_I, M::FwdGetM, S::IS_D_I});
        ok.insert({S::IS_D, M::FwdGetS, S::IS_D_F});
        ok.insert({S::IS_D, M::FwdGetM, S::IS_D_F});
        ok.insert({S::IS_D_F, M::FwdGetS, S::IS_D_F});
        ok.insert({S::IS_D_F, M::FwdGetM, S::IS_D_F});
        for (S fin : {S::I, S::S, S::E, S::O, S::M})
            ok.insert({S::IS_D_F, M::Data, fin});
        ok.insert({S::IM_D, M::FwdGetS, S::IM_D_F});
        ok.insert({S::IM_D, M::FwdGetM, S::IM_D_F});
        ok.insert({S::SM_D, M::FwdGetS, S::IM_D_F});
        ok.insert({S::SM_D, M::FwdGetM, S::IM_D_F});
        ok.insert({S::IM_D_F, M::FwdGetS, S::IM_D_F});
        ok.insert({S::IM_D_F, M::FwdGetM, S::IM_D_F});
        ok.insert({S::IM_D_F, M::Inv, S::IM_D_F});
        for (S fin : {S::I, S::O, S::M})
            ok.insert({S::IM_D_F, M::Data, fin});
        ok.insert({S::OM_D, M::FwdGetS, S::OM_D});
        ok.insert({S::OM_D, M::FwdGetM, S::IM_D});
        ok.insert({S::SI_A, M::FwdGetS, S::SI_A});
        ok.insert({S::SI_A, M::FwdGetM, S::II_A});
        // Stale serves against already-dropped lines.
        ok.insert({S::I, M::Inv, S::I});
        ok.insert({S::I, M::FwdGetS, S::I});
        ok.insert({S::I, M::FwdGetM, S::I});
    }
    return ok;
}

class Conformance : public ::testing::TestWithParam<ProtocolVariant>
{
};

TEST_P(Conformance, ObservedTransitionsAreInTheVerifiedRelation)
{
    const ProtocolConfig cfg =
        ProtocolConfig::forVariant(GetParam());
    const std::set<Transition> allowed = allowedTransitions(cfg);

    EventQueue eventq;
    HierarchySpec spec = tinyTree(GetParam(), 3, 3);
    System system(spec, eventq);

    std::set<Transition> observed;
    std::vector<std::string> violations;
    for (std::size_t i = 0; i < system.numL1s(); ++i) {
        system.l1(i).setTransitionObserver(
            [&](Addr, L1State pre, MsgType m, L1State post) {
                const Transition t{pre, m, post};
                observed.insert(t);
                if (!allowed.count(t)) {
                    std::ostringstream os;
                    os << l1StateName(pre) << " --"
                       << msgTypeName(m) << "--> "
                       << l1StateName(post);
                    violations.push_back(os.str());
                }
            });
    }

    const auto cores = static_cast<unsigned>(system.numL1s());
    Random rng(31337);
    std::vector<unsigned> left(cores, 500);
    std::function<void(unsigned)> issue = [&](unsigned c) {
        if (left[c]-- == 0)
            return;
        system.l1(c).coreRequest(rng.below(24) * 64, rng.chance(0.5),
                                 [&issue, c] { issue(c); });
    };
    for (unsigned c = 0; c < cores; ++c)
        issue(c);
    eventq.run(maxTick, 80'000'000);
    ASSERT_TRUE(eventq.empty());

    for (const auto &v : violations)
        ADD_FAILURE() << "unmodeled transition: " << v;

    // The run must have real coverage, not vacuous success.
    EXPECT_GT(observed.size(), 8u);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, Conformance,
    ::testing::Values(ProtocolVariant::TreeMSI, ProtocolVariant::NeoMESI,
                      ProtocolVariant::NSMESI, ProtocolVariant::NSMOESI),
    [](const ::testing::TestParamInfo<ProtocolVariant> &info) {
        std::string n = protocolName(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

} // namespace
