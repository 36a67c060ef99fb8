/**
 * @file
 * The mutation corpus: deliberately broken variants of the bundled
 * protocol models, each tagged with the invariant it must violate.
 *
 * A verifier that has never caught a bug proves nothing (the
 * "detect seeded faults" discipline): every mutant here must be
 * flagged by exhaustive BFS, by the parallel explorer, AND by
 * the random-walk falsifier under its documented seed/budget, while
 * every unmutated bundled model survives the same budgets clean —
 * tests/test_random_walk.cpp enforces exactly that.
 *
 * Mutants are built mechanically: the registry builds the correct
 * model, then surgically rewrites guards or effects of named rules
 * (TransitionSystem::findRule / varIndex). Guard mutations weaken a
 * conjunct by forcing a variable before evaluating the original
 * guard; effect mutations wrap the original effect and then undo or
 * add one update. Every per-leaf rule family is mutated for ALL
 * leaves, so the leaf-sorting symmetry canonicalizer stays sound.
 *
 * The corpus covers the paper's §4.2 reject cases — the non-blocking
 * directory and the O-state owner that supplies data without
 * transferring ownership — plus classic directory-bookkeeping and
 * invalidation bugs.
 */

#ifndef NEO_VERIF_MODELS_MUTANTS_HPP
#define NEO_VERIF_MODELS_MUTANTS_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "verif/parametric.hpp"
#include "verif/transition_system.hpp"

namespace neo::verif
{

struct Mutant
{
    /** Registry key (neoverify --mutant NAME). */
    std::string name;
    /** What is broken, in protocol terms. */
    std::string description;
    /** Invariant this mutant must violate (checker tag). */
    std::string violates;
    /** Instance size the falsification budget is documented for. */
    std::size_t n = 2;
    /** Documented falsification budget: the walker must find the
     *  violation within this many walks x depth at this seed. */
    std::uint64_t budgetWalks = 64;
    std::uint64_t budgetDepth = 256;
    std::uint64_t budgetSeed = 1;
    /** Build the broken model. */
    std::function<TransitionSystem(ModelShape &)> build;
};

/** A correct bundled model, for the no-false-alarm half of the
 *  differential suite. */
struct BundledModel
{
    std::string name;
    std::function<TransitionSystem(ModelShape &)> build;
};

/** All registered mutants (>= 8; stable order and names — the golden
 *  regression tests key on them). */
const std::vector<Mutant> &mutantRegistry();

/** Lookup by name; nullptr when absent. */
const Mutant *findMutant(const std::string &name);

/** The unmutated models the corpus derives from. */
const std::vector<BundledModel> &bundledModels();

} // namespace neo::verif

#endif // NEO_VERIF_MODELS_MUTANTS_HPP
