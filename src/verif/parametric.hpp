/**
 * @file
 * Push-button parametric verification via saturation (view)
 * abstraction with cutoff convergence.
 *
 * Cubicle proves properties for every instance size N with SMT-based
 * backward reachability over array-based systems. We substitute a
 * technique with the same push-button character for systems of
 * identical, symmetric leaves (exactly Neo's leaf assumption):
 *
 *  1. model-check each concrete instance N = from .. to (all
 *     invariants, full reachability);
 *  2. project each reachable set through a saturation abstraction
 *     that keeps the shared (directory) variables exact and counts
 *     leaves per leaf-local configuration, saturating at a small
 *     bound ("0, 1, many");
 *  3. when the abstract reachable sets of two consecutive sizes
 *     coincide, adding further leaves only replicates existing
 *     leaf configurations — the cutoff has been reached and the
 *     invariants hold for all larger N.
 *
 * This mirrors the view-abstraction cutoff method (Abdulla et al.,
 * "Parameterized verification through view abstraction") specialized
 * to our models.
 */

#ifndef NEO_VERIF_PARAMETRIC_HPP
#define NEO_VERIF_PARAMETRIC_HPP

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "verif/explorer.hpp"

namespace neo
{

/**
 * How a model exposes its structure to the abstraction: the first
 * sharedVars variables are global; the rest is numLeaves consecutive
 * blocks of leafBlockSize variables, one per identical leaf.
 */
struct ModelShape
{
    std::size_t sharedVars = 0;
    std::size_t numLeaves = 0;
    std::size_t leafBlockSize = 0;
    /** Shared variables whose value range grows with N (ack
     *  counters): the abstraction saturates them like leaf counts. */
    std::vector<std::size_t> saturatedSharedVars;
};

/** Factory producing the model instantiated with N leaves. */
using ModelFactory =
    std::function<TransitionSystem(std::size_t n, ModelShape &shape)>;

/**
 * One instance's size-<=2 view set (Abdulla et al.'s view
 * abstraction): every state contributes its shared variables, ack
 * counters saturated, extended with each sub-multiset of at most two
 * of its leaf blocks. The view count is bounded independently of N,
 * so the sets of successive instance sizes can converge.
 *
 * A view is held as one 64-bit key, not as bytes. Two dictionaries
 * hand out dense ids: a StateStore of stride `sharedVars` for the
 * saturated shared prefix, and one of stride `leafBlockSize` for leaf
 * blocks. The key packs the shared id with the smaller and the larger
 * block id, each plus one, and 0 for an absent block. A state costs
 * 1 + N dictionary lookups, a sort of its N block ids and at most
 * 1 + N + N(N-1)/2 key inserts, with no heap allocation per state.
 *
 * The set of instance N+1 shares the dictionaries of instance N when
 * both have the same shared prefix and leaf block widths, so their
 * keys compare directly. Sets over different widths never compare
 * equal, as views of different lengths never do.
 *
 * add() is not thread-safe; the parallel explorer serializes the
 * on_state callback that feeds it.
 */
class ViewSet
{
  public:
    /** An empty set for one instance. It shares @p prev's
     *  dictionaries when @p prev has the same prefix and block
     *  widths, and starts fresh ones otherwise. */
    ViewSet(const ModelShape &shape, unsigned saturation,
            const ViewSet *prev = nullptr);

    /** Project one concrete state of this instance. */
    void add(const VState &s);
    /** Insert one view given as bytes in sortedViews() form: the
     *  saturated shared prefix, then zero, one or two leaf blocks
     *  (the resume path re-encodes snapshot views this way).
     *  @return false, inserting nothing, when no view of this shape
     *  has that length. */
    bool addView(const std::vector<std::uint8_t> &view);

    std::size_t size() const { return size_; }
    /** Same dictionaries, same size, and every key of one is a key
     *  of the other. */
    bool operator==(const ViewSet &o) const;

    /** Every view as bytes: the shared prefix, then the pair's
     *  blocks in byte order, the strings sorted lexicographically
     *  (the order of a std::set of byte vectors). */
    std::vector<std::vector<std::uint8_t>> sortedViews() const;

  private:
    struct Dictionaries;

    void insertKey(std::uint64_t key);
    /** The slot holding @p key, or the free slot that would. */
    std::size_t slotFor(std::uint64_t key) const;

    ModelShape shape_;
    unsigned saturation_;
    std::shared_ptr<Dictionaries> dicts_;
    /** Open-addressed key set: linear probing, power-of-two
     *  capacity, kEmpty marks a free slot. */
    std::vector<std::uint64_t> slots_;
    std::size_t size_ = 0;
    /** Per-state scratch, reused so add() never allocates. */
    std::vector<std::uint8_t> shared_;
    std::vector<std::uint32_t> ids_;
};

struct ParametricResult
{
    /** Overall outcome across the sweep. */
    VerifStatus status = VerifStatus::Verified;
    /** True when the abstract reach sets converged within the sweep. */
    bool converged = false;
    /** Smallest N whose abstraction equals N+1's (the cutoff). */
    std::size_t cutoff = 0;
    std::vector<ExploreResult> perInstance;
    std::vector<std::size_t> instanceSizes;
    std::vector<std::size_t> abstractSetSizes;
    /** Wall-clock for the whole sweep (all instances), cumulative
     *  across resumes. */
    double seconds = 0.0;
    std::string detail;
    /** The sweep restored completed instances from a snapshot. */
    bool resumed = false;
    /** Instances restored from the snapshot (when resumed). */
    std::size_t restoredInstances = 0;
};

/**
 * Run the parametric sweep.
 *
 * With limits.threads > 1 each instance's reachability runs on the
 * parallel explorer internally (the view set is collected through
 * the serialized on_state callback, so the abstraction —
 * being a set — is independent of discovery order and identical to
 * the sequential sweep's).
 *
 * @param factory builds the N-leaf instance
 * @param from smallest instance (>= 1)
 * @param to largest instance to try before giving up on convergence
 * @param saturation count bound per leaf configuration (default 2 =
 *        "zero, one, many")
 */
ParametricResult
verifyParametric(const ModelFactory &factory, std::size_t from,
                 std::size_t to, const ExploreLimits &limits,
                 unsigned saturation = 2);

} // namespace neo

#endif // NEO_VERIF_PARAMETRIC_HPP
