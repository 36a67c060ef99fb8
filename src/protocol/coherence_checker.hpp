/**
 * @file
 * Whole-hierarchy coherence oracle for tests and debug runs.
 *
 * At quiescent points it recomputes, bottom-up, the Neo summary of
 * every subtree using the Section 2.4 sum functions and reports every
 * block whose Closed-System summary is `bad`, every violation of the
 * permission principle, and every inclusion violation (a child holding
 * a block its directory does not track). A protocol bug anywhere in
 * the hierarchy therefore surfaces as a named violation string.
 */

#ifndef NEO_PROTOCOL_COHERENCE_CHECKER_HPP
#define NEO_PROTOCOL_COHERENCE_CHECKER_HPP

#include <string>
#include <vector>

#include "network/tree_network.hpp"
#include "protocol/dir_controller.hpp"
#include "protocol/l1_controller.hpp"

namespace neo
{

class CoherenceChecker
{
  public:
    explicit CoherenceChecker(const TreeNetwork &net) : net_(net) {}

    void addDir(const DirController *dir);
    void addL1(const L1Controller *l1);

    /** True when every registered controller is between transactions. */
    bool quiescent() const;

    /**
     * Run all invariant checks over every block tracked anywhere.
     * @return human-readable violations; empty means coherent.
     */
    std::vector<std::string> check() const;

  private:
    /**
     * Recursive Neo summary of the subtree rooted at @p node, which
     * sits @p depth levels below the root. @p sums holds one reused
     * child-sum buffer per depth.
     */
    Perm subtreeSum(NodeId node, Addr addr, std::size_t depth,
                    std::vector<std::vector<Perm>> &sums,
                    std::vector<std::string> &violations) const;

    const TreeNetwork &net_;
    /** Registered controllers by NodeId; null where none is. */
    std::vector<const DirController *> dirs_;
    std::vector<const L1Controller *> l1s_;
};

} // namespace neo

#endif // NEO_PROTOCOL_COHERENCE_CHECKER_HPP
