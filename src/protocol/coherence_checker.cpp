#include "coherence_checker.hpp"

#include <algorithm>
#include <sstream>

namespace neo
{

namespace
{

/** Store @p ctl at @p id, growing the table as needed. */
template <typename T>
void
registerAt(std::vector<const T *> &table, NodeId id, const T *ctl)
{
    if (table.size() <= id)
        table.resize(id + 1, nullptr);
    table[id] = ctl;
}

} // namespace

void
CoherenceChecker::addDir(const DirController *dir)
{
    registerAt(dirs_, dir->nodeId(), dir);
}

void
CoherenceChecker::addL1(const L1Controller *l1)
{
    registerAt(l1s_, l1->nodeId(), l1);
}

bool
CoherenceChecker::quiescent() const
{
    for (const DirController *dir : dirs_)
        if (dir != nullptr && !dir->quiescent())
            return false;
    for (const L1Controller *l1 : l1s_)
        if (l1 != nullptr && !l1->quiescent())
            return false;
    return true;
}

Perm
CoherenceChecker::subtreeSum(NodeId node, Addr addr, std::size_t depth,
                             std::vector<std::vector<Perm>> &sums,
                             std::vector<std::string> &violations) const
{
    if (node < l1s_.size() && l1s_[node] != nullptr)
        return leafSum(l1s_[node]->blockPerm(addr));

    neo_assert(node < dirs_.size() && dirs_[node] != nullptr,
               "unregistered node ", node);
    const DirController *dir = dirs_[node];

    if (sums.size() <= depth)
        sums.resize(depth + 1);
    sums[depth].clear();
    const auto &children = net_.childrenOf(node);
    for (NodeId c : children) {
        // Index afresh: a deeper call may grow (and move) `sums`.
        const Perm p = subtreeSum(c, addr, depth + 1, sums, violations);
        sums[depth].push_back(p);
    }
    const std::vector<Perm> &child_sums = sums[depth];

    const Perm perm = dir->blockPerm(addr);
    const Perm sum = composeSum(perm, child_sums);
    if (sum == Perm::Bad) {
        std::ostringstream os;
        os << dir->name() << ": block 0x" << std::hex << addr << std::dec
           << " summarizes to bad (Permission=" << permName(perm)
           << ", children:";
        for (std::size_t i = 0; i < child_sums.size(); ++i)
            os << " " << permName(child_sums[i]);
        os << ")";
        violations.push_back(os.str());
    }

    // Inclusion: any child holding the block must be tracked here.
    for (std::size_t i = 0; i < children.size(); ++i) {
        if (child_sums[i] != Perm::I && perm == Perm::I) {
            std::ostringstream os;
            os << dir->name() << ": inclusion violated for block 0x"
               << std::hex << addr << std::dec << " held by child "
               << children[i];
            violations.push_back(os.str());
        }
    }
    return sum;
}

std::vector<std::string>
CoherenceChecker::check() const
{
    std::vector<std::string> violations;

    // Collect every address tracked anywhere in the hierarchy, sorted
    // and without duplicates.
    std::vector<Addr> addrs;
    for (const DirController *dir : dirs_) {
        if (dir == nullptr)
            continue;
        dir->forEachEntry(
            [&addrs](const DirController::EntryView &e) {
                addrs.push_back(e.addr);
            });
    }
    for (const L1Controller *l1 : l1s_) {
        if (l1 == nullptr)
            continue;
        l1->forEachLine([&addrs](Addr a, L1State s) {
            if (l1StatePerm(s) != Perm::I)
                addrs.push_back(a);
        });
    }
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());

    // Find the root (the registered dir whose parent is invalid).
    const DirController *root = nullptr;
    for (const DirController *dir : dirs_) {
        if (dir != nullptr && dir->isRoot())
            root = dir;
    }
    neo_assert(root != nullptr, "checker needs a root directory");

    std::vector<std::vector<Perm>> sums;
    for (Addr a : addrs)
        subtreeSum(root->nodeId(), a, 0, sums, violations);

    return violations;
}

} // namespace neo
