#include "cgroup/cgroup.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace tmo::cgroup
{

Cgroup::Cgroup(std::string name, Cgroup *parent, std::uint32_t id)
    : name_(std::move(name)), parent_(parent), id_(id)
{}

std::string
Cgroup::path() const
{
    if (!parent_)
        return name_;
    const std::string parent_path = parent_->path();
    if (parent_path.empty() || parent_path == "/")
        return "/" + name_;
    return parent_path + "/" + name_;
}

void
Cgroup::charge(std::uint64_t bytes)
{
    for (Cgroup *node = this; node; node = node->parent_)
        node->memCurrent_ += bytes;
}

void
Cgroup::uncharge(std::uint64_t bytes)
{
    for (Cgroup *node = this; node; node = node->parent_) {
        assert(node->memCurrent_ >= bytes && "uncharge underflow");
        node->memCurrent_ -= std::min(node->memCurrent_, bytes);
    }
}

std::uint64_t
Cgroup::headroom() const
{
    std::uint64_t room = NO_LIMIT;
    for (const Cgroup *node = this; node; node = node->parent_) {
        if (node->memMax_ == NO_LIMIT)
            continue;
        const std::uint64_t here = node->memMax_ > node->memCurrent_
                                       ? node->memMax_ - node->memCurrent_
                                       : 0;
        room = std::min(room, here);
    }
    return room;
}

std::uint64_t
Cgroup::memoryReclaim(std::uint64_t bytes, sim::SimTime now)
{
    if (!reclaimFn_)
        return 0;
    return reclaimFn_(*this, bytes, now);
}

void
Cgroup::psiUpdateAveragesRecursive(sim::SimTime now)
{
    psi_.updateAverages(now);
    for (Cgroup *child : children_)
        child->psiUpdateAveragesRecursive(now);
}

CgroupTree::CgroupTree()
{
    nodes_.push_back(std::make_unique<Cgroup>("/", nullptr, 0));
    root_ = nodes_.back().get();
}

Cgroup &
CgroupTree::create(const std::string &name, Cgroup *parent)
{
    if (!parent)
        parent = root_;
    nodes_.push_back(std::make_unique<Cgroup>(name, parent, nextId_++));
    Cgroup *node = nodes_.back().get();
    parent->children_.push_back(node);
    return *node;
}

Cgroup *
CgroupTree::find(const std::string &path)
{
    // Split "a/b/c" and walk down from the root.
    Cgroup *node = root_;
    std::stringstream ss(path);
    std::string part;
    while (std::getline(ss, part, '/')) {
        if (part.empty())
            continue;
        auto &kids = node->children_;
        auto it = std::find_if(kids.begin(), kids.end(),
                               [&](Cgroup *c) { return c->name() == part; });
        if (it == kids.end())
            return nullptr;
        node = *it;
    }
    return node;
}

void
CgroupTree::psiUpdateAverages(sim::SimTime now)
{
    for (auto &node : nodes_)
        node->psi().updateAverages(now);
}

} // namespace tmo::cgroup
