/**
 * @file
 * cgroup2-like container hierarchy.
 *
 * Each simulated container is a Cgroup node carrying:
 *  - memory accounting (memory.current, hierarchically charged),
 *  - an optional memory.max limit,
 *  - the stateless memory.reclaim control file TMO added to the kernel
 *    (§3.3), wired to the reclaimer by the memory manager,
 *  - vmstat-style event counters (pgscan, pgsteal, pswpin/pswpout,
 *    workingset_refault/activate, refaults of file cache),
 *  - a PSI group; task state changes propagate to all ancestors.
 *
 * Cgroups are owned by the CgroupTree and referenced by raw pointer;
 * nodes are never removed while a simulation is running.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "psi/psi.hpp"
#include "sim/time.hpp"

namespace tmo::cgroup
{

/** No memory limit configured. */
inline constexpr std::uint64_t NO_LIMIT = ~0ull;

/** vmstat-style event counters (monotonic). */
struct VmStats {
    std::uint64_t pgscan = 0;       ///< pages scanned by reclaim
    std::uint64_t pgsteal = 0;      ///< pages reclaimed
    std::uint64_t pgactivate = 0;   ///< promotions to the active list
    std::uint64_t pgdeactivate = 0; ///< demotions to the inactive list
    std::uint64_t pgrotate = 0;     ///< referenced pages rotated
    std::uint64_t pswpout = 0;      ///< anon pages swapped out
    std::uint64_t pswpin = 0;       ///< anon pages swapped in
    std::uint64_t pgfilesteal = 0;  ///< file pages dropped from cache
    std::uint64_t pgfilefault = 0;  ///< file pages read from disk
    std::uint64_t wsRefault = 0;     ///< workingset_refault (file)
    std::uint64_t wsRefaultAnon = 0; ///< workingset_refault_anon
    std::uint64_t wsActivate = 0;    ///< workingset_activate
    std::uint64_t zswpout = 0;      ///< pages stored into zswap
    std::uint64_t zswpin = 0;       ///< pages loaded from zswap
    std::uint64_t tierDemote = 0;   ///< pages moved down the tier chain
    std::uint64_t tierPromote = 0;  ///< pages moved up the tier chain
    std::uint64_t tierEvacuate = 0; ///< pages drained off a dying tier
    std::uint64_t tierLost = 0;     ///< pages lost with an unsavable tier
    std::uint64_t lostRefault = 0;  ///< major faults on lost pages
};

/**
 * Relative importance of a container when the TMO daemon distributes
 * offloading effort (§1: "containers may have different priorities").
 */
enum class Priority { LOW = 0, NORMAL = 1, HIGH = 2 };

class CgroupTree;

/** One node of the container hierarchy. */
class Cgroup
{
  public:
    /** Hook type for the memory.reclaim control file. The callee
     *  attempts to reclaim @p bytes and returns bytes reclaimed. */
    using ReclaimFn =
        std::function<std::uint64_t(Cgroup &, std::uint64_t bytes,
                                    sim::SimTime now)>;

    Cgroup(std::string name, Cgroup *parent, std::uint32_t id);

    Cgroup(const Cgroup &) = delete;
    Cgroup &operator=(const Cgroup &) = delete;

    const std::string &name() const { return name_; }
    std::uint32_t id() const { return id_; }
    Cgroup *parent() { return parent_; }
    const Cgroup *parent() const { return parent_; }
    const std::vector<Cgroup *> &children() const { return children_; }

    /** Slash-separated path from the root. */
    std::string path() const;

    // --- memory accounting -------------------------------------------

    /** memory.current: bytes charged to this cgroup and descendants. */
    std::uint64_t memCurrent() const { return memCurrent_; }

    /** memory.max (NO_LIMIT when unset). */
    std::uint64_t memMax() const { return memMax_; }

    /** Set memory.max. Enforcement happens at charge time. */
    void setMemMax(std::uint64_t bytes) { memMax_ = bytes; }

    /** memory.low: best-effort protection from global reclaim. */
    std::uint64_t memLow() const { return memLow_; }

    /** Set memory.low (0 = unprotected). */
    void setMemLow(std::uint64_t bytes) { memLow_ = bytes; }

    /**
     * True while usage is within the memory.low protection: global
     * (kswapd / direct) reclaim skips this cgroup when unprotected
     * memory is available elsewhere. Explicit memory.reclaim ignores
     * the target's own protection, like the kernel knob.
     */
    bool
    lowProtected() const
    {
        return memLow_ > 0 && memCurrent_ <= memLow_;
    }

    /** Charge @p bytes here and in every ancestor. */
    void charge(std::uint64_t bytes);

    /** Uncharge @p bytes here and in every ancestor. */
    void uncharge(std::uint64_t bytes);

    /** Headroom to the tightest limit on the path to the root. */
    std::uint64_t headroom() const;

    // --- control files ------------------------------------------------

    /**
     * memory.reclaim: ask the kernel to reclaim @p bytes from this
     * subtree, without changing any limit (stateless; §3.3).
     *
     * @return Bytes actually reclaimed.
     */
    std::uint64_t memoryReclaim(std::uint64_t bytes, sim::SimTime now);

    /** Install the reclaim hook (done by the memory manager). */
    void setReclaimFn(ReclaimFn fn) { reclaimFn_ = std::move(fn); }

    // --- PSI -----------------------------------------------------------

    /** This cgroup's PSI domain. */
    psi::PsiGroup &psi() { return psi_; }
    const psi::PsiGroup &psi() const { return psi_; }

    /**
     * Report a task state transition for a task in this cgroup; the
     * change is applied here and in every ancestor (like the kernel's
     * iterate-ancestors loop in psi_task_change). Inline, so that a
     * timeline replay applies each transition without a call.
     */
    void
    psiTaskChange(unsigned clear, unsigned set, sim::SimTime now)
    {
        for (Cgroup *node = this; node; node = node->parent_)
            node->psi_.taskChange(clear, set, now);
    }

    /** Fold averages here and in the whole subtree. */
    void psiUpdateAveragesRecursive(sim::SimTime now);

    // --- stats ----------------------------------------------------------

    VmStats &stats() { return stats_; }
    const VmStats &stats() const { return stats_; }

    Priority priority() const { return priority_; }
    void setPriority(Priority p) { priority_ = p; }

  private:
    friend class CgroupTree;

    std::string name_;
    Cgroup *parent_;
    std::uint32_t id_;
    std::vector<Cgroup *> children_;

    std::uint64_t memCurrent_ = 0;
    std::uint64_t memMax_ = NO_LIMIT;
    std::uint64_t memLow_ = 0;

    psi::PsiGroup psi_;
    VmStats stats_;
    ReclaimFn reclaimFn_;
    Priority priority_ = Priority::NORMAL;
};

/**
 * Owner of the hierarchy. The root cgroup doubles as the machine-wide
 * PSI domain (/proc/pressure equivalent).
 */
class CgroupTree
{
  public:
    CgroupTree();

    Cgroup &root() { return *root_; }
    const Cgroup &root() const { return *root_; }

    /**
     * Create a child cgroup under @p parent (or the root).
     * The tree keeps ownership; the returned pointer stays valid for
     * the tree's lifetime.
     */
    Cgroup &create(const std::string &name, Cgroup *parent = nullptr);

    /** All cgroups in creation order (root first). */
    const std::vector<std::unique_ptr<Cgroup>> &all() const
    {
        return nodes_;
    }

    /** Find by path ("a/b"); nullptr when absent. */
    Cgroup *find(const std::string &path);

    /** Fold PSI averages across the whole tree. */
    void psiUpdateAverages(sim::SimTime now);

  private:
    std::vector<std::unique_ptr<Cgroup>> nodes_;
    Cgroup *root_;
    std::uint32_t nextId_ = 1;
};

} // namespace tmo::cgroup
