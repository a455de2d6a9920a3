#include "fault/invariant_auditor.hpp"

#include <array>
#include <cstdint>
#include <sstream>

#include "mem/lru.hpp"
#include "mem/memory_manager.hpp"
#include "mem/page.hpp"
#include "tier/tier_chain.hpp"

namespace tmo::fault
{

namespace
{

/** Counters re-derived from one cgroup's pages. */
struct Derived {
    /** Live pages and their idle ages at the last whole second. */
    mem::IdleCounts idle;
    std::uint64_t resident = 0;
    std::array<std::uint64_t, mem::NUM_LRU_LISTS> perLru{};
    std::uint64_t zswapBytes = 0;
    std::uint64_t swapBytes = 0;
    std::uint64_t lost = 0;
    std::uint64_t onFilesystem = 0;
    std::uint64_t stored = 0;
    std::uint64_t tierListed = 0;
};

const char *
lruName(std::size_t kind)
{
    static const char *NAMES[] = {"inactive_anon", "active_anon",
                                  "inactive_file", "active_file"};
    return NAMES[kind];
}

void
mismatch(std::vector<std::string> &out, const std::string &where,
         const char *what, std::uint64_t expected, std::uint64_t actual)
{
    std::ostringstream msg;
    msg << where << ": " << what << " counter " << actual
        << " != " << expected << " derived from the page table";
    out.push_back(msg.str());
}

} // namespace

std::vector<std::string>
auditHost(host::Host &machine)
{
    std::vector<std::string> violations;
    const mem::MemoryManager &mm = machine.memory();
    const auto &pages = mm.pages();
    const std::size_t ncg = mm.memcgCount();
    const sim::SimTime now = machine.simulation().now();
    // idleBreakdown() answers from its generation counts only at a
    // whole second, so the idle ages are checked at the last one.
    const sim::SimTime second = now - now % sim::SEC;

    // One pass over the page table re-derives every per-cgroup
    // counter the hot paths maintain incrementally.
    std::vector<Derived> derived(ncg);
    for (const auto &page : pages) {
        if (page.memcg == 0xffff)
            continue; // free slot
        if (page.memcg >= ncg) {
            violations.push_back("page table: live page owned by "
                                 "unknown memcg " +
                                 std::to_string(page.memcg));
            continue;
        }
        Derived &d = derived[page.memcg];
        d.idle.add(page.lastAccess, second);
        if (page.flags & mem::PG_TIER_LISTED)
            ++d.tierListed;
        switch (page.where) {
          case mem::Where::RAM:
            ++d.resident;
            if (page.lru == mem::LruKind::NONE)
                violations.push_back(
                    "page table: resident page off every LRU list");
            else
                ++d.perLru[static_cast<std::size_t>(page.lru)];
            break;
          case mem::Where::ZSWAP:
            d.zswapBytes += page.storedBytes;
            ++d.stored;
            break;
          case mem::Where::SWAP:
            d.swapBytes += page.storedBytes;
            ++d.stored;
            break;
          case mem::Where::FS:
            ++d.onFilesystem;
            break;
          case mem::Where::LOST:
            ++d.lost;
            break;
        }
    }

    std::uint64_t lruTotal = 0;
    // The tier list (numbered from 1 across all cgroups) whose walk
    // reached each page; 0 = none. A page may sit on at most one.
    std::vector<std::uint32_t> walkedBy(pages.size(), 0);
    std::uint32_t listNumber = 0;

    for (std::size_t i = 0; i < ncg; ++i) {
        const mem::MemCg &mcg = mm.memcgAt(i);
        const Derived &d = derived[i];
        const std::string name =
            mcg.cg ? mcg.cg->name() : "memcg" + std::to_string(i);

        if (mcg.cg) {
            // idleBreakdown()'s generation counts move with every
            // page change: a missed move shows up here.
            const mem::IdleBreakdown want = d.idle.fractions();
            const mem::IdleBreakdown got =
                mm.idleBreakdown(*mcg.cg, second);
            if (got.used1min != want.used1min ||
                got.used2min != want.used2min ||
                got.used5min != want.used5min || got.cold != want.cold) {
                std::ostringstream msg;
                msg << name << ": idleBreakdown 1/2/5-min fractions "
                    << got.used1min << "/" << got.used2min << "/"
                    << got.used5min << " != " << want.used1min << "/"
                    << want.used2min << "/" << want.used5min
                    << " derived from the page table";
                violations.push_back(msg.str());
            }
        }
        for (std::size_t k = 0; k < mem::NUM_LRU_LISTS; ++k) {
            const auto size =
                mcg.lru.list(static_cast<mem::LruKind>(k)).size();
            if (size != d.perLru[k])
                mismatch(violations, name, lruName(k), d.perLru[k],
                         size);
        }
        if (mcg.lru.totalPages() != d.resident)
            mismatch(violations, name, "resident pages", d.resident,
                     mcg.lru.totalPages());
        if (mcg.zswapBytes != d.zswapBytes)
            mismatch(violations, name, "zswap bytes", d.zswapBytes,
                     mcg.zswapBytes);
        if (mcg.swapBytes != d.swapBytes)
            mismatch(violations, name, "swap bytes", d.swapBytes,
                     mcg.swapBytes);
        if (mcg.lostPages != d.lost)
            mismatch(violations, name, "lost pages", d.lost,
                     mcg.lostPages);
        // Conservation: every live page is in exactly one place.
        if (d.resident + d.stored + d.lost + d.onFilesystem != d.idle.live)
            mismatch(violations, name, "page conservation", d.idle.live,
                     d.resident + d.stored + d.lost + d.onFilesystem);
        lruTotal += mcg.lru.totalPages();

        // Every reclaim pass adds its scans and steals to one kind.
        if (mcg.cg) {
            const cgroup::VmStats &vm = mcg.cg->stats();
            const auto byKind = [&](const char *what, std::uint64_t total,
                                    std::uint64_t direct,
                                    std::uint64_t kswapd,
                                    std::uint64_t proactive) {
                if (direct + kswapd + proactive == total)
                    return;
                std::ostringstream msg;
                msg << name << ": " << what << " " << total << " != "
                    << direct << " direct + " << kswapd << " kswapd + "
                    << proactive << " proactive";
                violations.push_back(msg.str());
            };
            byKind("pgscan", vm.pgscan, vm.pgscanDirect, vm.pgscanKswapd,
                   vm.pgscanProactive);
            byKind("pgsteal", vm.pgsteal, vm.pgstealDirect,
                   vm.pgstealKswapd, vm.pgstealProactive);
        }

        // Tier-list walk: membership, ownership, tier mapping, and
        // the per-tier byte counters. The links alone end a walk, not
        // the list's size counter, which a corrupt list may have
        // wrapped: a walk stops at the first page any walk reached
        // before, or at a link past the page table, so all walks
        // together take at most one step per page. Bad pages are
        // counted per list, so a corrupt list yields a few named
        // violations, not one per page.
        const tier::TierChain *chain = mcg.anonChain;
        const auto &registry = mm.backendRegistry();
        std::uint64_t walked = 0;
        for (std::size_t t = 0; t < mcg.tierLists.size(); ++t) {
            const mem::LruList &list = mcg.tierLists[t];
            const std::string where =
                name + ": tier list " + std::to_string(t);
            ++listNumber;
            std::uint64_t bytes = 0;
            std::uint64_t steps = 0;
            std::uint64_t unflagged = 0, foreign = 0, resident = 0,
                          misplaced = 0;
            for (mem::PageIdx cur = list.head(); cur != mem::NO_PAGE;
                 ++steps) {
                if (cur >= pages.size()) {
                    violations.push_back(where +
                                         " links past the page table");
                    break;
                }
                if (walkedBy[cur] != 0) {
                    violations.push_back(
                        where + (walkedBy[cur] == listNumber
                                     ? " loops back to page "
                                     : " reaches a page of another "
                                       "tier list, page ") +
                        std::to_string(cur));
                    break;
                }
                walkedBy[cur] = listNumber;
                const mem::Page &page = pages[cur];
                ++walked;
                bytes += page.storedBytes;
                if (!(page.flags & mem::PG_TIER_LISTED))
                    ++unflagged;
                if (page.memcg != mcg.index)
                    ++foreign;
                if (page.where != mem::Where::ZSWAP &&
                    page.where != mem::Where::SWAP)
                    ++resident;
                if (!chain || page.store >= registry.size() ||
                    chain->indexOf(registry[page.store]) !=
                        static_cast<int>(t))
                    ++misplaced;
                cur = page.next;
            }
            const auto report = [&](std::uint64_t count,
                                    const char *what) {
                if (count)
                    violations.push_back(where + ": " +
                                         std::to_string(count) + " " +
                                         what);
            };
            report(unflagged, "pages without PG_TIER_LISTED");
            report(foreign, "pages of another cgroup");
            report(resident, "pages not offloaded");
            report(misplaced, "pages stored in a different tier");
            if (steps != list.size())
                mismatch(violations, name, "tier-list length", steps,
                         list.size());
            if (t < mcg.tierBytes.size() && bytes != mcg.tierBytes[t])
                mismatch(violations,
                         name + " tier " + std::to_string(t),
                         "tier bytes", bytes, mcg.tierBytes[t]);
        }
        if (walked != d.tierListed)
            mismatch(violations, name, "PG_TIER_LISTED flags",
                     d.tierListed, walked);
    }

    if (mm.residentPages() != lruTotal)
        mismatch(violations, machine.name(), "resident-page total",
                 lruTotal, mm.residentPages());

    // Every offload backend's occupancy must equal the storedBytes of
    // the pages referencing it. The filesystem is exempt: file
    // contents occupy it whether or not they are cached in DRAM. An
    // offloaded page is in ZSWAP exactly when its backend keeps pages
    // in host DRAM, which decides whether the cgroup is charged.
    const auto &registry = mm.backendRegistry();
    std::vector<std::uint64_t> perBackend(registry.size(), 0);
    for (const auto &page : pages) {
        if (page.memcg == 0xffff ||
            (page.where != mem::Where::ZSWAP &&
             page.where != mem::Where::SWAP))
            continue;
        const bool in_dram = page.where == mem::Where::ZSWAP;
        const char *kind = in_dram ? "zswap" : "swap";
        if (page.store >= registry.size()) {
            violations.push_back(std::string("page table: page in ") +
                                 kind + " names no registered backend");
            continue;
        }
        const backend::OffloadBackend *be = registry[page.store];
        if (be->storesInHostDram() != in_dram)
            violations.push_back(
                std::string("page table: page in ") + kind +
                " stored in " + be->name() + ", which keeps " +
                (in_dram ? "no pages" : "pages") + " in host DRAM");
        perBackend[page.store] += page.storedBytes;
    }
    std::uint64_t dramPools = 0;
    for (std::size_t b = 0; b < registry.size(); ++b) {
        backend::OffloadBackend *be = registry[b];
        if (!be || be == &machine.filesystem())
            continue;
        if (be->usedBytes() != perBackend[b])
            mismatch(violations, machine.name() + " " + be->name(),
                     "backend usedBytes", perBackend[b],
                     be->usedBytes());
        if (be->storesInHostDram())
            dramPools += be->usedBytes();
    }

    // Free RAM: ramUsed() adds a running total of the compressed
    // copies to the resident pages; it must equal what the DRAM
    // pools hold.
    const std::uint64_t ramWant =
        mm.residentPages() * mm.pageBytes() + dramPools;
    if (mm.ramUsed() != ramWant) {
        std::ostringstream msg;
        msg << machine.name() << ": ramUsed " << mm.ramUsed()
            << " != " << ramWant
            << " of resident pages and host-DRAM pools";
        violations.push_back(msg.str());
    }

    return violations;
}

} // namespace tmo::fault
