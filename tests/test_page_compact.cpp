/**
 * @file
 * Page-table compaction and index-safety regressions:
 *
 *  - newPage() may reallocate pages_ while a reclaim/fault path is
 *    mid-flight inside a virtual backend call. Every call site now
 *    works by PageIdx; a backend that allocates pages from inside
 *    store() (below) used to leave dangling Page references behind.
 *    The ASan job runs this binary to catch any regression as a
 *    use-after-free, not a flaky value corruption.
 *  - Page::memcg is 16-bit and Page::store is 8-bit; attaching or
 *    registering past their sentinels must be a named error, not a
 *    silent wrap that aliases cgroup 0 / the "no backend" sentinel,
 *    and the error must leave the cgroup on its previous chain.
 *  - reservePages() pre-sizes the table so steady-state growth never
 *    moves it, and the shadow-age SoA array tracks it exactly.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/filesystem.hpp"
#include "backend/ssd.hpp"
#include "backend/swap_backend.hpp"
#include "cgroup/cgroup.hpp"
#include "mem/memory_manager.hpp"
#include "mem/page.hpp"
#include "tier/tier_chain.hpp"

using namespace tmo;

namespace
{

constexpr std::uint32_t PAGE = 64 * 1024;

mem::MemoryConfig
smallConfig(std::uint64_t ram_pages)
{
    mem::MemoryConfig config;
    config.ramBytes = ram_pages * PAGE;
    config.pageBytes = PAGE;
    return config;
}

/**
 * A backend whose store() allocates a page — exactly what a real
 * backend does indirectly when eviction IO bookkeeping creates file
 * pages. Each accepted store grows pages_, so an eviction loop that
 * holds a Page reference across store() dereferences freed memory as
 * soon as the vector reallocates.
 */
class AllocatingBackend : public backend::OffloadBackend
{
  public:
    AllocatingBackend(mem::MemoryManager &mm, cgroup::Cgroup &spare)
        : mm_(mm), spare_(spare)
    {}

    const std::string &name() const override { return name_; }

    backend::StoreResult
    store(std::uint64_t page_bytes, double, sim::SimTime now) override
    {
        // Non-resident file page: returns before reclaim, so the only
        // side effect is the page-table push_back this test is about.
        mm_.newPage(spare_, /*anon=*/false, /*resident=*/false, now);
        used_ += page_bytes;
        return {true, page_bytes, 0};
    }

    backend::LoadResult
    load(std::uint64_t stored_bytes, sim::SimTime) override
    {
        // Like zswap: a load frees the stored copy.
        used_ -= stored_bytes;
        return {0, false};
    }

    void release(std::uint64_t stored_bytes) override
    {
        used_ -= stored_bytes;
    }

    std::uint64_t usedBytes() const override { return used_; }
    bool isBlockDevice() const override { return false; }

  private:
    mem::MemoryManager &mm_;
    cgroup::Cgroup &spare_;
    std::string name_ = "alloc-on-store";
    std::uint64_t used_ = 0;
};

/** Backend stub for registry-capacity tests; stores nothing. */
class StubBackend : public backend::OffloadBackend
{
  public:
    explicit StubBackend(std::string name)
        : name_(std::move(name))
    {}

    const std::string &name() const override { return name_; }

    backend::StoreResult
    store(std::uint64_t, double, sim::SimTime) override
    {
        return {};
    }

    backend::LoadResult
    load(std::uint64_t, sim::SimTime) override
    {
        return {};
    }

    void release(std::uint64_t) override {}
    std::uint64_t usedBytes() const override { return 0; }
    bool isBlockDevice() const override { return false; }

  private:
    std::string name_;
};

/** One-tier chains over fresh StubBackends, kept alive together. */
struct StubChains {
    std::vector<std::unique_ptr<StubBackend>> stubs;
    std::vector<std::unique_ptr<tier::TierChain>> chains;

    tier::TierChain *
    add(const std::string &name)
    {
        stubs.push_back(std::make_unique<StubBackend>(name));
        chains.push_back(std::make_unique<tier::TierChain>(
            name,
            std::vector<backend::OffloadBackend *>{stubs.back().get()},
            tier::TierChainConfig{}));
        return chains.back().get();
    }
};

} // namespace

TEST(PageReallocTest, EvictionSurvivesPageTableGrowthInsideStore)
{
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd(backend::ssdSpecForClass('C'), 1);
    backend::FilesystemBackend fs(ssd);
    mem::MemoryManager mm(smallConfig(64), 3);
    cgroup::Cgroup &app = tree.create("app");
    cgroup::Cgroup &spare = tree.create("spare");

    AllocatingBackend alloc(mm, spare);
    tier::TierChain chain("alloc", {&alloc}, {});
    mm.attach(app, &chain, &fs);
    mm.attach(spare, nullptr, &fs);

    for (int i = 0; i < 48; ++i)
        mm.newPage(app, /*anon=*/true, /*resident=*/true, 0);

    // Force the next growth to reallocate: capacity == size, so the
    // first page the backend allocates mid-eviction moves the table.
    mm.pages().shrink_to_fit();
    const std::size_t before_pages = mm.pages().size();
    ASSERT_EQ(mm.pages().capacity(), before_pages);

    const auto outcome = mm.reclaim(app, 16ull * PAGE, sim::SEC);

    EXPECT_GE(outcome.reclaimedBytes, 16ull * PAGE);
    // Every evicted page allocated a companion, growing (and moving)
    // the table mid-reclaim.
    const std::uint64_t evicted = outcome.reclaimedBytes / PAGE;
    EXPECT_EQ(mm.pages().size(), before_pages + evicted);
    EXPECT_GT(mm.pages().capacity(), before_pages);

    // The evicted pages fault back through load() — which no longer
    // allocates — and accounting still balances.
    std::uint64_t faults = 0;
    for (mem::PageIdx idx = 0; idx < before_pages; ++idx) {
        if (mm.pages()[idx].where == mem::Where::RAM)
            continue;
        const auto result = mm.access(idx, 2 * sim::SEC);
        EXPECT_TRUE(result.faulted);
        ++faults;
    }
    EXPECT_EQ(faults, evicted);
    EXPECT_EQ(alloc.usedBytes(), 0u);
}

TEST(SentinelOverflowTest, MemcgTableRejectsAttachPastUint16)
{
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd(backend::ssdSpecForClass('C'), 1);
    backend::FilesystemBackend fs(ssd);
    mem::MemoryManager mm(smallConfig(64), 3);

    // 0xffff is the free-slot sentinel in Page::memcg, so exactly
    // 65535 cgroups (indices 0..0xfffe) fit.
    for (unsigned i = 0; i < 0xffff; ++i) {
        cgroup::Cgroup &cg = tree.create("cg" + std::to_string(i));
        mm.attach(cg, nullptr, &fs);
    }
    EXPECT_EQ(mm.memcgCount(), 0xffffu);

    cgroup::Cgroup &overflow = tree.create("one-too-many");
    EXPECT_THROW(mm.attach(overflow, nullptr, &fs),
                 std::length_error);
    EXPECT_EQ(mm.memcgCount(), 0xffffu);
}

TEST(SentinelOverflowTest, BackendRegistryRejectsPastUint8)
{
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd(backend::ssdSpecForClass('C'), 1);
    backend::FilesystemBackend fs(ssd);
    mem::MemoryManager mm(smallConfig(64), 3);
    cgroup::Cgroup &cg = tree.create("app");
    mm.attach(cg, nullptr, &fs); // registers fs as backend 0

    // 0xff is Page::store's "no backend" sentinel: 255 registrations
    // (indices 0..0xfe) fit, the 256th is a named error.
    StubChains stubs;
    for (unsigned i = 1; i < 0xff; ++i)
        mm.setAnonChain(cg, stubs.add("stub" + std::to_string(i)));
    EXPECT_EQ(mm.backendRegistry().size(), 0xffu);

    StubBackend overflow("one-too-many");
    tier::TierChain overflowing("overflow", {&overflow}, {});
    EXPECT_THROW(mm.setAnonChain(cg, &overflowing), std::length_error);
    EXPECT_EQ(mm.backendRegistry().size(), 0xffu);
    cgroup::Cgroup &late = tree.create("late");
    EXPECT_THROW(mm.attach(late, &overflowing, &fs), std::length_error);
    EXPECT_EQ(mm.memcgCount(), 1u);

    // Re-registering an existing backend is not a new slot and stays
    // legal at capacity.
    EXPECT_NO_THROW(mm.setAnonChain(cg, stubs.chains.front().get()));
}

TEST(SentinelOverflowTest, RegistryOverflowKeepsThePreviousChain)
{
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd(backend::ssdSpecForClass('C'), 1);
    backend::SwapBackend swap(ssd, 64ull << 20);
    backend::FilesystemBackend fs(ssd);
    mem::MemoryManager mm(smallConfig(64), 3);
    cgroup::Cgroup &cg = tree.create("app");
    tier::TierChain kept("swap", {&swap}, {});
    mm.attach(cg, &kept, &fs); // swap 0, fs 1
    for (int i = 0; i < 8; ++i)
        mm.newPage(cg, /*anon=*/true, /*resident=*/true, 0);
    ASSERT_EQ(mm.reclaim(cg, PAGE, sim::SEC).reclaimedBytes, PAGE);
    const mem::MemCg &mcg = mm.memcgOf(cg);
    ASSERT_EQ(mcg.tierLists.size(), 1u);
    ASSERT_EQ(mcg.tierLists[0].size(), 1u);

    // Fill the registry to one free slot, with cgroups of their own.
    StubChains stubs;
    for (unsigned i = 2; i < 0xfe; ++i)
        mm.attach(tree.create("filler" + std::to_string(i)),
                  stubs.add("stub" + std::to_string(i)), &fs);
    ASSERT_EQ(mm.backendRegistry().size(), 0xfeu);

    // The first new tier takes the last slot, the second overflows.
    StubBackend first("first"), second("second");
    tier::TierChain two("first+second", {&first, &second}, {});
    EXPECT_THROW(mm.setAnonChain(cg, &two), std::length_error);

    // The memcg is still on its old chain, tier list included, and
    // the next reclaim evicts onto that list.
    EXPECT_EQ(mcg.anonChain, &kept);
    ASSERT_EQ(mcg.tierLists.size(), 1u);
    EXPECT_EQ(mcg.tierLists[0].size(), 1u);
    EXPECT_EQ(mm.reclaim(cg, PAGE, 2 * sim::SEC).reclaimedBytes, PAGE);
    EXPECT_EQ(mcg.tierLists[0].size(), 2u);
    EXPECT_EQ(mcg.swapBytes, 2ull * PAGE);
    EXPECT_EQ(mm.residentPages(), 6u);
}

TEST(ReservePagesTest, SteadyStateGrowthNeverReallocates)
{
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd(backend::ssdSpecForClass('C'), 1);
    backend::FilesystemBackend fs(ssd);
    mem::MemoryManager mm(smallConfig(64), 3);
    cgroup::Cgroup &cg = tree.create("app");
    mm.attach(cg, nullptr, &fs);

    mm.reservePages(1000);
    ASSERT_GE(mm.pages().capacity(), 1000u);
    const mem::Page *data = mm.pages().data();

    // Non-resident file pages: growth only, no reclaim interference.
    for (int i = 0; i < 1000; ++i)
        mm.newPage(cg, /*anon=*/false, /*resident=*/false, 0);

    EXPECT_EQ(mm.pages().size(), 1000u);
    EXPECT_EQ(mm.pages().data(), data);

    // A smaller (or equal) reservation after the fact is a no-op.
    mm.reservePages(10);
    EXPECT_EQ(mm.pages().data(), data);
}

TEST(ReservePagesTest, ShadowAgeArrayTracksThePageTable)
{
    cgroup::CgroupTree tree;
    backend::SsdDevice ssd(backend::ssdSpecForClass('C'), 1);
    backend::FilesystemBackend fs(ssd);
    mem::MemoryManager mm(smallConfig(64), 3);
    cgroup::Cgroup &cg = tree.create("app");
    mm.attach(cg, nullptr, &fs);

    const mem::PageIdx idx =
        mm.newPage(cg, /*anon=*/false, /*resident=*/false, 0);
    EXPECT_EQ(mm.shadowAge(idx), 0u);
    mm.setShadowAge(idx, 42);
    EXPECT_EQ(mm.shadowAge(idx), 42u);

    // Free + recycle resets the cold entry with the hot struct.
    mm.freePage(idx);
    const mem::PageIdx again =
        mm.newPage(cg, /*anon=*/false, /*resident=*/false, 0);
    EXPECT_EQ(again, idx);
    EXPECT_EQ(mm.shadowAge(again), 0u);
}
