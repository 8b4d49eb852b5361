/**
 * @file
 * Page table and address-space tests.
 */

#include <gtest/gtest.h>

#include "os/address_space.hh"
#include "os/page_table.hh"

using namespace sentry;
using namespace sentry::os;

TEST(PageTable, MapFindUnmap)
{
    PageTable pt;
    Pte &pte = pt.map(0x10000, DRAM_BASE + 0x5000);
    EXPECT_TRUE(pte.present);
    EXPECT_EQ(pte.frame, DRAM_BASE + 0x5000);
    EXPECT_EQ(pt.size(), 1u);

    // Lookup resolves any address within the page.
    EXPECT_EQ(pt.find(0x10000), &pte);
    EXPECT_EQ(pt.find(0x10fff), &pte);
    EXPECT_EQ(pt.find(0x11000), nullptr);

    EXPECT_TRUE(pt.unmap(0x10234)); // page-of semantics
    EXPECT_EQ(pt.find(0x10000), nullptr);
    EXPECT_FALSE(pt.unmap(0x10000));
}

TEST(PageTable, DefaultFlags)
{
    PageTable pt;
    const Pte &pte = pt.map(0x2000, DRAM_BASE);
    EXPECT_TRUE(pte.young);
    EXPECT_TRUE(pte.writable);
    EXPECT_FALSE(pte.encrypted);
    EXPECT_FALSE(pte.onSoc);
}

TEST(PageTable, UnalignedMapPanics)
{
    PageTable pt;
    EXPECT_DEATH(pt.map(0x2001, DRAM_BASE), "unaligned");
}

TEST(PageTable, ForEachVisitsInOrder)
{
    PageTable pt;
    pt.map(0x3000, DRAM_BASE);
    pt.map(0x1000, DRAM_BASE + PAGE_SIZE);
    pt.map(0x2000, DRAM_BASE + 2 * PAGE_SIZE);

    std::vector<VirtAddr> visited;
    pt.forEach([&](VirtAddr va, Pte &) { visited.push_back(va); });
    EXPECT_EQ(visited, (std::vector<VirtAddr>{0x1000, 0x2000, 0x3000}));
}

TEST(AddressSpace, VmasAreDisjointWithGuardGaps)
{
    AddressSpace space;
    // By value: the second addVma() may reallocate the VMA list.
    const Vma a =
        space.addVma("heap", VmaType::Heap, 8 * PAGE_SIZE,
                     SharePolicy::Private);
    const Vma b =
        space.addVma("dma", VmaType::DmaRegion, 4 * PAGE_SIZE,
                     SharePolicy::Private);

    EXPECT_GE(b.base, a.end() + PAGE_SIZE); // guard gap
    EXPECT_EQ(space.totalBytes(), 12 * PAGE_SIZE);
    EXPECT_EQ(space.findVma(a.base + 100), &space.vmas()[0]);
    EXPECT_EQ(space.findVma(b.base), &space.vmas()[1]);
    EXPECT_EQ(space.findVma(a.end()), nullptr); // the gap
}

TEST(AddressSpace, RejectsBadSizes)
{
    AddressSpace space;
    EXPECT_EXIT(space.addVma("x", VmaType::Heap, 100,
                             SharePolicy::Private),
                testing::ExitedWithCode(1), "page multiple");
    EXPECT_EXIT(space.addVma("x", VmaType::Heap, 0,
                             SharePolicy::Private),
                testing::ExitedWithCode(1), "page multiple");
}

TEST(AddressSpace, VmaHelpers)
{
    AddressSpace space;
    const Vma &vma = space.addVma("v", VmaType::Stack, 4 * PAGE_SIZE,
                                  SharePolicy::SharedSensitiveOnly);
    EXPECT_EQ(vma.pages(), 4u);
    EXPECT_TRUE(vma.contains(vma.base));
    EXPECT_TRUE(vma.contains(vma.end() - 1));
    EXPECT_FALSE(vma.contains(vma.end()));
    EXPECT_EQ(vma.share, SharePolicy::SharedSensitiveOnly);
}
