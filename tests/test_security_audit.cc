/**
 * @file
 * SecurityAudit tests: the auditor passes on a correctly configured
 * device and catches each class of misconfiguration/leak when it is
 * deliberately introduced.
 */

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "core/device.hh"
#include "core/security_audit.hh"

using namespace sentry;
using namespace sentry::core;
using namespace sentry::os;

namespace
{

const auto SECRET = fromHex("a0d17a0d17a0d17a0d17a0d17a0d1700");

struct AuditFixture : testing::Test
{
    AuditFixture() : device(hw::PlatformConfig::tegra3(64 * MiB))
    {
        app = &device.kernel().createProcess("app");
        const Vma &vma = device.kernel().addVma(*app, "heap",
                                                VmaType::Heap,
                                                8 * PAGE_SIZE);
        heap = vma.base;
        device.kernel().writeVirt(*app, heap, SECRET.data(),
                                  SECRET.size());
        device.sentry().markSensitive(*app);
    }

    AuditReport
    audit()
    {
        SecurityAudit auditor(device.kernel(), device.sentry());
        const std::span<const std::uint8_t> markers[] = {SECRET};
        return auditor.run(markers);
    }

    Device device;
    Process *app;
    VirtAddr heap;
};

const AuditFinding &
findingNamed(const AuditReport &report, const std::string &name)
{
    for (const auto &finding : report.findings) {
        if (finding.check == name)
            return finding;
    }
    ADD_FAILURE() << "missing check " << name;
    static AuditFinding none{"?", false, ""};
    return none;
}

} // namespace

TEST_F(AuditFixture, PassesAwakeAndLocked)
{
    EXPECT_TRUE(audit().allPassed());
    device.kernel().lockScreen();
    const AuditReport report = audit();
    EXPECT_TRUE(report.allPassed()) << report.summary();
    EXPECT_EQ(report.findings.size(), 5u);
}

TEST_F(AuditFixture, CatchesDecryptedPageWhileLocked)
{
    device.kernel().lockScreen();
    // Simulate a buggy component force-decrypting a page while locked.
    Pte *pte = app->pageTable().find(heap);
    device.sentry().engine().cbcDecryptPhys(
        pte->frame, PAGE_SIZE, device.sentry().pageIv(*app, heap));
    pte->encrypted = false;
    pte->young = true;

    const AuditReport report = audit();
    EXPECT_FALSE(report.allPassed());
    EXPECT_FALSE(findingNamed(report, "page-states").passed);
    EXPECT_FALSE(findingNamed(report, "plaintext-markers").passed);
}

TEST_F(AuditFixture, CatchesFlushMaskRegression)
{
    device.kernel().lockScreen();
    ASSERT_TRUE(device.sentry().wayManager().lockWay().has_value());
    // Regression: someone reset the flush mask (e.g. an unpatched
    // driver path).
    device.soc().l2().setFlushWayMask(0);

    const AuditReport report = audit();
    EXPECT_FALSE(findingNamed(report, "flush-mask").passed);
}

TEST_F(AuditFixture, CatchesUnscrubbedFreedPages)
{
    // Bypass the zero-thread wait (the ablation) by destroying a
    // process after the lock hook already ran.
    device.kernel().lockScreen();
    Process &doomed = device.kernel().createProcess("doomed");
    device.kernel().addVma(doomed, "heap", VmaType::Heap, 4 * PAGE_SIZE);
    device.kernel().destroyProcess(doomed);

    const AuditReport report = audit();
    EXPECT_FALSE(findingNamed(report, "freed-pages").passed);

    device.kernel().zeroFreedPages();
    EXPECT_TRUE(findingNamed(audit(), "freed-pages").passed);
}

TEST_F(AuditFixture, SummaryIsReadable)
{
    device.kernel().lockScreen();
    const std::string summary = audit().summary();
    EXPECT_NE(summary.find("[PASS] key-residency"), std::string::npos);
    EXPECT_NE(summary.find("flush-mask"), std::string::npos);
}

TEST_F(AuditFixture, PassesAfterDeepLockScrub)
{
    device.kernel().setPin("1234");
    device.kernel().lockScreen();
    for (int i = 0; i < 5; ++i)
        device.kernel().unlockScreen("0000");
    ASSERT_TRUE(device.sentry().keysDestroyed());

    const AuditReport report = audit();
    EXPECT_TRUE(report.allPassed()) << report.summary();
}
