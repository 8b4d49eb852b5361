/**
 * @file
 * Page-granular copy-on-write byte array.
 *
 * `CowBytes` backs the large simulated cell arrays (DRAM, iRAM) so that
 * a whole warmed device can be checkpointed and forked without copying
 * the full model. Pages are in one of three states:
 *
 *  - Zero:    all zero; reads come from a shared all-zero page.
 *  - Shared:  read-only view into an immutable `CowImage` (a snapshot).
 *  - Private: this instance owns the page; writes landed here.
 *
 * `freeze()` publishes the current contents as an immutable, ref-counted
 * `CowImage` without disturbing this instance; pages holding only zeros
 * are published as Zero, never copied. `adopt()` rebinds this instance
 * to an image: every page becomes Shared (or Zero) and the first write
 * to a page privatizes it ("private-on-first-write"). The set of
 * Private pages is the fork's dirty bitmap; `privatePages()` reports
 * its population count.
 *
 * Scanners use `contains()`: it walks page runs in place, skips Zero
 * runs and never changes a page state, so its cost follows the pages a
 * fork owns rather than the array size. Power-loss decay
 * (`decayPage()`) and bit flips (`flipBit()`) privatize only the pages
 * they change. `contiguous()` (behind `Dram::raw()` / `Iram::raw()`)
 * is the flat reference for tests and the benchmark replay.
 *
 * Span-stability rule (the `raw()` contract for Dram/Iram): the
 * contiguous span returned by `contiguous()` materializes every page
 * into private storage and stays valid — and visible to reads through
 * this object — until the next `adopt()` (i.e. until the owning device
 * is forked again). `freeze()` and `zeroAll()` never invalidate it.
 * Code that holds a span across `adopt()` reads stale bytes; take a
 * fresh span instead.
 */

#ifndef SENTRY_HW_COW_BYTES_HH
#define SENTRY_HW_COW_BYTES_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sentry::hw
{

/**
 * Immutable page array published by CowBytes::freeze(). Safe to share
 * between threads: contents never change after publication, so many
 * workers can fork devices from one image concurrently.
 */
class CowImage
{
  public:
    /** @return logical size in bytes. */
    std::size_t size() const { return size_; }

    /** @return number of 4 KiB pages (last one may be partial). */
    std::size_t pageCount() const { return pages_.size(); }

    /** @return page data (PAGE_SIZE bytes), or nullptr for an all-zero
     * page. */
    const std::uint8_t *page(std::size_t index) const
    {
        return pages_[index];
    }

  private:
    friend class CowBytes;

    std::size_t size_ = 0;
    /** Per-page pointer; nullptr = zero page. Non-null entries point
     * either into owned_ or into a page of parent_. */
    std::vector<const std::uint8_t *> pages_;
    /** Storage for pages copied out of the freezing CowBytes. */
    std::unique_ptr<std::uint8_t[]> owned_;
    /** Keeps pages shared from an earlier image alive. */
    std::shared_ptr<const CowImage> parent_;
};

/** Copy-on-write byte array; see file comment for the page lifecycle. */
class CowBytes
{
  public:
    /** All pages start in the Zero state; no memory is touched, so
     * construction is O(size / PAGE_SIZE), not O(size). */
    explicit CowBytes(std::size_t size);

    CowBytes(const CowBytes &) = delete;
    CowBytes &operator=(const CowBytes &) = delete;

    std::size_t size() const { return size_; }
    std::size_t pageCount() const { return nPages_; }

    /** Copy @p len bytes at @p offset into @p buf. Caller checks
     * bounds. */
    void read(std::size_t offset, void *buf, std::size_t len) const
    {
        const std::size_t page = offset / PAGE_SIZE;
        const std::size_t inPage = offset % PAGE_SIZE;
        if (len <= PAGE_SIZE - inPage) {
            std::memcpy(buf, readPtr_[page] + inPage, len);
            return;
        }
        readSlow(offset, static_cast<std::uint8_t *>(buf), len);
    }

    /** Write @p len bytes at @p offset, privatizing touched pages.
     * Caller checks bounds. */
    void write(std::size_t offset, const void *buf, std::size_t len)
    {
        const std::size_t page = offset / PAGE_SIZE;
        const std::size_t inPage = offset % PAGE_SIZE;
        if (len <= PAGE_SIZE - inPage) {
            std::memcpy(privatePage(page) + inPage, buf, len);
            return;
        }
        writeSlow(offset, static_cast<const std::uint8_t *>(buf), len);
    }

    /**
     * Materialize every page into private storage and return the whole
     * array as one mutable span. See the span-stability rule in the
     * file comment. Logically const: contents are unchanged, only the
     * page states move to Private.
     */
    std::span<std::uint8_t> contiguous() const;

    /**
     * @return true if @p needle appears anywhere in the array; always
     * the same answer as containsBytes(contiguous(), needle), but
     * without materializing. Memory-adjacent page runs are scanned in
     * place, Zero runs are skipped, and each seam between runs is
     * checked through a stitched window of the bytes around it. An
     * all-zero needle, or one longer than a page, falls back to the
     * contiguous scan.
     */
    bool contains(std::span<const std::uint8_t> needle) const;

    /** Invert bit @p bit of the byte at @p offset (copy-on-write, one
     * page privatized at most). Caller checks bounds. */
    void flipBit(std::size_t offset, unsigned bit);

    /** @return the offset of the first non-zero byte, or size() when
     * every byte is zero. Zero pages are skipped unread. */
    std::size_t firstNonZero() const;

    /**
     * Remanence-decay page @p page through host decayBlend with one
     * page of pre-drawn @p lanes (see RemanenceModel::decay). A Zero
     * page decaying to ground 0x00 is unchanged and stays Zero; any
     * other page not yet Private is privatized and decayed in the same
     * pass, and journaled like a write.
     */
    void decayPage(std::size_t page, const std::uint64_t *lanes,
                   std::uint32_t threshold, std::uint8_t ground);

    /** Publish the current contents as an immutable image. Does not
     * change this instance's page states. All-zero pages are published
     * as Zero (nullptr), so forks of the image can skip them. */
    std::shared_ptr<const CowImage> freeze() const;

    /** Become a COW view of @p image (same size required): drop all
     * private pages, share the image's. Invalidates prior spans.
     * Re-adopting the image adopted last resets only the pages
     * privatized since, so a recycled fork costs O(pages it wrote);
     * after contiguous() or zeroAll(), or for another image, every
     * page slot is rewritten. */
    void adopt(std::shared_ptr<const CowImage> image);

    /**
     * Reset contents to all-zero. Pages already Private are memset in
     * place (so existing spans keep reading zeros, matching what a
     * plain memset of the old storage did); Shared/Zero pages drop to
     * the Zero state for free.
     */
    void zeroAll();

    /** @return number of Private pages (the fork's dirty bitmap
     * population). */
    std::size_t privatePages() const { return privateCount_; }

    /** @return true if page @p index has been privatized (dirty since
     * the last adopt()). */
    bool pageIsPrivate(std::size_t index) const
    {
        return private_[index] != 0;
    }

    /** The shared all-zero page backing Zero-state reads. */
    static const std::uint8_t *zeroPage();

    /**
     * Check the page bookkeeping, for tests (it walks every page):
     * privatePages() counts the Private pages; Private pages read their
     * local storage and the others the zero page or the adopted image;
     * the journal holds distinct Private pages and, unless contiguous()
     * made every page Private since the last adopt(), all of them.
     * @return an empty string, or the first inconsistency found.
     */
    std::string checkConsistency() const;

  private:
    void readSlow(std::size_t offset, std::uint8_t *out,
                  std::size_t len) const;
    void writeSlow(std::size_t offset, const std::uint8_t *in,
                   std::size_t len);

    /** @return true if page @p page reads from the shared zero page. */
    bool pageIsZero(std::size_t page) const
    {
        return readPtr_[page] == zeroPage();
    }

    /** @return true if page @p page continues the run ending at
     * @p page - 1 in memory: same state, and its bytes follow the
     * previous page's. */
    bool continuesRun(std::size_t page) const
    {
        if (private_[page] != private_[page - 1])
            return false;
        if (pageIsZero(page) || pageIsZero(page - 1))
            return pageIsZero(page) && pageIsZero(page - 1);
        return readPtr_[page] == readPtr_[page - 1] + PAGE_SIZE;
    }

    std::uint8_t *localPage(std::size_t page) const
    {
        return local_.get() + page * PAGE_SIZE;
    }

    /** Copy-on-write: give page @p page its own storage. */
    std::uint8_t *privatePage(std::size_t page)
    {
        if (!private_[page])
            privatize(page);
        return localPage(page);
    }

    /** First-write slow path of privatePage(), kept out of line so
     * the inlined write path stays small. */
    void privatize(std::size_t page);

    /** Mark page @p page Private, reading from its local storage, and
     * journal it. The caller has filled that storage. */
    void claim(std::size_t page);

    std::size_t size_;
    std::size_t nPages_;
    /** Private storage, nPages_ * PAGE_SIZE bytes. Deliberately left
     * uninitialized: the host OS lazily backs it, so an instance that
     * never privatizes a page costs no physical memory. */
    std::unique_ptr<std::uint8_t[]> local_;
    /* Page state is mutable so that contiguous() can be const: reads
     * observe identical bytes before and after materialization. */
    mutable std::vector<const std::uint8_t *> readPtr_;
    mutable std::vector<std::uint8_t> private_;
    mutable std::size_t privateCount_ = 0;
    /** Pages claim() privatized since the last adopt() (writes, bit
     * flips, decay), in order. Complete only while its length equals privateCount_:
     * contiguous() privatizes without journaling. */
    std::vector<std::size_t> privatized_;
    std::shared_ptr<const CowImage> base_;
};

} // namespace sentry::hw

#endif // SENTRY_HW_COW_BYTES_HH
