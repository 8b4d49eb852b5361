#include "hw/cow_bytes.hh"

#include <algorithm>
#include <array>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "host/kernels.hh"

namespace sentry::hw
{

const std::uint8_t *
CowBytes::zeroPage()
{
    alignas(64) static const std::uint8_t zeros[PAGE_SIZE] = {};
    return zeros;
}

CowBytes::CowBytes(std::size_t size)
    : size_(size), nPages_((size + PAGE_SIZE - 1) / PAGE_SIZE)
{
    if (size == 0)
        panic("CowBytes: zero size");
    local_.reset(new std::uint8_t[nPages_ * PAGE_SIZE]);
    readPtr_.assign(nPages_, zeroPage());
    private_.assign(nPages_, 0);
}

void
CowBytes::privatize(std::size_t page)
{
    std::memcpy(localPage(page), readPtr_[page], PAGE_SIZE);
    claim(page);
}

void
CowBytes::claim(std::size_t page)
{
    readPtr_[page] = localPage(page);
    private_[page] = 1;
    ++privateCount_;
    privatized_.push_back(page);
}

void
CowBytes::flipBit(std::size_t offset, unsigned bit)
{
    std::uint8_t *cell = privatePage(offset / PAGE_SIZE) + offset % PAGE_SIZE;
    *cell = static_cast<std::uint8_t>(*cell ^ (1u << bit));
}

std::size_t
CowBytes::firstNonZero() const
{
    for (std::size_t page = 0; page < nPages_; ++page) {
        if (pageIsZero(page))
            continue;
        const std::size_t begin = page * PAGE_SIZE;
        const std::uint8_t *data = readPtr_[page];
        const std::size_t len = std::min(PAGE_SIZE, size_ - begin);
        if (allZero({data, len}))
            continue;
        std::size_t i = 0;
        while (data[i] == 0)
            ++i;
        return begin + i;
    }
    return size_;
}

void
CowBytes::decayPage(std::size_t page, const std::uint64_t *lanes,
                    std::uint32_t threshold, std::uint8_t ground)
{
    if (ground == 0x00 && pageIsZero(page))
        return;
    const std::size_t len = std::min(PAGE_SIZE, size_ - page * PAGE_SIZE);
    host::kernels().bytes.decayBlend(localPage(page), readPtr_[page], len,
                                     lanes, threshold, ground);
    if (!private_[page])
        claim(page);
}

void
CowBytes::readSlow(std::size_t offset, std::uint8_t *out,
                   std::size_t len) const
{
    while (len > 0) {
        const std::size_t inPage = offset % PAGE_SIZE;
        const std::size_t chunk = std::min(len, PAGE_SIZE - inPage);
        std::memcpy(out, readPtr_[offset / PAGE_SIZE] + inPage, chunk);
        offset += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
CowBytes::writeSlow(std::size_t offset, const std::uint8_t *in,
                    std::size_t len)
{
    while (len > 0) {
        const std::size_t inPage = offset % PAGE_SIZE;
        const std::size_t chunk = std::min(len, PAGE_SIZE - inPage);
        std::memcpy(privatePage(offset / PAGE_SIZE) + inPage, in, chunk);
        offset += chunk;
        in += chunk;
        len -= chunk;
    }
}

std::span<std::uint8_t>
CowBytes::contiguous() const
{
    if (privateCount_ != nPages_) {
        for (std::size_t page = 0; page < nPages_; ++page) {
            if (private_[page])
                continue;
            std::uint8_t *data = localPage(page);
            std::memcpy(data, readPtr_[page], PAGE_SIZE);
            readPtr_[page] = data;
            private_[page] = 1;
        }
        privateCount_ = nPages_;
    }
    return {local_.get(), size_};
}

bool
CowBytes::contains(std::span<const std::uint8_t> needle) const
{
    const std::size_t n = needle.size();
    if (n == 0)
        return false; // matches nowhere, as in containsBytes()
    // A zero needle matches inside Zero runs, and a needle longer than
    // a page can span a whole run plus both seams; neither is worth a
    // second walk.
    if (n > PAGE_SIZE || allZero(needle))
        return containsBytes(contiguous(), needle);

    // A window of n <= PAGE_SIZE bytes lies inside one run or crosses
    // exactly one seam (every run but the last is at least a page
    // long), so scanning each non-Zero run in place plus the 2(n-1)
    // bytes around each seam covers every window. Windows inside a
    // Zero run are all zeros and cannot match a non-zero needle.
    std::array<std::uint8_t, 2 * PAGE_SIZE> seam;
    std::size_t runStart = 0;
    for (std::size_t page = 1; page <= nPages_; ++page) {
        if (page < nPages_ && continuesRun(page))
            continue;
        const std::size_t begin = runStart * PAGE_SIZE;
        const std::size_t end = std::min(page * PAGE_SIZE, size_);
        if (!pageIsZero(runStart) &&
            containsBytes({readPtr_[runStart], end - begin}, needle))
            return true;
        if (page < nPages_ && n > 1) {
            const std::size_t from = end - (n - 1);
            const std::size_t to = std::min(end + (n - 1), size_);
            read(from, seam.data(), to - from);
            if (containsBytes({seam.data(), to - from}, needle))
                return true;
        }
        runStart = page;
    }
    return false;
}

std::shared_ptr<const CowImage>
CowBytes::freeze() const
{
    auto image = std::make_shared<CowImage>();
    image->size_ = size_;
    image->pages_.resize(nPages_, nullptr);

    // Private pages are copied out so this instance stays free to keep
    // mutating them, unless they hold only zeros: those are published
    // as Zero, so a template that materialized its memory still forks
    // into mostly-Zero devices. Shared pages are aliased (parent_ keeps
    // the older image alive; images are zero-canonical already); Zero
    // pages stay nullptr.
    std::vector<std::uint8_t> copy(nPages_, 0);
    std::size_t copied = 0;
    for (std::size_t page = 0; page < nPages_; ++page) {
        if (!private_[page])
            continue;
        const std::size_t len =
            std::min(PAGE_SIZE, size_ - page * PAGE_SIZE);
        copy[page] = allZero({readPtr_[page], len}) ? 0 : 1;
        copied += copy[page];
    }
    if (copied > 0)
        image->owned_.reset(new std::uint8_t[copied * PAGE_SIZE]);

    std::size_t slot = 0;
    bool sharesBase = false;
    for (std::size_t page = 0; page < nPages_; ++page) {
        if (copy[page]) {
            std::uint8_t *dst = image->owned_.get() + slot * PAGE_SIZE;
            std::memcpy(dst, readPtr_[page], PAGE_SIZE);
            image->pages_[page] = dst;
            ++slot;
        } else if (!private_[page] && !pageIsZero(page)) {
            image->pages_[page] = readPtr_[page];
            sharesBase = true;
        }
    }
    if (sharesBase)
        image->parent_ = base_;
    return image;
}

void
CowBytes::adopt(std::shared_ptr<const CowImage> image)
{
    if (image == nullptr)
        panic("CowBytes::adopt: null image");
    if (image->size() != size_)
        panic("CowBytes::adopt: size mismatch (%zu vs %zu)",
              image->size(), size_);
    const auto share = [&](std::size_t page) {
        const std::uint8_t *src = base_->page(page);
        readPtr_[page] = src != nullptr ? src : zeroPage();
        private_[page] = 0;
    };
    // base_ holds the image alive, so pointer equality means "same
    // image"; zeroAll() drops base_, and a journal shorter than
    // privateCount_ means contiguous() privatized pages it missed.
    if (image == base_ && privatized_.size() == privateCount_) {
        for (const std::size_t page : privatized_)
            share(page);
    } else {
        base_ = std::move(image);
        for (std::size_t page = 0; page < nPages_; ++page)
            share(page);
    }
    privatized_.clear();
    privateCount_ = 0;
}

void
CowBytes::zeroAll()
{
    for (std::size_t page = 0; page < nPages_; ++page) {
        if (private_[page]) {
            std::memset(localPage(page), 0, PAGE_SIZE);
        } else {
            readPtr_[page] = zeroPage();
        }
    }
    base_.reset();
}

std::string
CowBytes::checkConsistency() const
{
    const auto at = [](const char *what, std::size_t page) {
        return std::string(what) + " (page " + std::to_string(page) + ")";
    };
    std::size_t privates = 0;
    for (std::size_t page = 0; page < nPages_; ++page) {
        if (private_[page]) {
            ++privates;
            if (readPtr_[page] != localPage(page))
                return at("private page reads shared storage", page);
            continue;
        }
        const std::uint8_t *shared =
            base_ != nullptr ? base_->page(page) : nullptr;
        if (readPtr_[page] != (shared != nullptr ? shared : zeroPage()))
            return at("shared page reads neither its image nor zeros",
                      page);
    }
    if (privates != privateCount_)
        return "privatePages() is " + std::to_string(privateCount_) +
               ", " + std::to_string(privates) + " pages are private";
    std::vector<std::uint8_t> journaled(nPages_, 0);
    for (const std::size_t page : privatized_) {
        if (page >= nPages_ || !private_[page])
            return at("journal holds a page that is not private", page);
        if (journaled[page]++ != 0)
            return at("journal holds a page twice", page);
    }
    // contiguous() privatizes every page without journaling it.
    if (privatized_.size() != privateCount_ && privateCount_ != nPages_)
        return "journal misses " +
               std::to_string(privateCount_ - privatized_.size()) +
               " private pages";
    return {};
}

} // namespace sentry::hw
