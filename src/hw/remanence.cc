#include "hw/remanence.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.hh"
#include "common/types.hh"
#include "host/kernels.hh"
#include "hw/cow_bytes.hh"

namespace sentry::hw
{

RemanenceModel::RemanenceModel(MemoryTech tech, double tau_bit_room)
    : tech_(tech),
      tauBitRoom_(tau_bit_room > 0 ? tau_bit_room : defaultTau(tech))
{
    if (tau_bit_room < 0)
        fatal("RemanenceModel: tau must be non-negative");
}

namespace
{
constexpr double ROOM_CELSIUS = 22.0;

double
temperatureScale(double celsius)
{
    // Retention roughly doubles per 10 C of cooling.
    return std::exp2((ROOM_CELSIUS - celsius) / 10.0);
}
} // namespace

double
RemanenceModel::bitSurvival(double off_seconds, double celsius) const
{
    if (off_seconds <= 0)
        return 1.0;
    const double tau = tauBitRoom_ * temperatureScale(celsius);
    return std::exp(-off_seconds / tau);
}

double
RemanenceModel::unitSurvival(double off_seconds, double celsius) const
{
    return std::pow(bitSurvival(off_seconds, celsius), 64.0);
}

namespace
{

/** Draw each 4 KiB region's ground and survival lanes in stream order
 * and hand them to @p blend(page, len, lanes, threshold, ground). */
template <typename Blend>
void
decayPages(const RemanenceModel &model, std::size_t size,
           double off_seconds, double celsius, Rng &rng, Blend &&blend)
{
    if (off_seconds <= 0)
        return;

    const double byteSurvival =
        std::pow(model.bitSurvival(off_seconds, celsius), 8.0);
    if (byteSurvival >= 1.0)
        return;

    // 16-bit threshold gives probability resolution of ~1.5e-5, enough
    // for the 97.5%-survival reflash case.
    const auto threshold =
        static_cast<std::uint32_t>(byteSurvival * 65536.0);

    std::array<std::uint64_t, PAGE_SIZE / 4> lanes;
    for (std::size_t page = 0; page * PAGE_SIZE < size; ++page) {
        // One ground polarity per 4 KiB region, then four 16-bit
        // survival lanes per PRNG draw.
        const std::uint8_t ground = rng.chance(0.5) ? 0x00 : 0xff;
        const std::size_t len = std::min(PAGE_SIZE, size - page * PAGE_SIZE);
        for (std::size_t w = 0; w < (len + 3) / 4; ++w)
            lanes[w] = rng.next64();
        blend(page, len, lanes.data(), threshold, ground);
    }
}

} // namespace

void
RemanenceModel::decay(std::span<std::uint8_t> memory, double off_seconds,
                      double celsius, Rng &rng) const
{
    const auto &kernel = host::kernels().bytes;
    decayPages(*this, memory.size(), off_seconds, celsius, rng,
               [&](std::size_t page, std::size_t len,
                   const std::uint64_t *lanes, std::uint32_t threshold,
                   std::uint8_t ground) {
                   std::uint8_t *cells = memory.data() + page * PAGE_SIZE;
                   kernel.decayBlend(cells, cells, len, lanes, threshold,
                                     ground);
               });
}

void
RemanenceModel::decay(CowBytes &memory, double off_seconds, double celsius,
                      Rng &rng) const
{
    decayPages(*this, memory.size(), off_seconds, celsius, rng,
               [&](std::size_t page, std::size_t, const std::uint64_t *lanes,
                   std::uint32_t threshold, std::uint8_t ground) {
                   memory.decayPage(page, lanes, threshold, ground);
               });
}

} // namespace sentry::hw
