#include "host.h"

#include <chrono>
#include <cmath>
#include <cstdint>

namespace perfbench {

namespace {

/** Keeps the kernel's result observable so it cannot be optimized out. */
volatile std::uint64_t kernelSink = 0;

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

} // namespace

double
referenceKernelSeconds()
{
    // Two independent random streams of branchy reads and writes over a
    // 4 MiB table: cache misses that overlap, as the simulator's own
    // scattered tag, queue and generator state does. Its work is fixed;
    // only the host's speed moves its time. Of the kernels tried (this
    // table walked as one dependent chain, a 256 KiB table, a modelled
    // set-associative cache, pure arithmetic, binary search, virtual
    // dispatch), this one's time tracked the simulator's most closely.
    static std::vector<std::uint32_t> table(1u << 20, 1);
    const std::uint64_t mask = table.size() - 1;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint64_t y = 0x2545f4914f6cdd1dull;
    std::uint64_t acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < 5'400'000; ++i) {
        const std::uint32_t a = table[xorshift(x) & mask];
        std::uint32_t &b = table[xorshift(y) & mask];
        if ((a ^ b) & 1)
            acc += a;
        else
            b += static_cast<std::uint32_t>(x);
    }
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    kernelSink = acc;
    return s;
}

HostSpeed::HostSpeed() { passes_.push_back(referenceKernelSeconds()); }

double
HostSpeed::rescaleSinceLastPass()
{
    const double before = passes_.back();
    passes_.push_back(referenceKernelSeconds());
    return std::pow(kReferenceNominalS / ((before + passes_.back()) / 2.0),
                    kHostSensitivity);
}

} // namespace perfbench
