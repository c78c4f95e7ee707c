/**
 * @file
 * Algorithmic microbenchmark kernels used by the paper: GUPS (random
 * table update), LinkedList (pointer-chase), and em3d (Olden;
 * bipartite-graph relaxation). Unlike the synthetic SPEC models, these
 * produce their address streams mechanically from the actual algorithm
 * over synthetic data structures, so their memory characteristics (poor
 * locality, ~50/50 read-write traffic, single dirty word per line) are
 * emergent rather than calibrated.
 */
#ifndef PRA_WORKLOADS_KERNELS_H
#define PRA_WORKLOADS_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "cpu/mem_op.h"

namespace pra::workloads {

/** Which swap partner shuffledIdentity() draws at step i. */
enum class Shuffle
{
    Sattolo,     //!< below(i): one random cycle through all entries.
    FisherYates, //!< below(i + 1): a uniform permutation.
};

/** How many steps ahead shuffledIdentity() draws its swap partners. */
inline constexpr std::size_t kShuffleWindow = 16;

/**
 * The table 0..@p n-1 shuffled from the top down: step i (n-1 down to 1)
 * swaps entries i and @p kind's partner, drawn from @p rng. The table
 * and the state @p rng ends in equal those of the plain loop; the
 * partners are drawn kShuffleWindow steps ahead so that the host can
 * prefetch their slots (DESIGN.md §1).
 */
std::vector<std::uint32_t> shuffledIdentity(std::size_t n, Shuffle kind,
                                            Rng &rng);

/**
 * GUPS: read-modify-write of a random 8-byte element of a giant table.
 * Each update loads the element's line, then stores one word back —
 * a dirty mask of exactly one word, with no spatial locality.
 */
class Gups : public cpu::Generator
{
  public:
    explicit Gups(Addr table_bytes = 1ull << 28, unsigned gap = 12,
                  std::uint64_t seed = 7);

    cpu::MemOp next() override;
    const char *name() const override { return "GUPS"; }
    std::unique_ptr<cpu::Generator>
    clone() const override
    {
        return std::make_unique<Gups>(*this);
    }

  private:
    Addr tableBytes_;
    unsigned gap_;
    Rng rng_;
    bool pendingStore_ = false;
    Addr current_ = 0;
};

/**
 * LinkedList: Zilles-style list traversal. Nodes are one cache line and
 * are linked in a random permutation, so every hop is a dependent
 * (serializing) load to an unpredictable line; a fraction of visits
 * stores one payload word into the node.
 */
class LinkedList : public cpu::Generator
{
  public:
    explicit LinkedList(std::size_t nodes = 1u << 21, unsigned gap = 20,
                        double store_fraction = 0.55,
                        std::uint64_t seed = 11);

    cpu::MemOp next() override;
    const char *name() const override { return "LinkedList"; }
    std::unique_ptr<cpu::Generator>
    clone() const override
    {
        return std::make_unique<LinkedList>(*this);
    }

    /** The successor table; a clone shares its source's. */
    const std::vector<std::uint32_t> &nextIndex() const
    {
        return *nextIndex_;
    }

  private:
    /** Random cycle permutation; never written after construction. */
    std::shared_ptr<const std::vector<std::uint32_t>> nextIndex_;
    unsigned gap_;
    double storeFraction_;
    Rng rng_;
    std::uint32_t current_ = 0;
    bool pendingStore_ = false;
};

/**
 * em3d (Olden): electromagnetic wave propagation on a bipartite graph.
 * Each step visits a node (64 B apart, in shuffled order), loads one
 * in-edge neighbor value from the opposite partition, and stores the
 * recomputed value (one word) into the node.
 */
class Em3d : public cpu::Generator
{
  public:
    explicit Em3d(std::size_t nodes = 1u << 21, unsigned gap = 14,
                  std::uint64_t seed = 23);

    cpu::MemOp next() override;
    const char *name() const override { return "em3d"; }
    std::unique_ptr<cpu::Generator>
    clone() const override
    {
        return std::make_unique<Em3d>(*this);
    }

    /** The node visit order; a clone shares its source's. */
    const std::vector<std::uint32_t> &visitOrder() const
    {
        return *visitOrder_;
    }

  private:
    std::size_t nodes_;
    unsigned gap_;
    Rng rng_;
    /** Shuffled node order; never written after construction. */
    std::shared_ptr<const std::vector<std::uint32_t>> visitOrder_;
    std::size_t pos_ = 0;
    unsigned phase_ = 0;     //!< 0: load neighbor, 1: store node.
    std::uint32_t node_ = 0;
};

} // namespace pra::workloads

#endif // PRA_WORKLOADS_KERNELS_H
