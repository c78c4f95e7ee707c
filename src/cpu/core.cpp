#include "cpu/core.h"

#include <algorithm>

namespace pra::cpu {

Core::Core(unsigned id, const CoreParams &params, Generator &gen,
           CoreMemoryPort &port)
    : id_(id), params_(params), gen_(&gen), port_(&port),
      nextTag_(static_cast<std::uint64_t>(id) << 48)
{
    demandLoads_.reserve(params_.ldqSize);
}

void
Core::tick()
{
    std::uint64_t budget =
        static_cast<std::uint64_t>(params_.issueWidth) *
        kCpuCyclesPerDramCycle;

    while (budget > 0) {
        if (!hasOp_) {
            op_ = gen_->next();
            opInst_ = instCount_ + op_.gap + 1;
            hasOp_ = true;
        }

        // Run ahead through non-memory instructions, bounded by the ROB.
        const std::uint64_t limit = std::min(opInst_ - 1, robLimit());
        if (instCount_ < limit) {
            const std::uint64_t adv =
                std::min<std::uint64_t>(budget, limit - instCount_);
            instCount_ += adv;
            budget -= adv;
            if (budget == 0)
                break;
        }
        if (instCount_ < opInst_ - 1)
            break;   // ROB-head blocked on an outstanding load.

        // The memory op is next; check structural constraints.
        if (memOpBlocked())
            break;

        const std::uint64_t tag = nextTag_++;
        const bool fetching = port_->access(id_, op_, tag);
        ++instCount_;
        --budget;
        if (op_.isWrite) {
            ++stores_;
            if (fetching)
                ++storeFetches_;
        } else {
            ++loads_;
            if (fetching)
                demandLoads_.push_back({tag, instCount_});
        }
        hasOp_ = false;
    }
}

bool
Core::stalled() const
{
    // Mirrors the break conditions of tick(): every one of them can only
    // clear via complete() or the memory port freeing, never by the mere
    // passage of time, so a true result stays true until one of those
    // happens.
    if (!hasOp_)
        return false;   // Next op unknown; tick() must pull it first.
    const std::uint64_t limit = std::min(opInst_ - 1, robLimit());
    if (instCount_ < limit)
        return false;   // Can still run ahead of the memory op.
    if (instCount_ < opInst_ - 1)
        return true;    // ROB-head blocked on an outstanding load.
    return memOpBlocked();
}

bool
Core::memOpBlocked() const
{
    // A full LSQ, or a pointer chase waiting for in-flight loads.
    const bool lsq_full = op_.isWrite
                              ? storeFetches_ >= params_.stqSize
                              : demandLoads_.size() >= params_.ldqSize ||
                                    (op_.serializing && !demandLoads_.empty());
    return instCount_ + 1 > robLimit() || lsq_full ||
           !port_->canIssue(id_, op_.addr);
}

void
Core::complete(std::uint64_t tag)
{
    for (auto it = demandLoads_.begin(); it != demandLoads_.end(); ++it) {
        if (it->tag == tag) {
            demandLoads_.erase(it);   // In place: keeps the issue order.
            return;
        }
    }
    if (storeFetches_ > 0)
        --storeFetches_;
}

} // namespace pra::cpu
