#include "dram/rank.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace pra::dram {

Rank::Rank(const DramConfig &cfg, unsigned index) : cfg_(&cfg)
{
    const TimingTables tables = TimingTables::build(cfg);
    t_ = tables.rank;
    if (cfg.banksPerRank > kMaxBanks) {
        throw std::invalid_argument(
            "banks per rank must be at most " + std::to_string(kMaxBanks) +
            ", got " + std::to_string(cfg.banksPerRank));
    }
    banks_.reserve(cfg.banksPerRank);
    for (unsigned b = 0; b < cfg.banksPerRank; ++b)
        banks_.emplace_back(tables.bank);
    // Stagger refresh deadlines across ranks so they do not refresh in
    // lockstep (matches real controller practice).
    nextRefresh_ = t_.refreshInterval +
                   index * (t_.refreshInterval / (cfg.ranksPerChannel + 1));
}

bool
Rank::canActivate(Cycle now, double weight) const
{
    if (now < nextActAllowed_)
        return false;
    // Drop activations that have left the tFAW window.
    while (actHead_ < actWindow_.size() &&
           actWindow_[actHead_].first + t_.fawWindow <= now) {
        ++actHead_;
    }
    double in_window = 0.0;
    for (std::size_t i = actHead_; i < actWindow_.size(); ++i)
        in_window += actWindow_[i].second;
    // Conventional DRAM allows four full-row activations per window; the
    // weighted budget reduces to exactly that when all weights are 1.
    return in_window + weight <= 4.0 + 1e-9;
}

void
Rank::recordActivation(Cycle now, double weight)
{
    if (actHead_ > 0 && actWindow_.size() == actWindow_.capacity()) {
        actWindow_.erase(actWindow_.begin(),
                         actWindow_.begin() +
                             static_cast<std::ptrdiff_t>(actHead_));
        actHead_ = 0;
    }
    actWindow_.emplace_back(now, weight);
    nextActAllowed_ = now + t_.actGap(weight);
}

bool
Rank::canRefresh(Cycle now) const
{
    if (!allBanksClosed())
        return false;
    return std::all_of(banks_.begin(), banks_.end(), [now](const Bank &b) {
        return b.earliestActivate() <= now;
    });
}

void
Rank::refresh(Cycle now)
{
    refreshDone_ = now + t_.refreshCycle;
    for (auto &b : banks_)
        b.blockUntil(refreshDone_);
    // Catch-up semantics: a late refresh does not shift the schedule.
    nextRefresh_ += t_.refreshInterval;
    if (nextRefresh_ <= now)
        nextRefresh_ = now + t_.refreshInterval;
}

void
Rank::rfm(Cycle now)
{
    rfmDone_ = now + t_.rfmCycle;
    for (auto &b : banks_)
        b.blockUntil(rfmDone_);
}

void
Rank::updatePowerState(Cycle now, bool has_queued_work)
{
    const bool idle = allBanksClosed() && !has_queued_work &&
                      !refreshing(now);
    if (idle && !wasIdle_)
        idleSince_ = now;
    wasIdle_ = idle;

    if (!cfg_->powerDownEnabled)
        return;

    if (idle && !poweredDown_ &&
        now - idleSince_ >= cfg_->powerDownThreshold) {
        poweredDown_ = true;
    }
    if (!idle && poweredDown_)
        wake(now);
}

RankState
Rank::powerState(Cycle now) const
{
    if (refreshing(now))
        return RankState::Refreshing;
    if (!allBanksClosed())
        return RankState::ActiveStandby;
    if (poweredDown_)
        return RankState::PowerDown;
    return RankState::PrechargeStandby;
}

void
Rank::wake(Cycle now)
{
    poweredDown_ = false;
    for (auto &b : banks_)
        b.blockUntil(now + t_.powerUp);
}

void
Rank::fingerprint(Fnv1a &h, Cycle now, Cycle horizon) const
{
    for (const Bank &b : banks_)
        b.fingerprint(h, now, horizon);
    fingerprintRankLevel(h, now, horizon);
}

void
Rank::fingerprintRankLevel(Fnv1a &h, Cycle now, Cycle horizon) const
{
    auto delta = [&](Cycle reg) {
        h.add(reg <= now ? Cycle{0} : std::min(reg - now, horizon));
    };
    // Only window entries still inside tFAW can gate a future ACT; the
    // expired ones are popped lazily, so skip them for normalization.
    for (std::size_t i = actHead_; i < actWindow_.size(); ++i) {
        const auto &[cycle, weight] = actWindow_[i];
        if (cycle + t_.fawWindow <= now)
            continue;
        delta(cycle + t_.fawWindow);
        h.add(weight);
    }
    delta(nextActAllowed_);
    delta(nextRefresh_);
    delta(refreshDone_);
    // Gated so PRAC-off fingerprint streams stay byte-identical to the
    // pre-PRAC revision (the model checker pins exact state counts).
    if (cfg_->pracEnabled)
        delta(rfmDone_);
    h.add(poweredDown_);
}

void
Rank::fastForwardBackground(Cycle from, Cycle to, bool has_queued_work,
                            power::EnergyCounts &energy)
{
    if (to <= from)
        return;

#ifndef NDEBUG
    // Cycle-by-cycle replay of updatePowerState() + the accountBackground
    // state counting, used below to assert the analytic jump is exact.
    std::uint64_t replay_act = 0, replay_pre = 0, replay_pd = 0;
    bool replay_was_idle = wasIdle_, replay_pd_state = poweredDown_;
    Cycle replay_idle_since = idleSince_;
    for (Cycle c = from; c < to; ++c) {
        const bool idle =
            allBanksClosed() && !has_queued_work && !refreshing(c);
        if (idle && !replay_was_idle)
            replay_idle_since = c;
        replay_was_idle = idle;
        if (cfg_->powerDownEnabled) {
            if (idle && !replay_pd_state &&
                c - replay_idle_since >= cfg_->powerDownThreshold) {
                replay_pd_state = true;
            }
            // wake() is never reachable here: !idle with poweredDown_ set
            // implies the pre-skip tick already woke the rank.
            assert(idle || !replay_pd_state);
        }
        if (refreshing(c) || !allBanksClosed())
            ++replay_act;
        else if (replay_pd_state)
            ++replay_pd;
        else
            ++replay_pre;
    }
#endif

    const Cycle len = to - from;
    std::uint64_t act_cycles = 0, pre_cycles = 0, pd_cycles = 0;
    if (!allBanksClosed()) {
        // A bank is open: never refreshing (REF requires all banks
        // closed and none can open mid-skip), never idle.
        act_cycles = len;
        wasIdle_ = false;
    } else {
        // Refreshing segment [from, refresh_end): counts as active
        // standby, not idle.
        const Cycle refresh_end =
            std::min(std::max(refreshDone_, from), to);
        act_cycles = refresh_end - from;
        if (refresh_end > from)
            wasIdle_ = false;
        if (refresh_end < to) {
            if (has_queued_work) {
                // Work queued: a powered-down rank would already have
                // been woken by the tick that saw the arrival.
                assert(!poweredDown_);
                pre_cycles = to - refresh_end;
                wasIdle_ = false;
            } else {
                // Idle stretch: precharge standby until the power-down
                // threshold elapses, power-down after.
                if (!wasIdle_)
                    idleSince_ = refresh_end;
                wasIdle_ = true;
                Cycle pd_start = to;
                if (cfg_->powerDownEnabled) {
                    pd_start = poweredDown_
                                   ? refresh_end
                                   : std::max(refresh_end,
                                              idleSince_ +
                                                  cfg_->powerDownThreshold);
                    pd_start = std::min(pd_start, to);
                }
                pre_cycles = pd_start - refresh_end;
                pd_cycles = to - pd_start;
                if (pd_start < to)
                    poweredDown_ = true;
            }
        }
    }

#ifndef NDEBUG
    // The analytic jump and the naive per-cycle loop must agree exactly.
    assert(replay_act == act_cycles);
    assert(replay_pre == pre_cycles);
    assert(replay_pd == pd_cycles);
    assert(replay_was_idle == wasIdle_);
    assert(replay_pd_state == poweredDown_);
    assert(!replay_was_idle || replay_idle_since == idleSince_);
#endif

    energy.actStandbyCycles += act_cycles;
    energy.preStandbyCycles += pre_cycles;
    energy.powerDownCycles += pd_cycles;
}

} // namespace pra::dram
