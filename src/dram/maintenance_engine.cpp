#include "dram/maintenance_engine.h"

#include <algorithm>
#include <bit>

namespace pra::dram {

namespace {

/** Lowest set bank of a non-zero open-bank mask. */
unsigned
lowestBank(std::uint64_t open)
{
    return static_cast<unsigned>(std::countr_zero(open));
}

} // namespace

bool
MaintenanceEngine::autoPreReady(const Bank &bank, Cycle now) const
{
    return bank.autoPrechargePending() && bank.canPrecharge(now);
}

bool
MaintenanceEngine::refreshReady(const Rank &rank, Cycle now) const
{
    return rank.refreshDue(now) && rank.canRefresh(now) &&
           !rank.refreshing(now);
}

bool
MaintenanceEngine::rfmReady(unsigned r, const Rank &rank, Cycle now) const
{
    // Same bank preconditions as refresh (all closed, past tRP —
    // canRefresh() covers the in-progress tRFM window too, since RFM
    // blocks the banks the same way), plus the PRAC readiness gate.
    return prac_ && prac_->rfmReady(r, now) && rank.canRefresh(now) &&
           !rank.refreshing(now);
}

bool
MaintenanceEngine::wantMaint(unsigned r, const Rank &rank, Cycle now) const
{
    return rank.refreshDue(now) || (prac_ && prac_->alertActive(r));
}

bool
MaintenanceEngine::closeEligible(unsigned r, unsigned b, const Bank &bank,
                                 bool want_maint, Cycle now) const
{
    if (!bank.isOpen() || !bank.canPrecharge(now))
        return false;
    const bool useless = banks_->openRowMatches(r, b) == 0 ||
                         bank.hitCount() >= cfg_->rowHitCap;
    // Open-page keeps rows open unless refresh (or an RFM drain) needs
    // them shut.
    return (cfg_->policy == PagePolicy::RelaxedClose && useless) ||
           want_maint;
}

std::vector<MaintenanceEngine::BankRef>
MaintenanceEngine::autoPrechargeCandidates(Cycle now) const
{
    // A pending auto-precharge always sits on an open bank (the flag is
    // set by a column command and cleared by ACT/PRE), so only open
    // banks are visited — in ascending order, as a full scan would.
    std::vector<BankRef> out;
    for (unsigned r = 0; r < banks_->numRanks(); ++r) {
        for (std::uint64_t open = banks_->rank(r).openBanks(); open != 0;
             open &= open - 1) {
            const unsigned b = lowestBank(open);
            ++bankVisits_;
            if (autoPreReady(banks_->bank(r, b), now))
                out.emplace_back(r, b);
        }
    }
    return out;
}

void
MaintenanceEngine::stepAutoPrecharge(Cycle now)
{
    // Auto-precharges exist only under restricted close-page: the
    // controller sets the flag solely on RDA/WRA issue, which is gated
    // on the policy. Every other policy can skip the bank scan.
    if (cfg_->policy != PagePolicy::RestrictedClose)
        return;
    // Auto-precharges are encoded in their column command, so every
    // ready one retires this cycle — no command-bus slot to arbitrate.
    // Same (rank, open bank) order as autoPrechargeCandidates(), without
    // the per-round vector. The mask is read before each retire clears
    // its bit, so every bank open at entry is visited once.
    for (unsigned r = 0; r < banks_->numRanks(); ++r) {
        for (std::uint64_t open = banks_->rank(r).openBanks(); open != 0;
             open &= open - 1) {
            const unsigned b = lowestBank(open);
            ++bankVisits_;
            if (autoPreReady(banks_->bank(r, b), now))
                hooks_->issueAutoPrecharge(r, b, now);
        }
    }
}

std::vector<unsigned>
MaintenanceEngine::refreshCandidates(Cycle now) const
{
    std::vector<unsigned> out;
    for (unsigned r = 0; r < banks_->numRanks(); ++r) {
        if (refreshReady(banks_->rank(r), now))
            out.push_back(r);
    }
    return out;
}

bool
MaintenanceEngine::tryRefresh(Cycle now)
{
    // First rank in refreshCandidates() order.
    for (unsigned r = 0; r < banks_->numRanks(); ++r) {
        if (refreshReady(banks_->rank(r), now)) {
            hooks_->issueRefresh(r, now);
            return true;
        }
    }
    return false;
}

std::vector<MaintenanceEngine::BankRef>
MaintenanceEngine::closeCandidates(Cycle now) const
{
    // Only open banks can be closed: visit the mask's set bits.
    std::vector<BankRef> out;
    for (unsigned r = 0; r < banks_->numRanks(); ++r) {
        const Rank &rank = banks_->rank(r);
        const bool want_maint = wantMaint(r, rank, now);
        for (std::uint64_t open = rank.openBanks(); open != 0;
             open &= open - 1) {
            const unsigned b = lowestBank(open);
            ++bankVisits_;
            if (closeEligible(r, b, rank.bank(b), want_maint, now))
                out.emplace_back(r, b);
        }
    }
    return out;
}

bool
MaintenanceEngine::tryMaintenanceClose(Cycle now)
{
    // First bank in closeCandidates() order.
    for (unsigned r = 0; r < banks_->numRanks(); ++r) {
        const Rank &rank = banks_->rank(r);
        const bool want_maint = wantMaint(r, rank, now);
        for (std::uint64_t open = rank.openBanks(); open != 0;
             open &= open - 1) {
            const unsigned b = lowestBank(open);
            ++bankVisits_;
            if (closeEligible(r, b, rank.bank(b), want_maint, now)) {
                hooks_->issuePrecharge(r, b, now);
                return true;
            }
        }
    }
    return false;
}

std::vector<unsigned>
MaintenanceEngine::rfmCandidates(Cycle now) const
{
    std::vector<unsigned> out;
    if (!prac_ || !prac_->enabled())
        return out;
    for (unsigned r = 0; r < banks_->numRanks(); ++r) {
        if (rfmReady(r, banks_->rank(r), now))
            out.push_back(r);
    }
    return out;
}

bool
MaintenanceEngine::tryRfm(Cycle now)
{
    if (!prac_ || !prac_->enabled())
        return false;
    // First rank in rfmCandidates() order.
    for (unsigned r = 0; r < banks_->numRanks(); ++r) {
        if (rfmReady(r, banks_->rank(r), now)) {
            hooks_->issueRfm(r, now);
            return true;
        }
    }
    return false;
}

Cycle
MaintenanceEngine::rfmWakeBound(Cycle now) const
{
    Cycle next = ~Cycle{0};
    if (!prac_ || !prac_->enabled())
        return next;
    auto consider = [&](Cycle c) {
        if (c < next)
            next = c;
    };
    for (unsigned r = 0; r < banks_->numRanks(); ++r) {
        if (!prac_->alertActive(r))
            continue;
        const Rank &rank = banks_->rank(r);
        // An open bank is state-gated: its close happens inside a
        // round, which re-publishes. Only the time gates bound here.
        if (!rank.allBanksClosed())
            continue;
        Cycle ready = std::max(prac_->rfmReadyAt(r), latestActGate(rank));
        if (rank.refreshing(now))
            ready = std::max(ready, rank.refreshDoneAt());
        consider(ready);
    }
    return next;
}

Cycle
MaintenanceEngine::latestActGate(const Rank &rank) const
{
    Cycle ready = 0;
    for (unsigned b = 0; b < rank.numBanks(); ++b)
        ready = std::max(ready, rank.bank(b).earliestActivate());
    bankVisits_ += rank.numBanks();
    return ready;
}

Cycle
MaintenanceEngine::nextWakeAt(Cycle now) const
{
    Cycle next = ~Cycle{0};
    auto consider = [&](Cycle c) {
        if (c > now && c < next)
            next = c;
    };
    for (unsigned r = 0; r < banks_->numRanks(); ++r) {
        const Rank &rank = banks_->rank(r);
        // Refresh deadlines apply even to idle ranks; an in-progress
        // refresh re-enables activations when tRFC elapses.
        consider(rank.nextRefreshAt());
        const bool refreshing = rank.refreshing(now);
        if (refreshing)
            consider(rank.refreshDoneAt());
        // Only open banks carry a close or auto-precharge deadline (a
        // pending auto-precharge always sits on an open bank).
        const bool want_maint = wantMaint(r, rank, now);
        for (std::uint64_t open = rank.openBanks(); open != 0;
             open &= open - 1) {
            const unsigned b = lowestBank(open);
            const Bank &bank = rank.bank(b);
            ++bankVisits_;
            if (bank.autoPrechargePending())
                consider(bank.earliestPrecharge());
            const bool useless = banks_->openRowMatches(r, b) == 0 ||
                                 bank.hitCount() >= cfg_->rowHitCap;
            // A close blocked only by its tRAS/tWR/tRTP gate fires
            // exactly when the gate releases; a still-useful row is
            // state-gated (its hits drain inside rounds). An RFM drain
            // (PRAC alert) forces closes like a due refresh.
            if ((cfg_->policy == PagePolicy::RelaxedClose && useless) ||
                want_maint) {
                consider(bank.earliestPrecharge());
            }
        }
        // A due refresh with every bank closed becomes issuable the
        // cycle the last tRP expires. (RFM readiness publishes through
        // the prac_rfm op's own wake bound — rfmWakeBound().)
        if (rank.refreshDue(now) && rank.allBanksClosed() && !refreshing)
            consider(latestActGate(rank));
    }
    return next;
}

} // namespace pra::dram
