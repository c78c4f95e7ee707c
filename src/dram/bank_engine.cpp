#include "dram/bank_engine.h"

namespace pra::dram {

BankEngine::BankEngine(const DramConfig &cfg) : cfg_(&cfg)
{
    ranks_.reserve(cfg.ranksPerChannel);
    for (unsigned r = 0; r < cfg.ranksPerChannel; ++r)
        ranks_.emplace_back(cfg, r);
    bankInfo_.resize(cfg.ranksPerChannel * cfg.banksPerRank);
    rankQueued_.resize(cfg.ranksPerChannel);
}

void
BankEngine::fingerprint(Fnv1a &h, Cycle now, Cycle horizon) const
{
    for (const Rank &r : ranks_)
        r.fingerprint(h, now, horizon);
    for (const BankInfo &bi : bankInfo_) {
        h.add(bi.queued);
        h.add(bi.openRowMatches);
    }
}

} // namespace pra::dram
