/**
 * @file
 * Randomized differential test for the incremental FR-FCFS scheduler:
 * the bucketed SchedQueue-based picks must match a reference copy of the
 * original full-queue-walk implementation — same picked request, and the
 * same sequence of mitigation safety queries (whose side effects, like
 * BlockHammer's delay accounting, are part of the simulation contract) —
 * across randomly generated DRAM states and request queues. One case
 * blocks every bank's PRE/ACT and makes most verdicts unsafe, so nearly
 * every row-prep pick takes the scheduler's no-candidate path, whose
 * safety queries must still come in global age order.
 */

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "mem/scheduler.hh"

namespace bh
{
namespace
{

using EvalLog = std::vector<std::pair<unsigned, RowId>>;

/**
 * Reference implementation: the original stateless full-walk FR-FCFS
 * (stack arrays, O(queue) per call), kept verbatim as the oracle.
 */
class ReferenceFrFcfs
{
  public:
    static constexpr unsigned kMaxBanks = 64;

    static std::optional<std::size_t>
    pickColumnReady(const std::deque<Request> &queue, const DramDevice &dram,
                    Cycle now, const FrFcfsScheduler::StreakCapped &capped)
    {
        std::array<bool, kMaxBanks> conflict_waiting{};
        for (const auto &req : queue) {
            const Bank &bank = dram.bank(req.flatBank);
            if (bank.isOpen() && bank.openRow() != req.coord.row)
                conflict_waiting[req.flatBank] = true;
        }
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const Request &req = queue[i];
            unsigned fb = req.flatBank;
            const Bank &bank = dram.bank(fb);
            if (!bank.isOpen() || bank.openRow() != req.coord.row)
                continue;
            if (conflict_waiting[fb] && capped && capped(fb))
                continue;
            DramCommand cmd = (req.type == ReqType::kRead)
                ? DramCommand::kRd : DramCommand::kWr;
            if (dram.canIssue(cmd, fb, now))
                return i;
        }
        return std::nullopt;
    }

    static std::optional<std::size_t>
    pickRowPrep(const std::deque<Request> &queue, const DramDevice &dram,
                Cycle now, const FrFcfsScheduler::ActFilter &act_allowed,
                const FrFcfsScheduler::StreakCapped &capped)
    {
        std::array<bool, kMaxBanks> keep_open{};
        for (const auto &req : queue) {
            unsigned fb = req.flatBank;
            const Bank &bank = dram.bank(fb);
            if (bank.isOpen() && bank.openRow() == req.coord.row)
                keep_open[fb] = !(capped && capped(fb));
        }
        std::array<bool, kMaxBanks> prepared{};
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const Request &req = queue[i];
            unsigned fb = req.flatBank;
            if (prepared[fb])
                continue;
            const Bank &bank = dram.bank(fb);
            if (bank.isOpen()) {
                if (bank.openRow() == req.coord.row)
                    continue;
                if (keep_open[fb])
                    continue;
                if (dram.canIssue(DramCommand::kPre, fb, now))
                    return i;
                prepared[fb] = true;
            } else {
                if (!act_allowed(req))
                    continue;
                if (dram.canIssue(DramCommand::kAct, fb, now))
                    return i;
                prepared[fb] = true;
            }
        }
        return std::nullopt;
    }
};

/** Drive a device through random legal commands to diversify its state. */
void
randomizeDevice(DramDevice &dram, Rng &rng, Cycle &now, unsigned steps)
{
    unsigned nbanks = dram.numBanks();
    for (unsigned s = 0; s < steps; ++s) {
        now += static_cast<Cycle>(rng.below(24));
        unsigned fb = static_cast<unsigned>(rng.below(nbanks));
        const Bank &bank = dram.bank(fb);
        if (bank.isOpen()) {
            switch (rng.below(3)) {
              case 0:
                if (dram.canIssue(DramCommand::kRd, fb, now))
                    dram.issue(DramCommand::kRd, fb, bank.openRow(), now);
                break;
              case 1:
                if (dram.canIssue(DramCommand::kWr, fb, now))
                    dram.issue(DramCommand::kWr, fb, bank.openRow(), now);
                break;
              default:
                if (dram.canIssue(DramCommand::kPre, fb, now))
                    dram.issue(DramCommand::kPre, fb, 0, now);
                break;
            }
        } else if (dram.canIssue(DramCommand::kAct, fb, now)) {
            dram.issue(DramCommand::kAct, fb,
                       static_cast<RowId>(rng.below(128)), now);
        }
    }
}

/** Random queue over the device's current open rows (hits + conflicts). */
std::deque<Request>
randomQueue(const DramDevice &dram, Rng &rng, ReqType type)
{
    std::deque<Request> q;
    auto len = rng.below(70);
    for (std::uint64_t i = 0; i < len; ++i) {
        Request req;
        unsigned fb = static_cast<unsigned>(rng.below(dram.numBanks()));
        const Bank &bank = dram.bank(fb);
        req.flatBank = fb;
        req.type = type;
        req.coord.row = (bank.isOpen() && rng.chance(0.5))
            ? bank.openRow() : static_cast<RowId>(rng.below(128));
        req.id = i;
        q.push_back(req);
    }
    return q;
}

/**
 * Issue PRE/ACT at `now` until no bank can PRE or ACT: every open bank
 * sits inside tRAS (or was already PRE-blocked), every closed bank
 * inside tRP or a rank-level ACT window.
 */
void
blockAllPrep(DramDevice &dram, Rng &rng, Cycle now)
{
    for (bool issued = true; issued;) {
        issued = false;
        for (unsigned fb = 0; fb < dram.numBanks(); ++fb) {
            if (dram.bank(fb).isOpen()) {
                if (dram.canIssue(DramCommand::kPre, fb, now)) {
                    dram.issue(DramCommand::kPre, fb, 0, now);
                    issued = true;
                }
            } else if (dram.canIssue(DramCommand::kAct, fb, now)) {
                dram.issue(DramCommand::kAct, fb,
                           static_cast<RowId>(rng.below(128)), now);
                issued = true;
            }
        }
    }
}

/** Knobs of one differential run (defaults: the original sweep). */
struct DiffScenario
{
    bool blockAllBanks = false;     ///< see blockAllPrep()
    unsigned safeOneIn = 0;         ///< 0: 2 of 3 verdicts safe
    unsigned *noPrepPicks = nullptr;    ///< out: non-empty, nothing picked
};

void
runDifferential(unsigned nbanks, std::uint64_t seed, DiffScenario sc = {})
{
    DramOrg org;
    org.bankGroups = 4;
    org.banksPerGroup = 4;
    org.ranks = nbanks / 16;
    ASSERT_EQ(org.banksPerChannel(), nbanks);
    DramDevice dram(org, DramTimings::ddr4());
    FrFcfsScheduler sched(nbanks);
    Rng rng(seed);
    Cycle now = 0;

    for (unsigned iter = 0; iter < 400; ++iter) {
        randomizeDevice(dram, rng, now, 12);
        if (sc.blockAllBanks)
            blockAllPrep(dram, rng, now);

        ReqType type = rng.chance(0.5) ? ReqType::kRead : ReqType::kWrite;
        std::deque<Request> ref_q = randomQueue(dram, rng, type);
        SchedQueue new_q(nbanks);
        for (const Request &r : ref_q) {
            Request copy = r;
            new_q.push(std::move(copy));
        }

        // Random capped banks and a deterministic (but arbitrary-looking)
        // safety verdict per (bank, row).
        std::uint64_t cap_salt = rng.next();
        std::uint64_t act_salt = rng.next();
        auto capped = [&](unsigned bank) {
            return ((bank * 2654435761u) ^ cap_salt) % 4 == 0;
        };
        auto verdict = [&](unsigned bank, RowId row) {
            std::uint64_t h =
                (static_cast<std::uint64_t>(bank) << 32 | row) * 0x9e3779b9;
            if (sc.safeOneIn > 0)
                return ((h ^ act_salt) % sc.safeOneIn) == 0;
            return ((h ^ act_salt) % 3) != 0;
        };

        // Column picks must select the identical request.
        auto ref_col =
            ReferenceFrFcfs::pickColumnReady(ref_q, dram, now, capped);
        auto new_col = sched.pickColumnReady(new_q, type, dram, now, capped);
        if (ref_col.has_value()) {
            ASSERT_NE(new_col, SchedQueue::kNone) << "iter " << iter;
            EXPECT_EQ(ref_q[*ref_col].id, new_q.at(new_col).id)
                << "iter " << iter;
        } else {
            EXPECT_EQ(new_col, SchedQueue::kNone) << "iter " << iter;
        }

        // Row-prep picks must agree — including the exact sequence of
        // safety-filter evaluations (their side effects are modeled).
        EvalLog ref_log, new_log;
        auto ref_filter = [&](const Request &req) {
            ref_log.emplace_back(req.flatBank, req.coord.row);
            return verdict(req.flatBank, req.coord.row);
        };
        auto new_filter = [&](const Request &req) {
            new_log.emplace_back(req.flatBank, req.coord.row);
            return verdict(req.flatBank, req.coord.row);
        };
        auto ref_prep = ReferenceFrFcfs::pickRowPrep(ref_q, dram, now,
                                                     ref_filter, capped);
        auto new_prep = sched.pickRowPrep(new_q, dram, now, new_filter,
                                          capped);
        if (ref_prep.has_value()) {
            ASSERT_NE(new_prep, SchedQueue::kNone) << "iter " << iter;
            EXPECT_EQ(ref_q[*ref_prep].id, new_q.at(new_prep).id)
                << "iter " << iter;
        } else {
            EXPECT_EQ(new_prep, SchedQueue::kNone) << "iter " << iter;
        }
        EXPECT_EQ(ref_log, new_log) << "iter " << iter;
        if (sc.noPrepPicks && !ref_q.empty() && !ref_prep)
            ++*sc.noPrepPicks;

        // When nothing picks, the scheduler's event bound must hold: no
        // pick may become possible before it (under frozen verdicts).
        if (!ref_col && !ref_prep) {
            auto silent = [&](const Request &req) {
                return verdict(req.flatBank, req.coord.row);
            };
            Cycle bound = sched.nextDemandEventAt(new_q, type, dram, now,
                                                  capped, kNoEventCycle);
            Cycle horizon = std::min(bound, now + 200);
            for (Cycle c = now + 1; c < horizon; ++c) {
                EXPECT_EQ(sched.pickColumnReady(new_q, type, dram, c,
                                                capped),
                          SchedQueue::kNone)
                    << "iter " << iter << " cycle " << c;
                EXPECT_EQ(sched.pickRowPrep(new_q, dram, c, silent, capped),
                          SchedQueue::kNone)
                    << "iter " << iter << " cycle " << c;
            }
        }
    }
}

TEST(SchedulerDifferential, PaperOrgSixteenBanks)
{
    runDifferential(16, 0xb10c);
}

TEST(SchedulerDifferential, FourRankSixtyFourBanks)
{
    runDifferential(64, 0x4a11);
}

TEST(SchedulerDifferential, SecondSeedSweep)
{
    runDifferential(16, 0xfeed);
    runDifferential(32, 0xbeef);
}

TEST(SchedulerDifferential, EveryBankTimingBlockedMostlyUnsafe)
{
    // Nothing can PRE or ACT and four in five verdicts are unsafe: the
    // row-prep picks answer "no candidate" without walking the queue and
    // replay the walk's safety queries (each closed bank's requests up
    // to its first safe one) merged across banks by age.
    for (auto [nbanks, seed] :
         {std::pair{16u, 0x5a1eull}, std::pair{64u, 0xb1adull}}) {
        unsigned no_pick = 0;
        runDifferential(nbanks, seed, DiffScenario{true, 5, &no_pick});
        EXPECT_GT(no_pick, 300u) << nbanks << " banks";
    }
}

} // namespace
} // namespace bh
