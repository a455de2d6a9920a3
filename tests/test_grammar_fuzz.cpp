/**
 * @file
 * Seeded grammar-mutation fuzzing of the simulator's text inputs.
 *
 * Each grammar starts from valid inputs and mutates them — inserting,
 * deleting and replacing characters, and splicing grammar tokens —
 * with a fixed seed and iteration count, so any failure reproduces
 * exactly. Every input must end in a named error or in a value that
 * round-trips through its string form and runs clean.
 *
 *  - TierChainSpec::parse: an accepted spec's toString() parses back
 *    equal, and every distinct accepted spec runs one small host
 *    under memory pressure with Senpai for a few simulated minutes and
 *    passes fault::auditHost.
 *  - FaultPlan::parseString: an accepted plan's toString() parses back
 *    equal, and every distinct accepted plan is the fault plan of one
 *    small paging host for three simulated minutes, after which
 *    fault::auditHost comes back clean.
 *  - TrafficSpec::parse: an accepted spec's toString() parses back
 *    equal, and every distinct accepted spec within a cost budget
 *    serves one web host for three simulated minutes with a clean
 *    audit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/invariant_auditor.hpp"
#include "host/fault_plan.hpp"
#include "host/fleet.hpp"
#include "sim/rng.hpp"
#include "tier/tier_spec.hpp"
#include "workload/request_gen.hpp"

using namespace tmo;

namespace
{

/**
 * Apply one to three random edits to @p text: insert, delete or
 * replace one character from @p alphabet, or overwrite a span of up
 * to four characters with one of @p tokens.
 */
std::string
mutate(std::string text, sim::Rng &rng, const std::string &alphabet,
       const std::vector<std::string> &tokens)
{
    const auto edits = 1 + rng.uniformInt(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
        const auto pos =
            static_cast<std::size_t>(rng.uniformInt(text.size() + 1));
        const char c = alphabet[rng.uniformInt(alphabet.size())];
        switch (rng.uniformInt(4)) {
          case 0:
            text.insert(pos, 1, c);
            break;
          case 1:
            if (pos < text.size())
                text.erase(pos, 1);
            break;
          case 2:
            if (pos < text.size())
                text[pos] = c;
            break;
          default:
            text.replace(pos, rng.uniformInt(5),
                         tokens[rng.uniformInt(tokens.size())]);
            break;
        }
    }
    return text;
}

} // namespace

TEST(GrammarFuzzTest, TierChainSpecParsesOrNamesTheError)
{
    const std::vector<std::string> seeds = {
        "zswap",
        "zswap:256mb+ssd",
        "zswap:64mb+zswap:256mb+ssd",
        "nvm+ssd;placement=workingset",
        "cxl",
        "none",
    };
    // The grammar's own characters, plus a NUL, a space and a byte
    // above 0x7f that the parser's ctype calls must survive.
    const std::string alphabet =
        std::string("zswapsdnvmcxlone:+;=kmgbKMGB0123456789 ") +
        '\0' + '\xff';
    const std::vector<std::string> tokens = {
        "zswap", "ssd", "nvm", "cxl", "none", "+", ";", ":", "=",
        "placement", "placement=", "hotness", "workingset",
        ";placement=hotness", "+zswap:64mb", "256mb", "1kb", "4gb",
        "0mb", "18446744073709551615kb", "99999999999999999999gb",
    };

    sim::Rng rng(1729);
    std::uint64_t rejected = 0;
    std::set<std::string> accepted; // canonical forms
    for (int i = 0; i < 20000; ++i) {
        const std::string &seed = seeds[i % seeds.size()];
        const std::string input =
            i < static_cast<int>(seeds.size())
                ? seed
                : mutate(seed, rng, alphabet, tokens);
        tier::TierChainSpec spec;
        try {
            spec = tier::TierChainSpec::parse(input);
        } catch (const std::invalid_argument &) {
            ++rejected;
            continue;
        }
        const std::string canonical = spec.toString();
        ASSERT_EQ(tier::TierChainSpec::parse(canonical), spec)
            << "input '" << input << "' printed as '" << canonical
            << "'";
        accepted.insert(canonical);
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(accepted.size(), seeds.size());

    // Every distinct accepted chain carries a paging host: 64 MiB of
    // feed on 48 MiB of RAM, so reclaim stores into every tier kind
    // the chain has.
    for (const std::string &text : accepted) {
        SCOPED_TRACE(text);
        auto fleet = host::FleetSpec{}
                         .hosts(1)
                         .seed(7)
                         .ram_mb(48)
                         .page_kb(64)
                         .tiers(text)
                         .controller("senpai")
                         .workload("feed", 64)
                         .build();
        fleet.start();
        fleet.host(0).simulation().runUntil(3 * sim::MINUTE);
        const auto violations = fault::auditHost(fleet.host(0));
        EXPECT_TRUE(violations.empty()) << violations.front();
    }
}

TEST(GrammarFuzzTest, FaultPlanParsesOrNamesTheError)
{
    const std::vector<std::string> seeds = {
        "t=20 kind=ssd-latency arg=6\nt=35 kind=ssd-write-error arg=0.3\n",
        "t=10 kind=zswap-cap arg=8\nt=40 kind=zswap-stall arg=500\n",
        "t=30 kind=swap-exhaust arg=0.2 # exhausted\nt=60 kind=ssd-wear "
        "arg=0.5\n",
        "kind=controller-crash arg=15 t=65\nt=80 kind=ram-shrink arg=8\n",
        "t=5 kind=tier-offline arg=1\nt=90 kind=tier-online arg=1\n",
        "t=50 kind=ssd-offline\nt=100 kind=ssd-online\n"
        "t=120 kind=controller-stall arg=20\n",
        "t=150 kind=host-crash\n",
    };
    const std::string alphabet =
        std::string("tkindarg=0123456789.-e+x #\n") + '\0' + '\xff';
    const std::vector<std::string> tokens = {
        "t=", "kind=", "arg=", "\n", "#", " ", "ssd-latency", "ssd-wear",
        "ssd-write-error", "ssd-offline", "ssd-online", "zswap-cap",
        "zswap-stall", "swap-exhaust", "controller-stall",
        "controller-crash", "ram-shrink", "tier-offline", "tier-online",
        "host-crash", "1e9", "1e10", "-1", "nan", "inf", "0x1p4", "1e-300",
        "99999999999999999999", "0.1234567890123",
    };

    sim::Rng rng(1730);
    std::uint64_t rejected = 0;
    std::set<std::string> accepted; // canonical forms
    for (int i = 0; i < 20000; ++i) {
        const std::string &seed = seeds[i % seeds.size()];
        const std::string input =
            i < static_cast<int>(seeds.size())
                ? seed
                : mutate(seed, rng, alphabet, tokens);
        host::FaultPlan plan;
        try {
            plan = host::FaultPlan::parseString(input);
        } catch (const std::invalid_argument &) {
            ++rejected;
            continue;
        }
        const std::string canonical = plan.toString();
        ASSERT_EQ(host::FaultPlan::parseString(canonical).events,
                  plan.events)
            << "input '" << input << "' printed as '" << canonical
            << "'";
        accepted.insert(canonical);
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(accepted.size(), seeds.size());

    // Every distinct accepted plan hits a paging host: 64 MiB of feed
    // on 48 MiB of RAM over a capped zswap tier and an SSD. A
    // host-crash ends the host's run; the fleet quarantines it and the
    // audit still sees consistent books.
    for (const std::string &text : accepted) {
        SCOPED_TRACE(text);
        auto fleet = host::FleetSpec{}
                         .hosts(1)
                         .seed(11)
                         .ram_mb(48)
                         .page_kb(64)
                         .tiers("zswap:16mb+ssd")
                         .controller("senpai")
                         .workload("feed", 64)
                         .faults(host::FaultPlan::parseString(text))
                         .build();
        fleet.start();
        fleet.run(3 * sim::MINUTE, 1);
        const auto violations = fault::auditHost(fleet.host(0));
        EXPECT_TRUE(violations.empty()) << violations.front();
    }
}

TEST(GrammarFuzzTest, TrafficSpecParsesOrNamesTheError)
{
    const std::vector<std::string> seeds = {
        "flat:rps=20",
        "diurnal:rps=30,amp=0.6,period-min=2,phase-min=1",
        "spike:rps=15,mult=3,at-min=1,dur-min=1",
        "flat:rps=10,spike-mult=2,spike-at-min=0.5,spike-dur-min=1,"
        "fanout=12,queue-ms=50",
        "diurnal:rps=25,fanout=4",
    };
    const std::string alphabet =
        std::string("flatdiurnspkemq:,=-0123456789.e+ ") + '\0' + '\xff';
    const std::vector<std::string> tokens = {
        "flat:", "diurnal:", "spike:", ",", "=", ":", "rps=", "amp=",
        "period-min=", "phase-min=", "spike-mult=", "spike-at-min=",
        "spike-dur-min=", "mult=", "at-min=", "dur-min=", "fanout=",
        "queue-ms=", "1e6", "1e7", "0", "-1", "nan", "inf", "1e-12",
        "0x1p-3", "0.1234567890123", "99999999999999999999",
    };

    sim::Rng rng(1731);
    std::uint64_t rejected = 0;
    std::set<std::string> accepted; // canonical forms
    for (int i = 0; i < 20000; ++i) {
        const std::string &seed = seeds[i % seeds.size()];
        const std::string input =
            i < static_cast<int>(seeds.size())
                ? seed
                : mutate(seed, rng, alphabet, tokens);
        workload::TrafficSpec spec;
        try {
            spec = workload::TrafficSpec::parse(input);
        } catch (const std::invalid_argument &) {
            ++rejected;
            continue;
        }
        const std::string canonical = spec.toString();
        ASSERT_EQ(workload::TrafficSpec::parse(canonical), spec)
            << "input '" << input << "' printed as '" << canonical
            << "'";
        accepted.insert(canonical);
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(accepted.size(), seeds.size());

    // A run costs about one page touch per offered touch, and the
    // grammar accepts up to TrafficSpec::MAX_PEAK_TOUCHES_PER_SEC of
    // them, so only specs within a smaller budget serve a web host (48
    // touches per request by default) on 48 MiB of RAM under Senpai.
    constexpr double TOUCH_BUDGET = 20'000.0;
    std::size_t served = 0;
    for (const std::string &text : accepted) {
        const auto spec = workload::TrafficSpec::parse(text);
        if (spec.peakTouchesPerSec() > TOUCH_BUDGET)
            continue;
        SCOPED_TRACE(text);
        ++served;
        auto fleet = host::FleetSpec{}
                         .hosts(1)
                         .seed(13)
                         .ram_mb(48)
                         .page_kb(64)
                         .tiers("zswap+ssd")
                         .controller("senpai")
                         .traffic(spec)
                         .workload("web", 64)
                         .build();
        fleet.start();
        fleet.run(3 * sim::MINUTE, 1);
        // Every arrival is served or shed.
        const auto &requests = fleet.host(0).apps().front()->requests();
        EXPECT_EQ(requests.offered, requests.completed + requests.dropped);
        const auto violations = fault::auditHost(fleet.host(0));
        EXPECT_TRUE(violations.empty()) << violations.front();
    }
    EXPECT_GT(served, seeds.size());
}
