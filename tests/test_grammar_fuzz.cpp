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
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/invariant_auditor.hpp"
#include "host/fleet.hpp"
#include "sim/rng.hpp"
#include "tier/tier_spec.hpp"

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
