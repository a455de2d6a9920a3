/**
 * @file
 * Declarative tier-chain specification.
 *
 * A TierChainSpec describes an ordered list of offload tiers for anon
 * pages — fastest first — e.g. "zswap:256mb+ssd" is a 256 MiB
 * compressed warm tier in front of the SSD swap partition — plus the
 * placement policy that picks a page's entry tier. The spec is a pure
 * value type: parsing and validation happen here, materializing the
 * actual backends (host singletons or dedicated capped pools) is the
 * Host's job. It is the only way to configure where anon pages go.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tmo::tier
{

/** The kinds of tier a chain can compose. */
enum class TierKind {
    /** Compressed RAM pool (host zswap, or a dedicated capped pool). */
    ZSWAP,
    /** SSD swap partition. */
    SSD,
    /** Byte-addressable NVM / CXL memory (host NVM preset). */
    NVM,
};

/** Spec name of a kind ("zswap", "ssd", "nvm"). */
const char *tierKindName(TierKind kind);

/** How a chain picks the entry tier for an evicted page. */
enum class TierPlacement {
    /** Decay-aged per-page heat chooses the tier (TPP-style), with
     *  budgeted background promotion/demotion. The default. */
    HOTNESS,
    /** Working-set pages to tier 0, all others to the last tier, with
     *  no background movement: the §5.2 two-tier zswap+SSD hierarchy
     *  that keeps warm pages compressed and sends cold ones to swap. */
    WORKINGSET,
};

/** One tier of a chain. */
struct TierSpec {
    TierKind kind = TierKind::ZSWAP;
    /**
     * Capacity cap in bytes; 0 = the host default (the shared host
     * singleton backend). A nonzero cap on a ZSWAP tier materializes a
     * dedicated pool with that maxPoolBytes, so a chain can stack
     * several compressed tiers of different sizes.
     */
    std::uint64_t capBytes = 0;

    /** Canonical spec token ("zswap:256mb"). */
    std::string token() const;

    bool operator==(const TierSpec &) const = default;
};

/**
 * An ordered chain of tiers, fastest first, and its placement policy.
 * Empty = no anon offloading (file-only reclaim).
 */
struct TierChainSpec {
    std::vector<TierSpec> tiers;
    TierPlacement placement = TierPlacement::HOTNESS;

    bool empty() const { return tiers.empty(); }
    std::size_t size() const { return tiers.size(); }

    /** Canonical string form ("zswap:256mb+ssd", "none" when empty);
     *  the placement key is printed only for WORKINGSET
     *  ("zswap+ssd;placement=workingset"). */
    std::string toString() const;

    /**
     * Parse "tier[+tier...][;placement=hotness|workingset]" where each
     * tier is `zswap|ssd|nvm|cxl[:<cap>]` and cap is an integer with a
     * kb/mb/gb suffix (e.g. "zswap:256mb+ssd"). "none" or "" parses
     * to the empty chain, which takes no keys. "cxl" is an alias for
     * "nvm" (the host's NVM preset decides the device model).
     * Placement defaults to hotness; it only matters for chains of two
     * or more tiers.
     *
     * @throws std::invalid_argument naming the offending token: an
     * unknown tier, key or value, a duplicate key, an empty value, or
     * a key on the empty chain.
     */
    static TierChainSpec parse(const std::string &text);

    bool operator==(const TierChainSpec &) const = default;
};

/**
 * Parse-time validation: true when @p text is a well-formed chain
 * spec; otherwise false with the parse error in @p error (when
 * non-null). Mirrors the CLI convention of named errors + exit 2.
 */
bool isValidTierChainSpec(const std::string &text,
                          std::string *error = nullptr);

} // namespace tmo::tier
