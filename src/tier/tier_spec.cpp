#include "tier/tier_spec.hpp"

#include <cctype>
#include <stdexcept>

namespace tmo::tier
{

namespace
{

/** Parse "<n>kb|mb|gb" (case-insensitive) into bytes. */
std::uint64_t
parseCap(const std::string &text, const std::string &token)
{
    constexpr std::uint64_t MAX = ~std::uint64_t{0};
    const auto overflow = [&token] {
        return std::invalid_argument("bad tier '" + token +
                                     "': capacity overflows 64-bit bytes");
    };
    std::size_t pos = 0;
    std::uint64_t value = 0;
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos]))) {
        const auto digit = static_cast<std::uint64_t>(text[pos] - '0');
        if (value > (MAX - digit) / 10)
            throw overflow();
        value = value * 10 + digit;
        ++pos;
    }
    if (pos == 0)
        throw std::invalid_argument("bad tier '" + token +
                                    "': capacity needs digits");
    std::string unit = text.substr(pos);
    for (auto &c : unit)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    std::uint64_t scale = 0;
    if (unit == "kb")
        scale = 1ull << 10;
    else if (unit == "mb")
        scale = 1ull << 20;
    else if (unit == "gb")
        scale = 1ull << 30;
    else
        throw std::invalid_argument(
            "bad tier '" + token +
            "': capacity unit must be kb, mb, or gb");
    if (value == 0)
        throw std::invalid_argument("bad tier '" + token +
                                    "': capacity must be nonzero");
    if (value > MAX / scale)
        throw overflow();
    return value * scale;
}

TierSpec
parseTier(const std::string &token)
{
    const std::size_t colon = token.find(':');
    const std::string name = token.substr(0, colon);
    TierSpec spec;
    if (name == "zswap")
        spec.kind = TierKind::ZSWAP;
    else if (name == "ssd")
        spec.kind = TierKind::SSD;
    else if (name == "nvm")
        spec.kind = TierKind::NVM;
    else if (name == "cxl")
        spec.kind = TierKind::CXL;
    else
        throw std::invalid_argument(
            "unknown tier '" + name +
            "' (expected zswap, ssd, nvm, or cxl)");
    if (colon != std::string::npos) {
        if (spec.kind != TierKind::ZSWAP)
            throw std::invalid_argument(
                "bad tier '" + token +
                "': only zswap tiers take a capacity cap");
        spec.capBytes = parseCap(token.substr(colon + 1), token);
    }
    return spec;
}

/** Apply the ";key=value" options that follow the chain in @p text
 *  (@p keys is the text after the first ';'). */
void
parseKeys(const std::string &text, const std::string &keys,
          TierChainSpec &spec)
{
    if (spec.empty())
        throw std::invalid_argument("bad tier chain '" + text +
                                    "': 'none' takes no keys");
    bool placement_seen = false;
    std::size_t start = 0;
    while (start <= keys.size()) {
        std::size_t semi = keys.find(';', start);
        if (semi == std::string::npos)
            semi = keys.size();
        const std::string option = keys.substr(start, semi - start);
        start = semi + 1;
        const std::size_t eq = option.find('=');
        const std::string key = option.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : option.substr(eq + 1);
        if (key != "placement")
            throw std::invalid_argument(
                "bad tier chain '" + text + "': unknown key '" + key +
                "' (expected placement)");
        if (placement_seen)
            throw std::invalid_argument("bad tier chain '" + text +
                                        "': duplicate key 'placement'");
        placement_seen = true;
        if (value.empty())
            throw std::invalid_argument(
                "bad tier chain '" + text +
                "': placement needs a value (hotness or workingset)");
        if (value == "hotness")
            spec.placement = TierPlacement::HOTNESS;
        else if (value == "workingset")
            spec.placement = TierPlacement::WORKINGSET;
        else
            throw std::invalid_argument(
                "bad tier chain '" + text + "': unknown placement '" +
                value + "' (expected hotness or workingset)");
    }
}

} // namespace

const char *
tierKindName(TierKind kind)
{
    switch (kind) {
      case TierKind::ZSWAP:
        return "zswap";
      case TierKind::SSD:
        return "ssd";
      case TierKind::NVM:
        return "nvm";
      case TierKind::CXL:
        return "cxl";
    }
    return "?";
}

std::string
TierSpec::token() const
{
    std::string text = tierKindName(kind);
    if (capBytes == 0)
        return text;
    // Render in the largest unit that divides evenly.
    std::uint64_t value = capBytes;
    const char *unit = "kb";
    value >>= 10;
    if (value >= 1024 && value % 1024 == 0) {
        value >>= 10;
        unit = "mb";
    }
    if (value >= 1024 && value % 1024 == 0) {
        value >>= 10;
        unit = "gb";
    }
    return text + ":" + std::to_string(value) + unit;
}

std::string
TierChainSpec::toString() const
{
    if (tiers.empty())
        return "none";
    std::string text;
    for (const auto &tier : tiers) {
        if (!text.empty())
            text += '+';
        text += tier.token();
    }
    if (placement == TierPlacement::WORKINGSET)
        text += ";placement=workingset";
    return text;
}

TierChainSpec
TierChainSpec::parse(const std::string &text)
{
    TierChainSpec spec;
    const std::size_t semi = text.find(';');
    const std::string chain = text.substr(0, semi);
    std::size_t start = 0;
    while (!chain.empty() && chain != "none" && start <= chain.size()) {
        std::size_t plus = chain.find('+', start);
        if (plus == std::string::npos)
            plus = chain.size();
        const std::string token = chain.substr(start, plus - start);
        if (token.empty())
            throw std::invalid_argument("bad tier chain '" + text +
                                        "': empty tier token");
        spec.tiers.push_back(parseTier(token));
        start = plus + 1;
    }
    if (spec.tiers.size() > 8)
        throw std::invalid_argument("bad tier chain '" + text +
                                    "': at most 8 tiers");
    // An uncapped token names one of the host's shared devices, which
    // can stand at one chain position only; each capped zswap token
    // is a pool of its own.
    for (std::size_t i = 0; i < spec.tiers.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
            if (spec.tiers[i].capBytes == 0 && spec.tiers[j] == spec.tiers[i])
                throw std::invalid_argument(
                    "bad tier chain '" + text + "': shared device '" +
                    spec.tiers[i].token() + "' at tiers " +
                    std::to_string(j) + " and " + std::to_string(i) +
                    "; a chain names each device at most once");
    if (semi != std::string::npos)
        parseKeys(text, text.substr(semi + 1), spec);
    return spec;
}

bool
isValidTierChainSpec(const std::string &text, std::string *error)
{
    try {
        (void)TierChainSpec::parse(text);
        return true;
    } catch (const std::invalid_argument &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

} // namespace tmo::tier
