/**
 * @file
 * Strict parsing of user-supplied numbers (fault plans, overload specs,
 * .scn reproducers).
 *
 * std::stod/stoi happily stop at the first bad character ("1.5x"
 * parses as 1.5) and accept inf/nan, which sail through range checks
 * like `0 <= start < end` (every NaN comparison is false). Every number
 * here must consume the whole token and be finite; the caller reports
 * the offending token.
 */

#ifndef FSIM_SIM_STRICT_PARSE_HH
#define FSIM_SIM_STRICT_PARSE_HH

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace fsim
{

/** @p s without leading/trailing blanks and line ends. */
inline std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

inline bool
strictDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    try {
        std::size_t pos = 0;
        double v = std::stod(s, &pos);
        if (pos != s.size() || !std::isfinite(v))
            return false;
        out = v;
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

inline bool
strictInt(const std::string &s, int &out)
{
    if (s.empty())
        return false;
    try {
        std::size_t pos = 0;
        int v = std::stoi(s, &pos);
        if (pos != s.size())
            return false;
        out = v;
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

inline bool
strictU32(const std::string &s, std::uint32_t &out)
{
    if (s.empty() || s[0] == '-')
        return false;
    try {
        std::size_t pos = 0;
        unsigned long v = std::stoul(s, &pos);
        if (pos != s.size() || v > 0xffffffffUL)
            return false;
        out = static_cast<std::uint32_t>(v);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

inline bool
strictU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s[0] == '-')
        return false;
    try {
        std::size_t pos = 0;
        unsigned long long v = std::stoull(s, &pos);
        if (pos != s.size())
            return false;
        out = v;
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace fsim

#endif // FSIM_SIM_STRICT_PARSE_HH
