/**
 * @file
 * The one JSON string escaper every JSON writer in the tree uses
 * (rselect-analyze --json, rselect-serve --json).
 */

#ifndef RSEL_SUPPORT_JSON_HPP
#define RSEL_SUPPORT_JSON_HPP

#include <string>

namespace rsel {

/**
 * `s` as a quoted JSON string: quotes and backslashes are escaped
 * with a backslash, control characters as `\u00XX`; every other
 * byte passes through unchanged.
 */
inline std::string
jsonStr(const std::string &s)
{
    static const char hex[] = "0123456789abcdef";
    std::string out = "\"";
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (u < 0x20) {
            out += "\\u00";
            out += hex[u >> 4];
            out += hex[u & 0xf];
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace rsel

#endif // RSEL_SUPPORT_JSON_HPP
