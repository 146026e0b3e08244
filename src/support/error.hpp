/**
 * @file
 * Assertion and fatal-error helpers.
 *
 * Following the gem5 convention: panic() is for internal invariant
 * violations (library bugs), fatal() is for user errors (bad
 * configuration, invalid arguments).
 */

#ifndef RSEL_SUPPORT_ERROR_HPP
#define RSEL_SUPPORT_ERROR_HPP

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rsel {

/** Thrown for user-level errors (bad configuration, invalid input). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Thrown for internal invariant violations (library bugs). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/** Raise a user-level error. */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

/** Raise an internal-invariant error. */
[[noreturn]] inline void
panic(const std::string &msg)
{
    throw PanicError(msg);
}

/**
 * RSEL_ASSERT's failure path: throw a PanicError reading
 * "assertion failed: <cond> — <msg> (<file>:<line>)". Cold and out of
 * line, so a function that asserts reserves no frame for the message
 * and stays small enough to inline.
 */
[[noreturn]] [[gnu::cold]] void assertFailed(const char *cond,
                                             std::string_view msg,
                                             const char *file, int line);

} // namespace rsel

/**
 * Internal-invariant check. Unlike assert(), stays active in release
 * builds: region-selection correctness depends on these invariants and
 * the cost is one predicted branch. `msg` (a string literal or a
 * std::string) is evaluated only when `cond` fails.
 */
#define RSEL_ASSERT(cond, msg)                                              \
    do {                                                                    \
        if (!(cond)) [[unlikely]]                                           \
            ::rsel::assertFailed(#cond, (msg), __FILE__, __LINE__);         \
    } while (0)

#endif // RSEL_SUPPORT_ERROR_HPP
