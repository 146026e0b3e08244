/**
 * @file
 * Diagnostics for the static analysis passes.
 *
 * Every verifier pass reports through a DiagnosticEngine: a flat,
 * append-only list of (severity, pass, object, message) records.
 * Errors are invariant violations — a malformed program or an
 * illegal region; warnings are lints — code that is legal but
 * suspicious (unreachable blocks, dead functions, no-exit cycles).
 * The engine renders as a `support/table` grid for the CLI and as
 * single-line strings for fatal exceptions, and keeps per-severity
 * counts so callers can gate on "any errors" cheaply.
 */

#ifndef RSEL_ANALYSIS_DIAGNOSTICS_HPP
#define RSEL_ANALYSIS_DIAGNOSTICS_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/table.hpp"

namespace rsel {
namespace analysis {

/**
 * Thrown by verify-on-submit when a pass reports an error: the
 * message names the selector, the region and the failing pass.
 */
class VerifyError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** How bad a diagnostic is. */
enum class Severity : std::uint8_t {
    Error,   ///< Invariant violation: the object is malformed.
    Warning, ///< Lint: legal but suspicious.
};

/** Severity name as printed ("error" / "warning"). */
const char *severityName(Severity sev);

/** One finding of one pass about one object. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    /** Pass that produced the finding (e.g. "region-connectivity"). */
    std::string pass;
    /** What it is about (e.g. "block 7", "region 3 (LEI)"). */
    std::string object;
    /** Human-readable explanation. */
    std::string message;

    /** "pass <pass>: <object>: <message>" — the one-line form. */
    std::string toString() const;
};

/** Collects diagnostics across passes; append-only. */
class DiagnosticEngine
{
  public:
    /** Record one error-severity diagnostic. */
    void error(const std::string &pass, const std::string &object,
               const std::string &message);

    /** Record one warning-severity diagnostic. */
    void warning(const std::string &pass, const std::string &object,
                 const std::string &message);

    /** All diagnostics, in report order. */
    const std::vector<Diagnostic> &diagnostics() const
    {
        return diagnostics_;
    }

    /**
     * Diagnostics in the deterministic render order: sorted by pass,
     * then object, then severity, then message, with exact
     * duplicates suppressed. This is the order toTable() prints, so
     * CLI output is byte-stable for any insertion order (and hence
     * any job count).
     */
    std::vector<Diagnostic> stableUnique() const;

    std::size_t warningCount() const { return warnings_; }
    bool hasErrors() const { return errors_ != 0; }
    bool empty() const { return diagnostics_.empty(); }

    /** First error-severity diagnostic as a one-liner; "" if none. */
    std::string firstError() const;

    /**
     * First error at or after diagnostics()[start] as a one-liner;
     * "" if none. Lets incremental callers report only what their
     * own pass run added.
     */
    std::string firstErrorAfter(std::size_t start) const;

    /** "N errors, M warnings". */
    std::string summary() const;

    /**
     * Render the diagnostics as a support/table grid, in
     * stableUnique() order; the summary row names how many exact
     * duplicates were suppressed, if any.
     */
    Table toTable(const std::string &title) const;

  private:
    void report(Severity sev, const std::string &pass,
                const std::string &object, const std::string &message);

    std::vector<Diagnostic> diagnostics_;
    std::size_t errors_ = 0;
    std::size_t warnings_ = 0;
};

} // namespace analysis
} // namespace rsel

#endif // RSEL_ANALYSIS_DIAGNOSTICS_HPP
