#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <tuple>

namespace rsel {
namespace analysis {

const char *
severityName(Severity sev)
{
    switch (sev) {
    case Severity::Error:
        return "error";
    case Severity::Warning:
        return "warning";
    }
    return "error";
}

std::string
Diagnostic::toString() const
{
    return "pass " + pass + ": " + object + ": " + message;
}

void
DiagnosticEngine::report(Severity sev, const std::string &pass,
                         const std::string &object,
                         const std::string &message)
{
    Diagnostic d;
    d.severity = sev;
    d.pass = pass;
    d.object = object;
    d.message = message;
    diagnostics_.push_back(std::move(d));
    if (sev == Severity::Error)
        ++errors_;
    else
        ++warnings_;
}

void
DiagnosticEngine::error(const std::string &pass,
                        const std::string &object,
                        const std::string &message)
{
    report(Severity::Error, pass, object, message);
}

void
DiagnosticEngine::warning(const std::string &pass,
                          const std::string &object,
                          const std::string &message)
{
    report(Severity::Warning, pass, object, message);
}

std::vector<Diagnostic>
DiagnosticEngine::stableUnique() const
{
    std::vector<Diagnostic> sorted = diagnostics_;
    const auto key = [](const Diagnostic &d) {
        return std::tie(d.pass, d.object, d.severity, d.message);
    };
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&key](const Diagnostic &a, const Diagnostic &b) {
                         return key(a) < key(b);
                     });
    sorted.erase(std::unique(sorted.begin(), sorted.end(),
                             [&key](const Diagnostic &a,
                                    const Diagnostic &b) {
                                 return key(a) == key(b);
                             }),
                 sorted.end());
    return sorted;
}

std::string
DiagnosticEngine::firstError() const
{
    return firstErrorAfter(0);
}

std::string
DiagnosticEngine::firstErrorAfter(std::size_t start) const
{
    for (std::size_t i = start; i < diagnostics_.size(); ++i)
        if (diagnostics_[i].severity == Severity::Error)
            return diagnostics_[i].toString();
    return "";
}

std::string
DiagnosticEngine::summary() const
{
    return std::to_string(errors_) +
           (errors_ == 1 ? " error, " : " errors, ") +
           std::to_string(warnings_) +
           (warnings_ == 1 ? " warning" : " warnings");
}

Table
DiagnosticEngine::toTable(const std::string &title) const
{
    Table table(title, {"severity", "pass", "object", "message"});
    const std::vector<Diagnostic> rows = stableUnique();
    for (const Diagnostic &d : rows)
        table.addRow({severityName(d.severity), d.pass, d.object,
                      d.message});
    std::string tail = summary();
    const std::size_t suppressed = diagnostics_.size() - rows.size();
    if (suppressed != 0)
        tail += " (" + std::to_string(suppressed) +
                " duplicates suppressed)";
    table.addSummaryRow({tail, "", "", ""});
    return table;
}

} // namespace analysis
} // namespace rsel
