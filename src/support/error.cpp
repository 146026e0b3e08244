#include "support/error.hpp"

namespace rsel {

void
assertFailed(const char *cond, std::string_view msg, const char *file,
             int line)
{
    std::string text = "assertion failed: ";
    text += cond;
    text += " — ";
    text += msg;
    text += " (";
    text += file;
    text += ":";
    text += std::to_string(line);
    text += ")";
    throw PanicError(text);
}

} // namespace rsel
