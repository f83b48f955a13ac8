#pragma once

// <regex> for the analyzer's translation units. GCC 12 with
// -fsanitize=address at -O2 reports -Wmaybe-uninitialized inside
// libstdc++'s std::function move constructor, inlined from <regex>'s NFA
// builder (_M_insert_subexpr_begin/_end, _M_insert_backref): a false
// positive in library code that -Werror turns into a build failure. The
// diagnostic is silenced only for the lines of these library headers, so
// include this header first in a translation unit, before anything that
// pulls in <functional>, so that their text is read inside the pragma
// region. First-party code keeps every warning.

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <functional>
#include <regex>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
