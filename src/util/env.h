// Environment-variable knobs.
//
// Build-agnostic switches (today the scheduler backend) are selected
// per run through environment variables so the CI matrix and the
// differential tests can flip them without rebuilding.
// This is the one parser they share: read fresh on every call (the
// consumers are cold construction paths, and tests flip values
// mid-process), match against an enumerated choice list, warn and fall
// back on anything unknown.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string_view>

namespace broadway {

/// Index into `choices` of the value `name` holds; `fallback` when the
/// variable is unset or empty.  An unknown value warns (naming the valid
/// choices) and returns `fallback`.
std::size_t env_choice(const char* name,
                       std::initializer_list<std::string_view> choices,
                       std::size_t fallback);

}  // namespace broadway
