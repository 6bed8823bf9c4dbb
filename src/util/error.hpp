#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace swh {

/// Thrown when a precondition or invariant stated with SWH_REQUIRE fails.
class ContractError : public std::logic_error {
public:
    explicit ContractError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown on malformed input: files, protocol messages and command
/// lines. The message is meant for the user, so it names what was wrong
/// with the input and carries no source location.
class ParseError : public std::runtime_error {
public:
    explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown on filesystem-level failures (open/read/write).
class IoError : public std::runtime_error {
public:
    explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void throw_contract_error(const char* expr, const char* msg,
                                       std::source_location loc);
}  // namespace detail

}  // namespace swh

/// Precondition/invariant check that stays on in release builds. The
/// scheduler and kernels are driven by untrusted experiment configs, so
/// violations must surface as exceptions, not UB.
#define SWH_REQUIRE(expr, msg)                                          \
    do {                                                                \
        if (!(expr)) {                                                  \
            ::swh::detail::throw_contract_error(                        \
                #expr, (msg), std::source_location::current());         \
        }                                                               \
    } while (false)
