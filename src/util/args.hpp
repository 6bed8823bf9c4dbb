#pragma once

#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace swh {

/// Throws ParseError(`message`) unless `ok`: a check on what the user
/// typed, as opposed to a programmer contract (SWH_REQUIRE), so the
/// error carries the message alone.
void require_arg(bool ok, const std::string& message);

/// All of `text` as an integer or a number; otherwise throws ParseError
/// naming `what`.
long long parse_int(const std::string& text, const std::string& what);
double parse_double(const std::string& text, const std::string& what);

/// Minimal declarative command-line parser for the example tools.
/// Supports `--flag`, `--key value`, `--key=value`, and positional
/// arguments; unknown options throw. Not a general-purpose library —
/// just enough for reproducible tool invocations.
class ArgParser {
public:
    ArgParser(std::string program, std::string description);

    /// Declares a value option. `fallback` doubles as the help default.
    void add_option(const std::string& name, const std::string& help,
                    std::string fallback);

    /// Declares a boolean flag (default false).
    void add_flag(const std::string& name, const std::string& help);

    /// Declares a positional argument; required unless a fallback is
    /// given. Positionals fill in declaration order.
    void add_positional(const std::string& name, const std::string& help,
                        std::optional<std::string> fallback = std::nullopt);

    /// Parses argv. Throws ParseError on unknown/malformed input.
    /// Returns false if --help was requested (help text already printed
    /// to stdout).
    bool parse(int argc, const char* const* argv);

    const std::string& get(const std::string& name) const;
    /// The value of `name` as a number; ParseError if it is not one.
    long long get_int(const std::string& name) const;
    double get_double(const std::string& name) const;
    bool get_flag(const std::string& name) const;

    std::string help() const;

private:
    struct Option {
        std::string help;
        std::string value;
        bool is_flag = false;
        bool seen = false;
    };
    struct Positional {
        std::string name;
        std::string help;
        std::optional<std::string> value;
    };

    std::string program_;
    std::string description_;
    std::map<std::string, Option> options_;
    std::vector<Positional> positionals_;
};

/// Opens the file the output option `option` names, or leaves the
/// stream closed when the option is unset. Throws IoError when the path
/// cannot be written, so a tool that opens its outputs first fails
/// before any work.
std::ofstream open_output(const ArgParser& args, const std::string& option);

}  // namespace swh
