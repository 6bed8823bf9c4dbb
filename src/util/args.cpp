#include "util/args.hpp"

#include <cstdio>
#include <sstream>

#include "util/error.hpp"
#include "util/str.hpp"

namespace swh {

void require_arg(bool ok, const std::string& message) {
    if (!ok) throw ParseError(message);
}

long long parse_int(const std::string& text, const std::string& what) {
    std::size_t pos = 0;
    long long out = 0;
    try {
        out = std::stoll(text, &pos);
    } catch (const std::out_of_range&) {
        throw ParseError(what + " out of range: " + text);
    } catch (const std::invalid_argument&) {
        pos = 0;
    }
    require_arg(pos > 0 && pos == text.size(),
                what + " is not an integer: " + text);
    return out;
}

double parse_double(const std::string& text, const std::string& what) {
    std::size_t pos = 0;
    double out = 0.0;
    try {
        out = std::stod(text, &pos);
    } catch (const std::out_of_range&) {
        throw ParseError(what + " out of range: " + text);
    } catch (const std::invalid_argument&) {
        pos = 0;
    }
    require_arg(pos > 0 && pos == text.size(),
                what + " is not a number: " + text);
    return out;
}

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           std::string fallback) {
    SWH_REQUIRE(options_.find(name) == options_.end(), "duplicate option");
    options_[name] = Option{help, std::move(fallback), false, false};
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
    SWH_REQUIRE(options_.find(name) == options_.end(), "duplicate flag");
    options_[name] = Option{help, "false", true, false};
}

void ArgParser::add_positional(const std::string& name,
                               const std::string& help,
                               std::optional<std::string> fallback) {
    positionals_.push_back(Positional{name, help, std::move(fallback)});
}

bool ArgParser::parse(int argc, const char* const* argv) {
    std::size_t next_positional = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(help().c_str(), stdout);
            return false;
        }
        if (starts_with(arg, "--")) {
            std::string name = arg.substr(2);
            std::string value;
            bool has_value = false;
            if (const std::size_t eq = name.find('='); eq != std::string::npos) {
                value = name.substr(eq + 1);
                name = name.substr(0, eq);
                has_value = true;
            }
            const auto it = options_.find(name);
            require_arg(it != options_.end(), "unknown option --" + name);
            Option& opt = it->second;
            if (opt.is_flag) {
                require_arg(!has_value, "flag --" + name + " takes no value");
                opt.value = "true";
            } else if (has_value) {
                opt.value = std::move(value);
            } else {
                require_arg(i + 1 < argc,
                            "option --" + name + " is missing its value");
                opt.value = argv[++i];
            }
            opt.seen = true;
        } else {
            require_arg(next_positional < positionals_.size(),
                        "unexpected positional argument " + arg);
            positionals_[next_positional++].value = std::move(arg);
        }
    }
    for (const Positional& p : positionals_) {
        require_arg(p.value.has_value(),
                    "missing required argument: " + p.name);
    }
    return true;
}

const std::string& ArgParser::get(const std::string& name) const {
    if (const auto it = options_.find(name); it != options_.end()) {
        return it->second.value;
    }
    for (const Positional& p : positionals_) {
        if (p.name == name) {
            SWH_REQUIRE(p.value.has_value(), "positional not set");
            return *p.value;
        }
    }
    SWH_REQUIRE(false, ("unknown argument name: " + name).c_str());
    static const std::string empty;
    return empty;
}

long long ArgParser::get_int(const std::string& name) const {
    return parse_int(get(name), "--" + name);
}

double ArgParser::get_double(const std::string& name) const {
    return parse_double(get(name), "--" + name);
}

bool ArgParser::get_flag(const std::string& name) const {
    return get(name) == "true";
}

std::string ArgParser::help() const {
    std::ostringstream os;
    os << program_ << " — " << description_ << "\n\nusage: " << program_;
    for (const Positional& p : positionals_) {
        os << (p.value ? " [" + p.name + "]" : " <" + p.name + ">");
    }
    os << " [options]\n\narguments:\n";
    for (const Positional& p : positionals_) {
        os << "  " << p.name << "  " << p.help;
        if (p.value) os << " (default: " << *p.value << ")";
        os << '\n';
    }
    os << "\noptions:\n";
    for (const auto& [name, opt] : options_) {
        os << "  --" << name;
        if (!opt.is_flag) os << " <value>";
        os << "  " << opt.help;
        if (!opt.is_flag) os << " (default: " << opt.value << ")";
        os << '\n';
    }
    return os.str();
}

std::ofstream open_output(const ArgParser& args, const std::string& option) {
    std::ofstream out;
    const std::string& path = args.get(option);
    if (path.empty()) return out;
    out.open(path);
    if (!out) {
        throw IoError("cannot open --" + option + " file for writing: " +
                      path);
    }
    return out;
}

}  // namespace swh
