// Minimal `--name value` flag parsing shared by the asmbench tools.
//
// The tools are driven by asmbench/run.py, never by hand, so parsing is
// strict: an unknown flag, a missing value or a malformed number exits 2
// with a message instead of benchmarking the wrong configuration.
#ifndef ASMBENCH_FLAGS_H_
#define ASMBENCH_FLAGS_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>

namespace asmbench {

/// Reports a fatal error of the tool and exits 2.
[[noreturn]] inline void Die(const std::string& message) {
  std::fprintf(stderr, "asmbench: %s\n", message.c_str());
  std::exit(2);
}

class Flags {
 public:
  /// Parses argv[1..] as `--name value` pairs; every name must appear in
  /// `known`.
  Flags(int argc, char** argv, std::initializer_list<const char*> known) {
    for (int i = 1; i < argc; i += 2) {
      const std::string name = argv[i];
      bool ok = name.rfind("--", 0) == 0 && i + 1 < argc;
      bool listed = false;
      for (const char* k : known) listed = listed || name.substr(2) == k;
      if (!ok || !listed) Die("bad or valueless flag '" + name + "'");
      values_[name.substr(2)] = argv[i + 1];
    }
  }

  const std::string& Str(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) Die("missing --" + name);
    return it->second;
  }

  uint64_t U64(const std::string& name) const {
    const std::string& s = Str(name);
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || s[0] == '-' || *end != '\0' || errno != 0) {
      Die("--" + name + ": expected a non-negative integer, got '" + s + "'");
    }
    return v;
  }

  double Double(const std::string& name) const {
    const std::string& s = Str(name);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0') {
      Die("--" + name + ": expected a number, got '" + s + "'");
    }
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace asmbench

#endif  // ASMBENCH_FLAGS_H_
