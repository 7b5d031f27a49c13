// The {"name": {"value": v, "unit": u}, ...} object both programs print.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>

namespace wirebench {

class MetricsJson {
 public:
  /// Appends one metric; values keep nine significant digits.
  void add(const std::string& name, double value, const char* unit) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    out_ << (first_ ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << buffer << ", \"unit\": \"" << unit << "\"}";
    first_ = false;
  }

  /// The members, without the enclosing braces.
  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

}  // namespace wirebench
