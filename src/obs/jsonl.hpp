#pragma once

#include <string>

namespace rc::obs {

// Flat-JSONL field access: every line the exporters write (metrics.jsonl,
// events.jsonl, slo.jsonl) is one flat object of string and number fields.

/// `s` with '"' and '\\' backslash-escaped.
std::string jsonEscape(const std::string& s);

/// String field `key` of `line`, unescaped; false when absent.
bool jsonString(const std::string& line, const std::string& key,
                std::string* out);

/// Number field `key` of `line`; false when absent.
bool jsonNumber(const std::string& line, const std::string& key, double* out);

}  // namespace rc::obs
