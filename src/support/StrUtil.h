//===- support/StrUtil.h - String helpers ----------------------*- C++ -*-===//
///
/// \file
/// printf-style formatting into std::string plus tokenizing helpers used
/// by the loop DSL parser and the report printers.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SUPPORT_STRUTIL_H
#define HCVLIW_SUPPORT_STRUTIL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hcvliw {

/// Formats like printf and returns the result as a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits \p S on any run of characters in \p Seps; empty tokens dropped.
std::vector<std::string> splitString(std::string_view S,
                                     std::string_view Seps = " \t");

/// Removes leading and trailing whitespace.
std::string_view trimString(std::string_view S);

/// Parses a signed integer; returns false on malformed input.
bool parseInt64(std::string_view S, int64_t &Out);

/// Parses a command-line count: decimal digits only, in [0, \p Max].
/// Returns false on malformed or out-of-range input — a stray "-1" must
/// not wrap into four billion threads or menu entries, and "x" must not
/// read as 0.
bool parseUnsigned(std::string_view S, uint64_t Max, uint64_t &Out);

/// Upper bound of every tool's --threads value (0 = let the worker pool
/// pick hardware concurrency).
constexpr uint64_t MaxThreadCount = 1024;

/// Parses a double; returns false on malformed input.
bool parseDouble(std::string_view S, double &Out);

/// Escapes \p S for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Shared by every JSON-emitting
/// report writer so artifact escaping stays uniform.
std::string jsonEscape(const std::string &S);

} // namespace hcvliw

#endif // HCVLIW_SUPPORT_STRUTIL_H
