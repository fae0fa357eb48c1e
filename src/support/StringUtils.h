//===- support/StringUtils.h - Small string helpers -----------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String splitting/trimming/formatting helpers shared by the QASM front end
/// and the benchmark table printers.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_SUPPORT_STRINGUTILS_H
#define WEAVER_SUPPORT_STRINGUTILS_H

#include "support/Status.h"

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace weaver {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep, dropping empty pieces when \p KeepEmpty is false.
std::vector<std::string_view> split(std::string_view S, char Sep,
                                    bool KeepEmpty = false);

/// Returns true if \p S starts with \p Prefix.
bool startsWith(std::string_view S, std::string_view Prefix);

/// Appends the decimal form of \p Value (std::to_string's text) to \p Out.
inline void appendInt(std::string &Out, long long Value) {
  char Buf[24];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), Value);
  Out.append(Buf, R.ptr);
}

/// Appends \p Value with 17 significant digits in the "%.17g" form (which
/// round-trips any double), e.g. for QASM angle emission. Formats through
/// std::to_chars straight into \p Out: no locale, no temporary string.
inline void appendDouble(std::string &Out, double Value) {
  // Longest "%.17g" text: sign, 17 digits, '.', "e-308".
  char Buf[32];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), Value,
                         std::chars_format::general, 17);
  Out.append(Buf, R.ptr);
}

/// Byte range [Offset, Offset + Len) of one printed field inside a text
/// buffer; what the printers record when asked where a number landed.
struct TextSpan {
  size_t Offset = 0;
  size_t Len = 0;
};

/// appendDouble, recording in \p Span (when non-null) where the number
/// landed in \p Out.
inline void appendDouble(std::string &Out, double Value, TextSpan *Span) {
  size_t Begin = Out.size();
  appendDouble(Out, Value);
  if (Span)
    *Span = {Begin, Out.size() - Begin};
}

/// Returns appendDouble's text for \p Value as a string.
std::string formatDouble(double Value);

/// printf-style formatting into a std::string.
std::string formatf(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Full-token, range-validated integer parse for untrusted input (argv,
/// fault specs, config tokens): parses \p Tok as a decimal integer and
/// validates [\p Min, \p Max]. Rejects empty tokens, trailing garbage,
/// and overflow — a hostile "99999999999999999999" is an error, never a
/// silently clamped or wrapped value.
Expected<long long> parseInt(std::string_view Tok, long long Min,
                             long long Max);

/// Parses \p Tok as a finite double (no NaN/Inf, no trailing garbage).
Expected<double> parseFiniteDouble(std::string_view Tok);

/// Full-token finite-double parse validated against [\p Min, \p Max].
/// Rejects NaN/Inf, trailing garbage, and out-of-range values — the
/// double-typed sibling of parseInt for untrusted input.
Expected<double> parseDouble(std::string_view Tok, double Min, double Max);

} // namespace weaver

#endif // WEAVER_SUPPORT_STRINGUTILS_H
