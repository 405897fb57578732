#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace rt::experiments {

/// Renders an aligned ASCII table (header + rows) — the textual stand-in
/// for the paper's tables and figure axes.
[[nodiscard]] std::string format_table(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows);

/// Fixed-precision double formatting.
[[nodiscard]] std::string fmt(double value, int precision = 1);

/// Percentage formatting: fmt_pct(0.526) == "52.6%".
[[nodiscard]] std::string fmt_pct(double fraction, int precision = 1);

/// Joins parts with a separator ("DS-1,DS-2" for the curriculum labels).
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               const std::string& sep);

/// RFC-4180 cell quoting: cells containing commas, double quotes, CR or LF
/// are wrapped in double quotes with embedded quotes doubled; clean cells
/// pass through unchanged.
[[nodiscard]] std::string csv_escape(const std::string& cell);

/// Writes rows as CSV with RFC-4180 quoting applied per cell.
void write_csv(const std::string& path,
               const std::vector<std::string>& header,
               const std::vector<std::vector<std::string>>& rows);

/// Strict unsigned parse: the WHOLE string must be base-10 digits and the
/// value must land in [lo, hi]. Unlike atoi/strtoull this rejects empty
/// strings, signs, whitespace, trailing junk ("12x") and overflow instead
/// of silently returning 0 or wrapping — a garbled `runs=abc` must be an
/// error reply, not a 0-run campaign.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(const std::string& s,
                                                      std::uint64_t lo,
                                                      std::uint64_t hi);

}  // namespace rt::experiments
