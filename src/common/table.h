#ifndef PPDP_COMMON_TABLE_H_
#define PPDP_COMMON_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace ppdp {

/// In-memory table of strings used by the benchmark harness to print the
/// dissertation's tables/figure series and to persist them as CSV. Cells are
/// formatted by the caller (AddRow accepts doubles and formats them with a
/// fixed precision for reproducible diffs).
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> columns);

  /// Appends a fully-formatted row. Must match the column count.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats a numeric row with `precision` decimal digits.
  void AddNumericRow(const std::vector<double>& cells, int precision = 4);

  size_t num_rows() const { return rows_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::string>& row(size_t i) const { return rows_.at(i); }

  /// Pretty-prints with aligned columns, "|" separators and a header rule.
  void Print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (quotes cells containing commas/quotes).
  Status WriteCsv(const std::string& path) const;

  /// Formats a double with fixed precision (helper for callers mixing text
  /// and numeric cells).
  static std::string FormatDouble(double value, int precision = 4);

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ppdp

#endif  // PPDP_COMMON_TABLE_H_
