#pragma once
// Aligned plain-text tables for benchmark reports. Every bench binary
// prints the rows/series of the paper figure it reproduces through this
// module, so output formatting is uniform.

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace cpx {

/// A table cell: string, integer, or double (formatted with given precision).
using Cell = std::variant<std::string, long long, double>;

/// A simple column-aligned table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Sets the number of significant digits used for double cells (default 4).
  void set_precision(int digits);

  void add_row(std::vector<Cell> cells);

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return headers_.size(); }

  /// Renders with aligned columns and a header separator.
  void print(std::ostream& os) const;

 private:
  std::string format_cell(const Cell& cell) const;

  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
  int precision_ = 4;
};

/// Prints a section banner used between benchmark sub-reports.
void print_banner(std::ostream& os, const std::string& title);

}  // namespace cpx
