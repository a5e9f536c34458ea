#include "support/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/check.hpp"

namespace cpx {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  CPX_REQUIRE(!headers_.empty(), "Table: need at least one column");
}

void Table::set_precision(int digits) {
  CPX_REQUIRE(digits > 0 && digits <= 17, "Table: bad precision");
  precision_ = digits;
}

void Table::add_row(std::vector<Cell> cells) {
  CPX_REQUIRE(cells.size() == headers_.size(),
              "Table: row width " << cells.size() << " != header width "
                                  << headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::format_cell(const Cell& cell) const {
  std::ostringstream oss;
  if (const auto* s = std::get_if<std::string>(&cell)) {
    oss << *s;
  } else if (const auto* i = std::get_if<long long>(&cell)) {
    oss << *i;
  } else {
    oss << std::setprecision(precision_) << std::get<double>(cell);
  }
  return oss.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  std::vector<std::vector<std::string>> formatted;
  formatted.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(format_cell(row[c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    formatted.push_back(std::move(cells));
  }
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::left
         << std::setw(static_cast<int>(widths[c])) << cells[c];
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : formatted) {
    emit(row);
  }
}

void print_banner(std::ostream& os, const std::string& title) {
  os << '\n' << "=== " << title << " ===" << '\n';
}

}  // namespace cpx
