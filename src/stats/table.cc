/**
 * @file
 * Implementation of the benchmark report table.
 */

#include "stats/table.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "base/logging.h"
#include "base/time_util.h"

namespace musuite {

Table::Table(std::vector<std::string> header)
    : header(std::move(header))
{
    MUSUITE_CHECK(!this->header.empty()) << "table needs at least 1 column";
}

void
Table::addRow(std::vector<std::string> row)
{
    MUSUITE_CHECK(row.size() == header.size())
        << "row width " << row.size() << " != header width "
        << header.size();
    rows.push_back(std::move(row));
}

Table::RowBuilder &
Table::RowBuilder::cell(const std::string &text)
{
    cells.push_back(text);
    return *this;
}

Table::RowBuilder &
Table::RowBuilder::cell(int64_t value)
{
    cells.push_back(std::to_string(value));
    return *this;
}

Table::RowBuilder &
Table::RowBuilder::cell(uint64_t value)
{
    cells.push_back(std::to_string(value));
    return *this;
}

Table::RowBuilder &
Table::RowBuilder::cell(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    cells.push_back(buf);
    return *this;
}

Table::RowBuilder &
Table::RowBuilder::nanos(int64_t ns)
{
    cells.push_back(formatNanos(ns));
    return *this;
}

void
Table::print(std::ostream &out) const
{
    std::vector<size_t> widths(header.size());
    for (size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    for (const auto &row : rows) {
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            out << row[c];
            if (c + 1 < row.size())
                out << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        out << "\n";
    };

    emit_row(header);
    size_t rule = 0;
    for (size_t c = 0; c < widths.size(); ++c)
        rule += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    out << std::string(rule, '-') << "\n";
    for (const auto &row : rows)
        emit_row(row);
}

void
Table::printCsv(std::ostream &out) const
{
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            out << row[c];
            if (c + 1 < row.size())
                out << ",";
        }
        out << "\n";
    };
    emit_row(header);
    for (const auto &row : rows)
        emit_row(row);
}

void
Table::printJson(std::ostream &out) const
{
    // A digit must lead (after an optional sign), so "nan" and "-inf"
    // from non-finite doubles are quoted rather than written bare.
    const auto is_number = [](const std::string &cell) {
        const size_t lead = !cell.empty() && cell[0] == '-' ? 1 : 0;
        if (cell.size() <= lead || !std::isdigit((unsigned char)cell[lead]))
            return false;
        char *end = nullptr;
        std::strtod(cell.c_str(), &end);
        return end == cell.c_str() + cell.size();
    };
    out << "[";
    for (size_t r = 0; r < rows.size(); ++r) {
        out << (r == 0 ? "\n  {" : ",\n  {");
        for (size_t c = 0; c < header.size(); ++c) {
            const std::string &cell = rows[r][c];
            out << (c == 0 ? "\"" : ", \"") << header[c] << "\": ";
            if (is_number(cell))
                out << cell;
            else
                out << '"' << cell << '"';
        }
        out << "}";
    }
    out << (rows.empty() ? "]" : "\n]");
}

void
printBanner(std::ostream &out, const std::string &title)
{
    out << "\n=== " << title << " ===\n";
}

} // namespace musuite
