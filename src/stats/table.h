/**
 * @file
 * Fixed-width text table and CSV emitters for benchmark reports. Every
 * fig* bench prints its rows through this so EXPERIMENTS.md can quote
 * outputs uniformly.
 */

#ifndef MUSUITE_STATS_TABLE_H
#define MUSUITE_STATS_TABLE_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace musuite {

/**
 * A rectangular table of strings with a header row. Numeric cells are
 * formatted by the caller; the table only handles layout.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Append one row; must match the header width. */
    void addRow(std::vector<std::string> row);

    /** Convenience for building a row cell-by-cell. */
    class RowBuilder
    {
      public:
        explicit RowBuilder(Table &table) : table(table) {}
        ~RowBuilder() { table.addRow(std::move(cells)); }

        RowBuilder &cell(const std::string &text);
        RowBuilder &cell(int64_t value);
        RowBuilder &cell(uint64_t value);
        RowBuilder &cell(double value, int precision = 2);
        /** Nanoseconds cell rendered with adaptive units. */
        RowBuilder &nanos(int64_t ns);

      private:
        Table &table;
        std::vector<std::string> cells;
    };

    RowBuilder row() { return RowBuilder(*this); }

    /** Aligned, padded text rendering. */
    void print(std::ostream &out) const;

    /** Comma-separated rendering including the header. */
    void printCsv(std::ostream &out) const;

    /**
     * JSON rendering: an array with one object per row, keyed by the
     * header. Cells that read as numbers are written bare, the rest as
     * strings (no escaping: cells are plain labels and numbers).
     */
    void printJson(std::ostream &out) const;

    size_t rowCount() const { return rows.size(); }

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/** Print a "=== title ===" section banner. */
void printBanner(std::ostream &out, const std::string &title);

} // namespace musuite

#endif // MUSUITE_STATS_TABLE_H
